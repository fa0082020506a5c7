import hashlib
import math
import random
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domlab import isomorphism as iso
from domlab.catalog import (
    complete_graph,
    corona,
    cycle_graph,
    path_graph,
    special_graph,
)
from domlab.enumeration import all_graphs, connected_graphs
from domlab.graphs import (
    Graph,
    closed_neighborhood,
    components,
    distance,
    girth,
    is_connected,
    is_triangle_free,
    mask_of,
    open_neighborhood,
    set_of,
)
from domlab.isomorphism import (
    are_isomorphic,
    canonical_graph,
    canonical_key,
    canonical_labeling,
)
from domlab.products import cartesian, direct

import bruteforce
from conftest import random_graph


def test_graph_validation():
    with pytest.raises(ValueError):
        Graph(0)
    with pytest.raises(ValueError):
        Graph(63)
    with pytest.raises(ValueError):
        Graph(3, [(0, 0)])
    with pytest.raises(ValueError):
        Graph(3, [(0, 3)])


def test_closed_neighborhood_examples():
    p4 = path_graph(4)
    assert closed_neighborhood(p4, mask_of([0])) == mask_of([0, 1])
    assert closed_neighborhood(p4, 0) == 0
    c4 = cycle_graph(4)
    assert closed_neighborhood(c4, mask_of([0, 2])) == c4.full_mask
    assert open_neighborhood(p4, mask_of([0])) == mask_of([1])


def test_distance_examples():
    c7 = cycle_graph(7)
    assert distance(c7, 0, 3) == 3
    assert distance(c7, 4, 4) == 0
    two_k2 = Graph(4, [(0, 1), (2, 3)])
    assert distance(two_k2, 0, 3) == math.inf


def test_distance_matches_networkx():
    # every vertex pair of every graph of order <= 6, disconnected ones included
    nx = pytest.importorskip("networkx")
    for g in (g for n in range(1, 7) for g in all_graphs(n)):
        h = nx.Graph(list(g.edges()))
        h.add_nodes_from(range(g.n))
        lengths = dict(nx.all_pairs_shortest_path_length(h))
        for u in range(g.n):
            assert [distance(g, u, v) for v in range(g.n)] == [
                lengths[u].get(v, math.inf) for v in range(g.n)], (g, u)


def test_girth_examples():
    assert girth(complete_graph(3)) == 3
    assert girth(path_graph(4)) == math.inf
    assert girth(cycle_graph(7)) == 7
    assert girth(special_graph("P10")) == 5
    assert girth(special_graph("H1")) == 5
    for name in ("H2", "H3", "H4"):
        assert girth(special_graph(name)) == 4


def test_girth_matches_bruteforce_exhaustively():
    # all 1,252 graphs of order <= 7, disconnected ones included
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    assert len(graphs) == 1252
    for g in graphs:
        assert girth(g) == bruteforce.girth_brute(g), g


def test_girth3_iff_adjacent_common_neighbor():
    for n in range(2, 7):
        for g in connected_graphs(n):
            has_triangle = any(
                g.adj[u] & g.adj[v]
                for u, v in g.edges()
            )
            assert (girth(g) == 3) == has_triangle
            assert is_triangle_free(g) == (girth(g) >= 4)


def test_connectivity():
    assert is_connected(complete_graph(1))
    assert not is_connected(Graph(2))
    # a bipartite factor makes the direct product fall apart
    p = direct(cycle_graph(4), complete_graph(2)).graph
    assert not is_connected(p)
    assert len(components(p)) == 2
    assert all(are_isomorphic(p.induced(c)[0], cycle_graph(4)) for c in components(p))


def _counting(fn):
    calls = []

    def counted(g):
        calls.append(g)
        return fn(g)
    return counted, calls


def test_fact_is_computed_once_per_graph_object():
    count_edges, calls = _counting(lambda g: g.edge_count)
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert g.fact(count_edges) == g.fact(count_edges) == 3
    assert calls == [g]
    # an equal graph built apart and a relabeled one keep their own facts
    twin = Graph._raw(g.n, g.adj)
    moved = g.relabeled([3, 2, 1, 0])
    assert twin == g and moved == g
    assert twin.fact(count_edges) == moved.fact(count_edges) == 3
    assert [id(x) for x in calls] == [id(g), id(twin), id(moved)]
    # another function is another fact
    assert g.fact(is_connected) and len(calls) == 3


def test_fact_that_raises_keeps_nothing():
    def fails(g):
        raise RuntimeError("no fact")

    failing, calls = _counting(fails)
    g = path_graph(3)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="no fact"):
            g.fact(failing)
    assert len(calls) == 2


def test_facts_do_not_enter_equality_or_hashing():
    g, h = cycle_graph(5), cycle_graph(5)
    before = hash(g)
    g.fact(girth)
    g.fact(is_connected)
    assert g == h and hash(g) == hash(h) == before and repr(g) == repr(h)
    assert len({g, h}) == 1


def test_isomorphism_examples():
    assert are_isomorphic(cycle_graph(4), cartesian(complete_graph(2), complete_graph(2)).graph)
    assert not are_isomorphic(path_graph(4), cycle_graph(4))
    assert not are_isomorphic(special_graph("H2"), special_graph("H3"))
    assert not bruteforce.isomorphic(special_graph("H2"), special_graph("H3"))


def test_isomorphism_matches_bruteforce(rng):
    for _ in range(60):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, rng.random())
        h = random_graph(rng, n, rng.random())
        assert are_isomorphic(g, h) == bruteforce.isomorphic(g, h)


def test_isomorphism_reflexive_symmetric(rng):
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        h = random_graph(rng, rng.randint(1, 7), rng.random())
        assert are_isomorphic(g, g)
        assert are_isomorphic(g, h) == are_isomorphic(h, g)


def test_canonical_invariance_500_random(rng):
    for _ in range(500):
        n = rng.randint(1, 9)
        g = random_graph(rng, n, rng.random())
        perm = list(range(n))
        rng.shuffle(perm)
        h = g.relabeled(perm)
        assert canonical_graph(g) == canonical_graph(h)
        assert are_isomorphic(g, h)


def test_canonical_separates_classes():
    # distinct canonical keys == number of isomorphism classes (n <= 5)
    for n, expected in [(1, 1), (2, 2), (3, 4), (4, 11), (5, 34)]:
        keys = {canonical_key(g) for g in bruteforce.labeled_graphs(n)}
        assert len(keys) == expected


def test_automorphism_generators_generate_the_whole_group(rng):
    # The enumerator prunes joined vertex sets by the orbits of these
    # generators, so they must be automorphisms and generate all of Aut(h).
    for n in range(1, 7):
        for g in all_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            h = g.relabeled(perm)
            gens = canonical_labeling(h)[1]
            assert all(h.relabeled(p) == h for p in gens)
            group = {tuple(range(n))}
            stack = list(group)
            while stack:
                a = stack.pop()
                for p in gens:
                    b = tuple(p[v] for v in a)
                    if b not in group:
                        group.add(b)
                        stack.append(b)
            assert len(group) == sum(h.relabeled(p) == h for p in permutations(range(n)))


@pytest.mark.parametrize("g", [
    complete_graph(7),
    Graph(7, [(0, v) for v in range(1, 7)]),
    Graph(7, [(u, v) for u in range(3) for v in range(3, 7)]),
    Graph(6),
], ids=["K7", "K1,6", "K3,4", "edgeless-6"])
def test_twin_swaps_leave_one_leaf(monkeypatch, g):
    # Every cell of these graphs is a class of twins, so the root is a leaf:
    # one refinement and one leaf.  A search that individualizes down to
    # singletons refines 7, 6, 6 and 6 times; one that finds the swaps only
    # from equal leaves reaches 22, 16, 10 and 16 leaves.
    calls = {"_refine": 0, "_encode": 0}
    for name in calls:
        def counting(*args, name=name, real=getattr(iso, name)):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(iso, name, counting)
    gens = canonical_labeling(g)[1]
    assert calls["_refine"] == 1
    # the first leaf is encoded only when a second one comes, so a search
    # that encodes nothing reached one leaf
    assert calls["_encode"] == 0
    assert all(g.relabeled(p) == g for p in gens)


def test_relabeled_order_8_labels_back(rng):
    # the enumerator's representatives are canonical, so a relabeled copy of
    # each must label back to it, whatever the twin swaps pruned
    for g in all_graphs(8):
        perm = list(range(8))
        rng.shuffle(perm)
        assert canonical_graph(g.relabeled(perm)) == g


# sha256 over "lab gens" lines of canonical_labeling for every graph of order
# <= 7 and a relabeled copy of each.  The generators steer the enumerator's
# orbit pruning, so they are pinned along with the labels.
LABELING_SHA256 = "27604b9fb8459882396690c129c85ad6851270d126f3e3209ddaf24f87497e6e"


def test_canonical_labels_and_generators_are_pinned():
    rng = random.Random(7)
    lines = []
    for n in range(1, 8):
        for g in all_graphs(n):
            perm = list(range(n))
            rng.shuffle(perm)
            for h in (g, g.relabeled(perm)):
                lab, gens = canonical_labeling(h)
                lines.append(f"{lab} {gens}")
    assert len(lines) == 2 * 1252
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == LABELING_SHA256


def tuple_refine(cells, adj):
    """Reference refinement: each vertex signed by the tuple of its counts of
    neighbours in the current cells."""
    while True:
        new = []
        for cell in cells:
            groups = {}
            for v in set_of(cell):
                sig = tuple((adj[v] & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | 1 << v
            new.extend(groups[sig] for sig in sorted(groups))
        if len(new) == len(cells):
            return new
        cells = new


@st.composite
def partitioned_graphs(draw):
    """A graph of order <= 12 and an ordered partition of its vertices."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    color = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    cells = [mask_of(v for v in range(n) if color[v] == c) for c in range(n)]
    return Graph(n, [e for e, k in zip(pairs, keep) if k]), [c for c in cells if c]


# Vertices 0 and 1 count (0, 33) and (1, 1) neighbours in the two cells: a
# signature of fewer than 6 bits per cell merges or misorders them.
WIDE = Graph(36, [(0, v) for v in range(3, 36)] + [(1, 2), (1, 3)])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(partitioned_graphs())
@example((WIDE, [0b111, WIDE.full_mask ^ 0b111]))
def test_refine_matches_tuple_signatures(gc):
    g, cells = gc
    assert iso._refine(g.n, g.adj, cells) == tuple_refine(cells, g.adj)


def test_induced_and_relabel():
    g = corona(path_graph(3))
    sub, labels = g.induced(mask_of([0, 1, 2]))
    assert are_isomorphic(sub, path_graph(3))
    assert labels == (0, 1, 2)
    perm = [2, 0, 1]
    h = path_graph(3).relabeled(perm)
    assert set_of(h.adj[perm[1]]) == tuple(sorted((perm[0], perm[2])))
