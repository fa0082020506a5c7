import math
from itertools import permutations

import pytest

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
    with pytest.raises(ValueError):
        Graph.from_adjacency([0b010, 0b000, 0b000])  # asymmetric


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


def test_girth_examples():
    assert girth(complete_graph(3)) == 3
    assert girth(path_graph(4)) == math.inf
    assert girth(cycle_graph(7)) == 7
    assert girth(special_graph("P10")) == 5
    assert girth(special_graph("H1")) == 5
    for name in ("H2", "H3", "H4"):
        assert girth(special_graph(name)) == 4


def test_girth_against_bruteforce(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(3, 7), rng.random())
        assert girth(g) == bruteforce.girth_brute(g)


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


def test_induced_and_relabel():
    g = corona(path_graph(3))
    sub, labels = g.induced(mask_of([0, 1, 2]))
    assert are_isomorphic(sub, path_graph(3))
    assert labels == (0, 1, 2)
    perm = [2, 0, 1]
    h = path_graph(3).relabeled(perm)
    assert set_of(h.adj[perm[1]]) == tuple(sorted((perm[0], perm[2])))
