import hashlib
import itertools
import json

import pytest

from domlab.catalog import (
    complete_graph,
    corona,
    cycle_graph,
    path_graph,
    special_graph,
    triangle_free_well_dominated_catalog,
)
from domlab.classify import (
    NOT_MEMBER,
    all_basic_cycle_pairs_ok,
    basic_five_cycles,
    check_pc_well_dominated,
    classify_small_triangle_free,
    corona_decomposition,
    five_cycles,
    is_corona_of_connected,
    pc_partition,
    universal_vertices,
)
from domlab.domination import domination_number, is_well_dominated
from domlab.enumeration import all_graphs
from domlab.graph6 import to_graph6
from domlab.graphs import Graph, mask_of, set_of
from domlab.isomorphism import are_isomorphic

import bruteforce
from conftest import random_connected_graph


def test_universal_vertices():
    for n in range(1, 6):
        assert universal_vertices(complete_graph(n)) == (1 << n) - 1
    assert universal_vertices(path_graph(3)) == mask_of([1])
    assert universal_vertices(cycle_graph(5)) == 0


def test_corona_decomposition_examples():
    dec = corona_decomposition(path_graph(4))
    assert dec is not None
    assert dec.core_vertices == (1, 2)
    assert are_isomorphic(dec.core, complete_graph(2))
    assert sorted(dec.matching) == [(1, 0), (2, 3)]
    assert not dec.ambiguous

    assert corona_decomposition(cycle_graph(4)) is None

    dec = corona_decomposition(complete_graph(2))
    assert dec is not None and dec.ambiguous
    assert dec.core_vertices == (0,) and dec.matching == ((0, 1),)


def test_corona_roundtrip_random(rng):
    for _ in range(100):
        h = random_connected_graph(rng, rng.randint(1, 6))
        g = corona(h)
        dec = corona_decomposition(g)
        assert dec is not None
        assert are_isomorphic(dec.core, h)
        assert is_corona_of_connected(g)
        rebuilt = corona(dec.core)
        assert are_isomorphic(rebuilt, g)


def test_corona_rejections():
    assert corona_decomposition(Graph(3, [(0, 1)])) is None  # isolated vertex
    # two leaves on one support vertex
    assert corona_decomposition(Graph(3, [(0, 1), (0, 2)])) is None
    assert corona_decomposition(complete_graph(3)) is None


def test_five_cycles_and_basic():
    assert five_cycles(cycle_graph(5)) == [(0, 1, 2, 3, 4)]
    assert basic_five_cycles(cycle_graph(5)) == [(0, 1, 2, 3, 4)]
    assert basic_five_cycles(cycle_graph(7)) == []
    h1 = special_graph("H1")
    cycles = basic_five_cycles(h1)
    assert len(cycles) == 1 and len(set(cycles[0])) == 5
    # a 5-cycle with a chord is never basic: both chord ends have degree 3
    chord = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    assert len(five_cycles(chord)) == 1
    assert basic_five_cycles(chord) == []
    for g in (cycle_graph(6), path_graph(5), complete_graph(4)):
        for cyc in basic_five_cycles(g):
            assert len(cyc) == 5


def test_pc_partition_examples():
    g = corona(path_graph(3))
    pc = pc_partition(g)
    assert pc is not None
    assert pc.p_mask == g.full_mask and pc.c_mask == 0
    assert len(pc.pendant_matching) == 3 and pc.basic_cycles == ()

    h1 = special_graph("H1")
    pc = pc_partition(h1)
    assert pc is not None
    assert set_of(pc.p_mask) == (3, 6)
    assert len(pc.basic_cycles) == 1
    assert pc.c_mask == h1.full_mask & ~pc.p_mask

    assert pc_partition(cycle_graph(7)) is None
    assert pc_partition(complete_graph(1)) is None
    assert pc_partition(cycle_graph(5)) is not None


def test_check_pc_well_dominated():
    h1 = special_graph("H1")
    assert check_pc_well_dominated(h1, pc_partition(h1))
    g = corona(path_graph(3))
    assert check_pc_well_dominated(g, pc_partition(g))
    with pytest.raises(ValueError):
        check_pc_well_dominated(cycle_graph(5), pc_partition(special_graph("H1")))


def test_two_pentagons_one_edge_not_well_dominated():
    # two 5-cycles joined by exactly one edge: fails the 0/2/4 condition and
    # the graph is indeed not well-dominated
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges.append((0, 5))
    g = Graph(10, edges)
    pc = pc_partition(g)
    assert pc is not None and len(pc.basic_cycles) == 2
    assert not check_pc_well_dominated(g, pc)
    assert not all_basic_cycle_pairs_ok(g)
    assert not is_well_dominated(g)


def test_two_pentagons_two_disjoint_edges_ok():
    edges = [(i, (i + 1) % 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 1) % 5) for i in range(5)]
    edges += [(0, 5), (2, 7)]
    g = Graph(10, edges)
    pc = pc_partition(g)
    assert pc is not None
    assert check_pc_well_dominated(g, pc)


def test_classify_small_triangle_free():
    assert classify_small_triangle_free(cycle_graph(5)) == "C5"
    assert classify_small_triangle_free(special_graph("H4")) == "H4"
    assert classify_small_triangle_free(path_graph(6)) == NOT_MEMBER
    assert classify_small_triangle_free(complete_graph(3)) == NOT_MEMBER
    # relabeling does not change the tag
    for tag, g in triangle_free_well_dominated_catalog().items():
        perm = list(reversed(range(g.n)))
        assert classify_small_triangle_free(g.relabeled(perm)) == tag


def test_half_order_domination_characterization_exhaustive():
    # gamma = n/2 holds exactly for the 4-cycle and coronas of connected graphs
    from domlab.enumeration import connected_graphs

    for n in range(2, 8):
        for g in connected_graphs(n):
            lhs = 2 * domination_number(g) == g.n
            rhs = are_isomorphic(g, cycle_graph(4)) or is_corona_of_connected(g)
            assert lhs == rhs, g


# -- every recognizer output over one fixed graph set ----------------------------


def _pentagon_chain(k: int, links) -> Graph:
    """Pentagons 5i..5i+4 (i < k), pentagon i joined to pentagon i + 1 by the
    edges (5i + a, 5i + 5 + b) for (a, b) in links."""
    edges = [(5 * i + j, 5 * i + (j + 1) % 5) for i in range(k) for j in range(5)]
    edges += [(5 * i + a, 5 * i + 5 + b) for i in range(k - 1) for a, b in links]
    return Graph(5 * k, edges)


def recognizer_graphs() -> list[Graph]:
    """Every graph of order <= 7, connected or not, the five special graphs,
    coronas of paths and cycles, and chains of two or three pentagons joined
    by one edge, two disjoint edges or two edges sharing an end on either
    pentagon."""
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += [special_graph(name) for name in ("P10", "H1", "H2", "H3", "H4")]
    graphs += [corona(path_graph(k)) for k in range(1, 7)]
    graphs += [corona(cycle_graph(k)) for k in range(3, 7)]
    for links in ([(0, 0)], [(0, 0), (2, 2)], [(0, 0), (0, 2)], [(0, 0), (2, 0)]):
        graphs += [_pentagon_chain(k, links) for k in (2, 3)]
    return graphs


def test_recognizer_outputs_digest():
    # Every field of every recognizer over recognizer_graphs(), pinned by one
    # digest computed before the recognizers moved onto bitmasks.
    digest = hashlib.sha256()
    graphs = recognizer_graphs()
    for g in graphs:
        dec = corona_decomposition(g)
        pc = pc_partition(g)
        row = [
            to_graph6(g), universal_vertices(g), classify_small_triangle_free(g),
            five_cycles(g), basic_five_cycles(g), all_basic_cycle_pairs_ok(g),
            is_corona_of_connected(g),
            dec and [to_graph6(dec.core), dec.core_vertices, dec.matching, dec.ambiguous],
            pc and [pc.p_mask, pc.c_mask, pc.pendant_matching, pc.basic_cycles,
                    pc.ambiguous, check_pc_well_dominated(g, pc)],
        ]
        digest.update(json.dumps(row).encode())
    assert (len(graphs), digest.hexdigest()) == (
        1275, "f780de1330bf545364aa5385c2c0c4c8efb5b5096db4ea716697fbcee21c54e5")


def assert_matches_oracle(g: Graph) -> None:
    """Every recognizer of g against its definition in tests/bruteforce.py."""
    cycles = bruteforce.five_cycles(g)
    assert five_cycles(g) == cycles, g
    basic = [c for c in cycles if bruteforce.is_basic(g, c)]
    assert basic_five_cycles(g) == basic, g
    assert all_basic_cycle_pairs_ok(g) == all(
        bruteforce.cycle_pair_ok(g, c1, c2) for c1, c2 in itertools.combinations(basic, 2)), g

    decs = bruteforce.corona_decompositions(g)
    dec = corona_decomposition(g)
    assert (dec is None) == (not decs), g
    if dec is not None:
        # a K2 component is the only freedom, and its lower end is the core
        assert (dec.core_vertices, dec.matching) == min(decs), g
        assert dec.ambiguous == (len(decs) > 1), g
        cv = dec.core_vertices
        assert dec.core.n == len(cv) and all(
            dec.core.has_edge(i, j) == g.has_edge(cv[i], cv[j])
            for i, j in itertools.combinations(range(len(cv)), 2)), g
    assert is_corona_of_connected(g) == bruteforce.is_corona_of_connected(g), g

    oracle = bruteforce.pc_partitions(g, basic)
    pc = pc_partition(g)
    assert (pc is None) == (oracle is None or not oracle[3]), g
    if pc is not None:
        p, c, matching, covers = oracle
        assert (set_of(pc.p_mask), set_of(pc.c_mask)) == (tuple(sorted(p)), tuple(sorted(c))), g
        assert list(pc.pendant_matching) == matching, g
        assert set(pc.basic_cycles) in covers, g
        assert pc.ambiguous == any(set(cyc) & p for cyc in basic), g
        assert check_pc_well_dominated(g, pc) == all(
            bruteforce.cycle_pair_ok(g, c1, c2)
            for c1, c2 in itertools.combinations(pc.basic_cycles, 2)), g


def test_recognizers_match_bruteforce():
    for g in recognizer_graphs():
        assert_matches_oracle(g)
