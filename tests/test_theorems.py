import random

import pytest

from domlab.catalog import complete_graph, corona, cycle_graph, path_graph
from domlab.domination import (
    _iter_maximal_independent,
    _iter_minimal_total_dominating,
    is_minimal_dominating,
    is_maximal_independent,
)
from domlab.classify import universal_vertices
from domlab.graphs import Graph, iter_bits, mask_of
from domlab.products import disjunctive
from domlab.theorems import THEOREMS, check_instance
from domlab.verify import CorpusSpec, PairCorpusSpec, verify_corpus

from conftest import random_connected_graph

K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
P4 = path_graph(4)


def test_table_is_complete():
    expected = {
        "T1", "T2", "T3", "T4", "P1", "CHAIN", "UB3", "WCFACTOR", "G4CART",
        "PRISM", "BC", "DK", "L3G", "TV", "PX", "LK2", "L2P", "LK3", "LNE",
        "DIND", "DTOT", "DNE", "DKN", "E1", "TF11", "G5WD",
    }
    assert set(THEOREMS) == expected


def test_check_instance_examples():
    assert check_instance("T2", (K2, K2)).status == "holds"
    assert check_instance("T2", (P4, C4)).status == "holds"
    assert check_instance("PX", C4).status == "holds"
    assert check_instance("PX", path_graph(6)).status == "holds"
    assert check_instance("T2", (K3, K3)).status == "hypothesis-not-met"  # triangles
    assert check_instance("T3", (C4, C4)).status == "hypothesis-not-met"  # isolatable both
    assert check_instance("LNE", Graph(2)).status == "hypothesis-not-met"  # disconnected


def test_check_instance_arity_errors():
    with pytest.raises(TypeError):
        check_instance("PX", (C4, C4))
    with pytest.raises(TypeError):
        check_instance("T2", C4)
    with pytest.raises(KeyError):
        check_instance("NOPE", C4)


def test_counterexample_machinery_reports_clause_and_witness():
    # A deliberately wrong "theorem" is not available, so probe the verdict
    # shape through LNE on a crafted non-example and TF11 on a member.
    verdict = check_instance("TF11", cycle_graph(5))
    assert verdict.status == "holds"
    verdict = check_instance("CHAIN", Graph(3, [(0, 1)]))
    assert verdict.status == "holds"


def test_dind_spot_check_random(rng):
    for _ in range(25):
        g = random_connected_graph(rng, rng.randint(2, 5))
        h = random_connected_graph(rng, rng.randint(2, 5))
        pv = disjunctive(g, h)
        i_sets = list(_iter_maximal_independent(g))
        j_sets = list(_iter_maximal_independent(h))
        i_set = rng.choice(i_sets)
        j_set = rng.choice(j_sets)
        prod = 0
        for a in iter_bits(i_set):
            for b in iter_bits(j_set):
                prod |= 1 << pv.index(a, b)
        assert is_maximal_independent(pv.graph, prod)
        assert is_minimal_dominating(pv.graph, prod)


def test_dtot_spot_check_random(rng):
    tried = 0
    while tried < 25:
        g = random_connected_graph(rng, rng.randint(2, 5))
        h = random_connected_graph(rng, rng.randint(2, 5))
        non_universal = [v for v in range(g.n) if not universal_vertices(g) >> v & 1]
        if not non_universal:
            continue
        tried += 1
        a_sets = list(_iter_minimal_total_dominating(h))
        a_set = rng.choice(a_sets)
        gv = rng.choice(non_universal)
        pv = disjunctive(g, h)
        prod = 0
        for b in iter_bits(a_set):
            prod |= 1 << pv.index(gv, b)
        assert is_minimal_dominating(pv.graph, prod)


def test_g5wd_on_the_exceptional_graphs():
    from domlab.catalog import special_graph
    from domlab.classify import pc_partition

    p10 = special_graph("P10")
    assert pc_partition(p10) is None  # exceptional: outside the pendant/5-cycle class
    assert check_instance("G5WD", p10).status == "holds"
    assert check_instance("G5WD", cycle_graph(7)).status == "holds"
    assert check_instance("G5WD", complete_graph(1)).status == "holds"
    h1 = special_graph("H1")
    assert pc_partition(h1) is not None
    assert check_instance("G5WD", h1).status == "holds"
    # girth 4 fails the hypothesis
    assert check_instance("G5WD", C4).status == "hypothesis-not-met"


def test_well_dominated_decider_matches_profile_on_products():
    from domlab.domination import domination_profile, is_well_dominated
    from domlab.enumeration import connected_graphs
    from domlab.products import cartesian

    factors = [g for n in (2, 3, 4) for g in connected_graphs(n)]
    for g in factors:
        for h in factors:
            p = cartesian(g, h).graph
            prof = domination_profile(p)
            assert is_well_dominated(p) == (prof.gamma == prof.upper_gamma)


def test_single_sweeps_small_orders():
    for tid, hi in [("P1", 7), ("CHAIN", 7), ("BC", 6), ("PX", 6),
                    ("PRISM", 6), ("LK2", 6), ("LK3", 6), ("L2P", 6),
                    ("LNE", 6), ("G5WD", 7), ("TF11", 7)]:
        spec = CorpusSpec(1, hi, triangle_free=(tid == "TF11"))
        report = verify_corpus(tid, spec)
        assert report.counterexample_count == 0, (tid, report.counterexamples)
        assert report.scanned == report.holds + report.hypothesis_not_met


def test_pair_sweeps_small_orders():
    for tid in ["T1", "T2", "T3", "T4", "UB3", "WCFACTOR", "G4CART",
                "DK", "L3G", "TV", "DIND", "DTOT", "DNE", "DKN", "E1"]:
        tf = tid in ("T2", "G4CART")
        spec = CorpusSpec(2, 4, triangle_free=tf)
        report = verify_corpus(tid, PairCorpusSpec(spec, spec))
        assert report.counterexample_count == 0, (tid, report.counterexamples)
        assert report.scanned == report.holds + report.hypothesis_not_met


def test_e1_hypothesis_always_empty():
    spec = CorpusSpec(2, 4)
    report = verify_corpus("E1", PairCorpusSpec(spec, spec))
    # no disjunctive product of two non-complete connected factors is
    # well-dominated, so every instance must fail the hypothesis
    assert report.holds == 0
    assert report.hypothesis_not_met == report.scanned > 0


def test_lk2_converse_on_coronas(rng):
    from domlab.domination import is_well_dominated
    from domlab.products import direct

    for _ in range(10):
        h = random_connected_graph(rng, rng.randint(1, 4))
        g = corona(h)
        if g.n * 2 > 62:
            continue
        assert is_well_dominated(direct(g, K2).graph)


def test_wd_witness_sets_are_minimal_not_minimum():
    from domlab.domination import domination_number
    from domlab.theorems import _wd_witness

    # Not well-covered, so the certificate is two maximal independent sets;
    # the smaller one has 6 members while gamma is 5.
    g = Graph(9, [(0, 1), (1, 6), (2, 8), (7, 8)])
    witness = _wd_witness(g)
    small, large = witness["minimal_dom_small"], witness["minimal_dom_large"]
    assert is_minimal_dominating(g, mask_of(small))
    assert is_minimal_dominating(g, mask_of(large))
    assert len(small) != len(large)
    assert domination_number(g) < len(small)
