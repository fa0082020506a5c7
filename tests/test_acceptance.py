"""Acceptance suite: one test per criterion, exact expectations, no
tolerances.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
PASS line per criterion."""

import random

import pytest

from domlab.catalog import (
    complete_graph,
    corona,
    cycle_graph,
    path_graph,
    special_graph,
    triangle_free_well_dominated_catalog,
)
from domlab.classify import NOT_MEMBER, classify_small_triangle_free
from domlab.domination import (
    domination_number,
    domination_profile,
    greedy_minimal_dominating,
    is_dominating,
    is_minimal_dominating,
    is_open_irredundant,
    is_well_covered,
    is_well_dominated,
    maximal_independent_sets,
    open_irredundant_minimum_dominating,
    private_neighbors,
)
from domlab.enumeration import all_graphs, connected_graphs
from domlab.graphs import girth, is_connected, iter_bits, set_of
from domlab.isomorphism import are_isomorphic, canonical_key
from domlab.products import PRODUCT_KINDS, cartesian, direct, product
from domlab.verify import CorpusSpec, PairCorpusSpec, verify_corpus

import bruteforce
from conftest import random_graph

SEED = 987654321


def _passed(k: int, text: str) -> None:
    print(f"\nACCEPTANCE {k} PASS: {text}")


def test_acceptance_1_tf11_sweep():
    report = verify_corpus("TF11", CorpusSpec(1, 8, triangle_free=True))
    assert report.counterexample_count == 0, report.counterexamples
    assert report.details["members"] == 11
    tags = sorted(["K1", "K2", "P4", "C4", "C5", "C7", "P3-corona",
                   "H1", "H2", "H3", "H4"])
    assert report.details["member_tags"] == tags
    # the members are isomorphic to the catalog graphs, one class each
    catalog_keys = {canonical_key(g): t
                    for t, g in triangle_free_well_dominated_catalog().items()}
    found = {}
    for n in range(1, 9):
        for g in connected_graphs(n, triangle_free=True):
            if is_well_dominated(g) and domination_number(g) <= 3:
                found[canonical_key(g)] = n
    assert set(found) == set(catalog_keys)
    _passed(1, "exactly the eleven connected triangle-free well-dominated "
               "graphs with gamma <= 3 on orders <= 8")


def test_acceptance_2_lne_sweep():
    assert len(connected_graphs(8)) == 11117
    report = verify_corpus("LNE", CorpusSpec(1, 8))
    assert report.scanned == 12113
    assert report.counterexample_count == 0, report.counterexamples
    assert report.hypothesis_not_met == 0
    _passed(2, "no connected graph of order <= 8 has 2 <= alpha = gamma "
               "with gamma_t = 2 gamma")


def test_acceptance_3_t2_cartesian_sweep():
    report = verify_corpus("T2")
    assert report.counterexample_count == 0, report.counterexamples
    factors = [g for n in range(2, 6)
               for g in connected_graphs(n, triangle_free=True)]
    k2 = complete_graph(2)
    winners = [
        (g, h)
        for g in factors
        for h in factors
        if g.n * h.n <= 25 and is_well_dominated(cartesian(g, h).graph)
    ]
    assert len(winners) == 1
    g, h = winners[0]
    assert are_isomorphic(g, k2) and are_isomorphic(h, k2)
    assert are_isomorphic(cartesian(g, h).graph, cycle_graph(4))
    _passed(3, "K2 box K2 is the only well-dominated Cartesian product of "
               "connected triangle-free factors of orders 2..5, and it is C4")


def test_acceptance_4_t3_direct_sweep():
    report = verify_corpus("T3")
    assert report.counterexample_count == 0, report.counterexamples
    from domlab.domination import has_isolatable_vertex

    factors = [g for n in range(2, 6) for g in connected_graphs(n)]
    winners = set()
    for g in factors:
        for h in factors:
            if g.n * h.n > 25:
                continue
            if has_isolatable_vertex(g) and has_isolatable_vertex(h):
                continue
            if is_well_dominated(direct(g, h).graph):
                winners.add(frozenset((canonical_key(g), canonical_key(h))))
    expect = {
        frozenset((canonical_key(complete_graph(2)), canonical_key(complete_graph(2)))),
        frozenset((canonical_key(complete_graph(2)), canonical_key(path_graph(4)))),
        frozenset((canonical_key(complete_graph(2)), canonical_key(cycle_graph(4)))),
        frozenset((canonical_key(complete_graph(3)), canonical_key(complete_graph(3)))),
    }
    assert winners == expect
    _passed(4, "well-dominated direct products with an isolatable-free factor "
               "are exactly K2xK2, K2xP4, K2xC4, K3xK3 (factors of orders 2..5)")


def test_acceptance_5_t4_disjunctive_sweep():
    report = verify_corpus("T4")
    assert report.counterexample_count == 0, report.counterexamples
    assert report.hypothesis_not_met == 0
    assert report.scanned == 81  # ordered pairs of the 9 connected graphs 2..4
    _passed(5, "disjunctive products of factors of orders 2..4 are "
               "well-dominated exactly when a complete factor pairs with a "
               "well-dominated mate of gamma <= 2, both directions")


def test_acceptance_6_px_sweep():
    report = verify_corpus("PX", CorpusSpec(2, 8))
    assert report.scanned == 12112
    assert report.counterexample_count == 0, report.counterexamples
    _passed(6, "gamma = n/2 holds exactly for C4 and coronas of connected "
               "graphs, over all connected graphs of orders 2..8")


def test_acceptance_7_special_graph_records():
    p10 = special_graph("P10")
    prof = domination_profile(p10)
    assert p10.n == 10 and girth(p10) == 5
    assert prof.gamma == 4 and prof.well_covered and prof.well_dominated
    for name in ("H1", "H2", "H3", "H4"):
        h = special_graph(name)
        prof = domination_profile(h)
        assert girth(h) >= 4
        assert prof.gamma == 3 and prof.well_dominated, name
    _passed(7, "catalog graphs match their structure records (P10: order 10, "
               "girth 5, gamma 4, well-covered and well-dominated; H1..H4: "
               "girth >= 4, gamma 3, well-dominated)")


def test_acceptance_8_property_suites():
    rng = random.Random(SEED)
    # chain, well-dominated => well-covered, clique private neighborhoods,
    # greedy minimality: 1000 random graphs of order <= 10
    for _ in range(1000):
        g = random_graph(rng, rng.randint(1, 10), rng.random())
        prof = domination_profile(g)
        assert prof.gamma <= prof.ind_dom <= prof.alpha <= prof.upper_gamma
        if prof.well_dominated:
            assert prof.well_covered
        if prof.well_covered:
            for i_set in maximal_independent_sets(g):
                for x in iter_bits(i_set):
                    members = set_of(private_neighbors(g, x, i_set))
                    for a_idx, a in enumerate(members):
                        for b in members[a_idx + 1:]:
                            assert g.has_edge(a, b)
        for _ in range(3):
            order = list(range(g.n))
            rng.shuffle(order)
            d = greedy_minimal_dominating(g, order)
            assert is_minimal_dominating(g, d)
    # greedy hits gamma on every well-dominated catalog graph, 100 orderings
    for tag, g in triangle_free_well_dominated_catalog().items():
        gamma = domination_number(g)
        for _ in range(100):
            order = list(range(g.n))
            rng.shuffle(order)
            assert greedy_minimal_dominating(g, order).bit_count() == gamma, tag
    # an open irredundant minimum dominating set exists for all connected
    # graphs of order <= 7 (beyond K1, which has an isolated vertex)
    for n in range(2, 8):
        for g in connected_graphs(n):
            s = open_irredundant_minimum_dominating(g)
            assert s is not None
            assert s.bit_count() == domination_number(g)
            assert is_dominating(g, s) and is_open_irredundant(g, s)
    # solver values equal the full 2^n-subset oracle on all graphs of order <= 7
    for n in range(1, 8):
        for g in all_graphs(n):
            prof = domination_profile(g)
            assert (prof.gamma, prof.upper_gamma, prof.ind_dom, prof.alpha) == \
                bruteforce.profile_numbers(g)
    _passed(8, "chain inequality, well-dominated => well-covered, clique "
               "private neighborhoods, greedy minimality (1000 random graphs), "
               "greedy size = gamma on the catalog (100 orderings each), open "
               "irredundant witnesses <= 7, solver = subset oracle <= 7")


def test_acceptance_9_product_formula_suite():
    rng = random.Random(SEED + 9)
    checked_bound = 0
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        h = random_graph(rng, rng.randint(1, 7), rng.random())
        if g.n * h.n > 62:
            continue
        for kind in PRODUCT_KINDS:
            p = product(kind, g, h)
            assert p.graph.edge_count == bruteforce.expected_edge_count(kind, g, h)
        if all(g.degree(v) for v in range(g.n)) and all(h.degree(v) for v in range(h.n)):
            got = domination_number(direct(g, h).graph)
            assert got <= 3 * domination_number(g) * domination_number(h)
            checked_bound += 1
    assert checked_bound >= 40
    _passed(9, "edge-count identities exact for all three products on 200 "
               "random pairs; direct-product domination bound holds on all "
               "isolate-free pairs")
