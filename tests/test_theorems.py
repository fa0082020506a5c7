import dataclasses
import functools
import hashlib
import json
import random

import pytest

from domlab.catalog import complete_graph, corona, cycle_graph, path_graph
from domlab.domination import (
    _iter_maximal_independent,
    _iter_minimal_total_dominating,
    is_minimal_dominating,
    is_maximal_independent,
    is_well_covered,
)
from domlab.classify import universal_vertices
from domlab.enumeration import all_graphs
from domlab.graph6 import to_graph6
from domlab.graphs import Graph, is_connected, iter_bits, mask_of
from domlab import enumeration, theorems
from domlab.products import cartesian, direct, disjunctive
from domlab.theorems import THEOREMS, Verdict, check_instance
from domlab.verify import DEFAULT_CORPORA, CorpusSpec, PairCorpusSpec, _instances, verify_corpus

import bruteforce
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


def test_p1_reports_a_certificate_that_is_not_minimal_dominating(monkeypatch):
    # The empty set and the whole vertex set differ in size, but neither is
    # a minimal dominating set of P4.
    monkeypatch.setattr(theorems, "well_covered_certificate",
                        lambda g: (0, g.full_mask))
    verdict = check_instance("P1", P4)
    assert verdict.status == "counterexample"
    assert verdict.witness == {"mis_small": [], "mis_large": [0, 1, 2, 3]}


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

    # The double star: not well-covered, so the certificate is the greedy
    # pair {2, 3, 5} and {0, 1, 2, 3}, while gamma is 2 ({4, 5}).
    g = Graph(6, [(0, 5), (1, 5), (2, 4), (3, 4), (4, 5)])
    verdict = theorems._wd_iff(g, True, "lhs only", "rhs only")
    assert verdict.status == "counterexample" and verdict.clause == "rhs only"
    witness = verdict.witness
    small, large = witness["minimal_dom_small"], witness["minimal_dom_large"]
    assert is_minimal_dominating(g, mask_of(small))
    assert is_minimal_dominating(g, mask_of(large))
    assert len(small) != len(large)
    assert domination_number(g) < len(small)


# Each product biconditional: the product it decides, and patches on
# ``theorems`` that make its right-hand side true on every instance.
WD_IFF = {
    "T2": (lambda g, h: cartesian(g, h).graph, {"are_isomorphic": lambda a, b: True}),
    "T3": (lambda g, h: direct(g, h).graph, {"are_isomorphic": lambda a, b: True}),
    "T4": (lambda g, h: disjunctive(g, h).graph,
           {"is_complete": lambda x: True, "is_well_dominated": lambda x: True,
            "domination_number": lambda x: 0}),
    "LK2": (lambda g: direct(g, K2).graph, {"are_isomorphic": lambda a, b: True}),
    "DKN": (lambda g, h: disjunctive(g, h).graph,
            {"is_well_dominated": lambda x: True, "domination_number": lambda x: 0}),
}


@pytest.mark.parametrize("tid", sorted(WD_IFF))
def test_product_biconditional_witness_per_direction(monkeypatch, tid):
    build, rhs_true = WD_IFF[tid]
    corpus = CorpusSpec(2, 6) if tid == "LK2" else DEFAULT_CORPORA[tid]
    instances = [x for x in _instances(tid, corpus, None) if THEOREMS[tid].hypothesis(x)]

    # Right-only: with the shape forced, every product that is not
    # well-dominated fails with two minimal dominating sets of it.
    with monkeypatch.context() as m:
        for name, fake in rhs_true.items():
            m.setattr(theorems, name, fake)
        right = [(x, v) for x in instances
                 if (v := check_instance(tid, x)).status == "counterexample"]
    assert right
    for x, v in right:
        p = build(*x) if isinstance(x, tuple) else build(x)
        assert v.witness.keys() == {"minimal_dom_small", "minimal_dom_large"}
        small, large = v.witness["minimal_dom_small"], v.witness["minimal_dom_large"]
        assert is_minimal_dominating(p, mask_of(small))
        assert is_minimal_dominating(p, mask_of(large))
        assert len(small) < len(large)

    # Left-only: with every product read as well-dominated, an instance of
    # the wrong shape fails with no witness.
    monkeypatch.setattr(theorems, "well_dominated_certificate", lambda p: None)
    left = [v for x in instances if (v := check_instance(tid, x)).status == "counterexample"]
    assert left and all(v.witness == {} for v in left)
    assert len({v.clause for v in left}) == len({v.clause for _, v in right}) == 1
    assert left[0].clause != right[0][1].clause


def test_forced_wrong_shape_predicates_digest(monkeypatch):
    # The nine theorems that read the shape predicates, with each predicate
    # negated: every verdict, clause and witness is pinned by one digest.
    for name in ("are_isomorphic", "is_corona_of_connected", "is_complete"):
        real = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda *a, real=real: not real(*a))
    digest = hashlib.sha256()
    scanned = counterexamples = 0
    for tid in ("T2", "T3", "T4", "LK2", "PX", "PRISM", "LK3", "DKN", "TF11"):
        for x in _instances(tid, DEFAULT_CORPORA[tid], None):
            v = check_instance(tid, x)
            digest.update(json.dumps([tid, v.status, v.clause, v.witness]).encode())
            scanned += 1
            counterexamples += v.status == "counterexample"
    assert (scanned, counterexamples, digest.hexdigest()) == (
        49988, 24700, "24da16ba5da365fd8dc7053a5067423c0f6e65f603a0e2b7d5130a352d329d34")


def test_skipped_direct_products_are_not_well_covered():
    # Stronger than the rule of LK2, L2P and LK3 needs: every graph of order
    # <= 7, disconnected ones included, whose i and alpha differ has direct
    # products with K2 and K3 that are not even well-covered.
    bases = [g for n in range(1, 8) for g in all_graphs(n) if theorems._i_below_alpha(g)]
    assert len(bases) == 1015
    for g in bases:
        assert not any(is_well_covered(direct(g, k).graph) for k in (K2, K3)), to_graph6(g)


def rule_fires(graphs, pairs, tids=None) -> dict[str, int]:
    """How often each rule (``settled``) of the entries ``tids`` (default:
    all) fires on ``graphs``, or on ``pairs`` for a pair entry; wherever one
    fires, the full conclusion must read HOLDS."""
    out = {}
    for tid, entry in THEOREMS.items():
        if entry.settled is not None and (tids is None or tid in tids):
            xs = [x for x in (pairs if entry.arity == 2 else graphs) if entry.settled(x)]
            assert [x for x in xs if entry.conclusion(x) != theorems.HOLDS] == [], tid
            out[tid] = len(xs)
    return out


RULE_FIRES = {"T4": 2020, "PRISM": 863, "LK2": 1015, "L2P": 1015, "LK3": 1015, "DNE": 2342}


def fresh_rule_fires(tids) -> dict[str, int]:
    """``rule_fires`` on graphs of order <= 7 and ordered pairs of graphs of
    order <= 5, disconnected ones included, hypothesis or not, fresh copies so
    that no kept fact answers."""
    graphs = [Graph._raw(g.n, g.adj) for n in range(1, 8) for g in all_graphs(n)]
    small = [g for g in graphs if g.n <= 5]
    return rule_fires(graphs, [(g, h) for g in small for h in small], tids)


def assert_rules_sound(monkeypatch, tids):
    """The rules of ``tids`` fire their pinned number of times, only where the
    conclusion holds, by the kernel and then with the deciders on ``theorems``
    swapped for the subset oracle on products of order <= 12; returns the
    oracle, whose cache holds the products it decided."""
    fires = {tid: RULE_FIRES[tid] for tid in tids}
    assert fresh_rule_fires(tids) == fires
    kernel = theorems.well_dominated_certificate
    oracle = functools.cache(bruteforce.well_dominated_certificate)
    monkeypatch.setattr(theorems, "well_dominated_certificate",
                        lambda p: oracle(p) if p.n <= 12 else kernel(p))
    monkeypatch.setattr(theorems, "is_well_dominated",
                        lambda p: theorems.well_dominated_certificate(p) is None)
    assert fresh_rule_fires(tids) == fires
    return oracle


def test_rules_fire_only_where_the_conclusion_holds(monkeypatch):
    # The entries with a rule are pinned; LK2's, L2P's and LK3's rules are
    # checked here, PRISM's and the disjunctive one's by the two tests below.
    assert {tid for tid, e in THEOREMS.items() if e.settled is not None} == set(RULE_FIRES)
    oracle = assert_rules_sound(monkeypatch, ("LK2", "L2P", "LK3"))
    assert oracle.cache_info().currsize == 140  # products the oracle decided


def test_skipped_prisms_are_not_well_dominated(monkeypatch):
    oracle = assert_rules_sound(monkeypatch, ("PRISM",))
    assert oracle.cache_info().currsize == 105


def test_skipped_disjunctive_products_are_not_well_dominated(monkeypatch):
    # Then with every factor read as well-covered: the disjunctive rule's
    # total half alone, which the first passes only see on well-covered pairs.
    oracle = assert_rules_sound(monkeypatch, ("T4", "DNE"))
    monkeypatch.setattr(theorems, "is_well_covered", lambda g: True)
    assert fresh_rule_fires(("T4", "DNE")) == {"T4": 1865, "DNE": 2065}
    assert oracle.cache_info().currsize == 227


def rule_builds(monkeypatch, tids) -> tuple[dict[str, int], dict[str, int]]:
    """The products each sweep of ``tids`` builds (single-graph entries over
    connected graphs of orders 2..7), on fresh corpora so that no kept fact
    carries over: as is, then with every rule dropped and every factor read as
    well-covered, which must report alike."""
    built = []
    for name in ("cartesian", "direct", "disjunctive"):
        real = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda g, h, real=real: built.append(h) or real(g, h))

    def reports():
        monkeypatch.setattr(enumeration, "_all_cache", {})
        monkeypatch.setattr(enumeration, "_connected_cache", {})
        out, counts = {}, {}
        for tid in tids:
            report = verify_corpus(tid, CorpusSpec(2, 7) if THEOREMS[tid].arity == 1 else None)
            out[tid] = {**report.to_dict(), "elapsed_ms": None}
            counts[tid] = len(built)
            built.clear()
        return out, counts

    ruled, ruled_built = reports()
    for tid in tids:
        monkeypatch.setitem(THEOREMS, tid, dataclasses.replace(THEOREMS[tid], settled=None))
    monkeypatch.setattr(theorems, "is_well_covered", lambda g: True)
    every, every_built = reports()
    assert every == ruled
    return ruled_built, every_built


def test_shortcut_changes_no_verdict(monkeypatch):
    assert rule_builds(monkeypatch, ("LK2", "L2P", "LK3")) == (
        dict(LK2=146, L2P=146, LK3=0), dict(LK2=995, L2P=995, LK3=0))


def test_prism_rule_changes_no_verdict(monkeypatch):
    assert rule_builds(monkeypatch, ("PRISM",)) == (dict(PRISM=205), dict(PRISM=995))


def test_disjunctive_rule_changes_no_verdict(monkeypatch):
    # E1 has no rule, but its hypothesis reads kept is_well_covered first.
    assert rule_builds(monkeypatch, ("T4", "DNE", "E1")) == (
        dict(T4=24, DNE=0, E1=3), dict(T4=45, DNE=36, E1=21))


def test_orbit_rule_changes_no_verdict(monkeypatch):
    # The default sweeps of DTOT and DIND, with a wrong answer that respects
    # automorphisms (False for the sets of one size on products of one
    # order), give the same reports, every certificate included, with one
    # factor set per orbit and with every set (no generators); fresh corpora
    # each time, so that no kept fact carries over.
    checks = []
    for name, wrong in (("is_minimal_dominating", (12, 2)), ("is_maximal_independent", (16, 4))):
        real = getattr(theorems, name)
        monkeypatch.setattr(theorems, name, lambda p, s, real=real, wrong=wrong: checks.append(p)
                            or (p.n, s.bit_count()) != wrong and real(p, s))

    def reports():
        monkeypatch.setattr(enumeration, "_all_cache", {})
        monkeypatch.setattr(enumeration, "_connected_cache", {})
        out, counts = {}, []
        for tid in ("DTOT", "DIND"):
            out[tid] = verify_corpus(tid, cap=10**6).to_dict()
            out[tid].pop("elapsed_ms")
            counts.append(len(checks))
            checks.clear()
        return out, counts

    pruned, pruned_checks = reports()
    monkeypatch.setattr(theorems, "canonical_labeling", lambda g: (list(range(g.n)), []))
    full, full_checks = reports()
    assert full == pruned
    assert [r["counterexample_count"] for r in full.values()] == [22, 16]
    assert (pruned_checks, full_checks) == ([99, 95], [454, 262])


def swap_mismatches(max_order: int, cap: int) -> dict[str, list]:
    """For each pair theorem, the ordered pairs (g, h) of graphs of order at
    most ``max_order``, disconnected ones included, with product order at most
    ``cap``, whose status differs from that of (h, g); each pair is checked
    on its own by ``check_instance``, outside any sweep."""
    graphs = [g for n in range(1, max_order + 1) for g in all_graphs(n)]
    pairs = [(a, b) for a, g in enumerate(graphs) for b, h in enumerate(graphs)
             if g.n * h.n <= cap]
    out = {}
    for tid, entry in THEOREMS.items():
        if entry.arity == 2:
            status = {(a, b): check_instance(tid, (graphs[a], graphs[b])).status
                      for a, b in pairs}
            out[tid] = [(graphs[a], graphs[b]) for a, b in pairs if status[a, b] != status[b, a]]
    return out


def test_swap_invariant_flags_match_the_statuses():
    # all 52 graphs of order <= 5, 2,704 ordered pairs: a flagged theorem never
    # tells (g, h) from (h, g), and an unflagged one does somewhere
    mismatches = swap_mismatches(5, 25)
    for tid, found in mismatches.items():
        assert THEOREMS[tid].swap_invariant == (not found), (tid, len(found))
    assert {tid: len(found) for tid, found in mismatches.items() if found} == {
        "DK": 288, "DKN": 384, "DNE": 156}
    assert all(not (is_connected(g) and is_connected(h)) for g, h in mismatches["DNE"])


# -- factor-first conclusions against the product-first formulas ---------------


def _product_first_t1(g, h):
    t = theorems
    p = t.cartesian(g, h).graph
    if t.is_well_dominated(p) and not (t.is_well_dominated(g) or t.is_well_dominated(h)):
        wg = t.well_dominated_certificate(g)
        wh = t.well_dominated_certificate(h)
        return t._fail("product well-dominated but neither factor is",
                       g_small=wg[0], g_large=wg[1], h_small=wh[0], h_large=wh[1])
    return t.HOLDS


def _product_first_wcfactor(g, h):
    t = theorems
    p = t.cartesian(g, h).graph
    if t.is_well_covered(p) and not (t.is_well_covered(g) or t.is_well_covered(h)):
        return t._fail("product well-covered but neither factor is")
    return t.HOLDS


def _product_first_g4cart(g, h):
    t = theorems
    p = t.cartesian(g, h).graph
    if t.is_well_covered(p) and not (t.are_isomorphic(g, K2) or t.are_isomorphic(h, K2)):
        return t._fail("triangle-free product well-covered with no K2 factor")
    return t.HOLDS


def _product_first_dk(g, h):
    t = theorems
    p = t.direct(g, h).graph
    if t.is_well_covered(p) and not t.is_complete(h):
        return t._fail("well-covered direct product whose isolatable-free factor "
                       "is not complete")
    return t.HOLDS


def _product_first_l3g(g, h):
    t = theorems
    p = t.direct(g, h).graph
    if not t.is_well_dominated(p):
        return t.HOLDS
    if 3 * t.domination_number(g) < g.n or 3 * t.domination_number(h) < h.n:
        return Verdict("counterexample",
                       "well-dominated direct product with a factor of gamma < n/3",
                       {"gammas": [t.domination_number(g), t.domination_number(h)],
                        "orders": [g.n, h.n]})
    return t.HOLDS


def _product_first_tv(g, h):
    t = theorems
    p = t.direct(g, h).graph
    if not t.is_well_covered(p):
        return t.HOLDS
    if not (t.is_well_covered(g) and t.is_well_covered(h)):
        return t._fail("well-covered direct product with a factor that is not well-covered")
    if t.independence_number(g) * h.n != t.independence_number(h) * g.n:
        return Verdict("counterexample", "alpha(G)|V(H)| != alpha(H)|V(G)|",
                       {"alphas": [t.independence_number(g), t.independence_number(h)],
                        "orders": [g.n, h.n]})
    return t.HOLDS


PRODUCT_FIRST = {
    "T1": _product_first_t1,
    "WCFACTOR": _product_first_wcfactor,
    "G4CART": _product_first_g4cart,
    "DK": _product_first_dk,
    "L3G": _product_first_l3g,
    "TV": _product_first_tv,
}


@pytest.mark.parametrize("wrong", [True, False])
@pytest.mark.parametrize("tid", sorted(PRODUCT_FIRST))
def test_factor_first_matches_product_first(monkeypatch, tid, wrong):
    # Products (order > 6 here; factors have order <= 5) get a wrong verdict,
    # factors the true one, so the product branch shows in the counterexamples.
    for name in ("is_well_dominated", "is_well_covered"):
        real = getattr(theorems, name)
        monkeypatch.setattr(theorems, name,
                            lambda x, real=real: wrong if x.n > 6 else real(x))
    counterexamples = 0
    for pair in _instances(tid, DEFAULT_CORPORA[tid], None):
        want = (PRODUCT_FIRST[tid](*pair) if THEOREMS[tid].hypothesis(pair)
                else theorems.HYP_NOT_MET)
        got = check_instance(tid, pair)
        assert got == want, (tid, pair)
        counterexamples += got.status == "counterexample"
    assert counterexamples > 0 if wrong else counterexamples == 0


def test_ub3_falls_back_to_exact_gamma(monkeypatch):
    real_gamma = theorems.domination_number
    decided = set()

    def spy(x):
        decided.add(x)
        return real_gamma(x)

    monkeypatch.setattr(theorems, "_greedy_cover", lambda x: x.full_mask)
    monkeypatch.setattr(theorems, "domination_number", spy)
    fallbacks = 0
    for g, h in _instances("UB3", DEFAULT_CORPORA["UB3"], None):
        assert check_instance("UB3", (g, h)) == theorems.HOLDS
        p = direct(g, h).graph
        if p.n > 3 * real_gamma(g) * real_gamma(h):
            assert p in decided, (g, h)
            fallbacks += 1
    assert fallbacks > 0

    p = direct(P4, C4).graph  # bound 3 * 2 * 2, and 16 vertices
    monkeypatch.setattr(theorems, "domination_number",
                        lambda x: 13 if x == p else real_gamma(x))
    assert check_instance("UB3", (P4, C4)) == Verdict(
        "counterexample", "gamma of the direct product exceeds 3*gamma*gamma",
        {"gamma_product": 13, "bound": 12})
