import hashlib

import pytest

from domlab.catalog import (
    complete_graph,
    corona,
    cycle_graph,
    path_graph,
    triangle_free_well_dominated_catalog,
)
from domlab.domination import (
    _iter_maximal_independent,
    _iter_minimal_dominating,
    domination_number,
    domination_profile,
    greedy_maximal_independent,
    greedy_minimal_dominating,
    independence_number,
    is_dominating,
    is_minimal_dominating,
    is_open_irredundant,
    is_two_packing,
    is_well_covered,
    is_well_dominated,
    isolatable_vertices,
    maximal_independent_sets,
    minimal_dominating_sets,
    minimum_dominating_set,
    open_irredundant_minimum_dominating,
    private_neighbors,
    total_domination_numbers,
)
from domlab.enumeration import all_graphs, connected_graphs
from domlab.graphs import Graph, iter_bits, mask_of, set_of
from domlab.products import PRODUCT_KINDS, product

import bruteforce
from conftest import random_connected_graph, random_graph

P4 = path_graph(4)
C4 = cycle_graph(4)
C5 = cycle_graph(5)
C7 = cycle_graph(7)
K2 = complete_graph(2)
K3 = complete_graph(3)


def test_is_dominating_examples():
    assert is_dominating(P4, mask_of([1, 2]))
    assert not is_dominating(P4, mask_of([0]))
    assert not is_dominating(C7, mask_of([0, 3]))  # vertex 5 uncovered


def test_private_neighbors_examples():
    assert private_neighbors(P4, 0, mask_of([0, 3])) == mask_of([0, 1])
    assert private_neighbors(K3, 0, mask_of([0])) == mask_of([0, 1, 2])
    assert private_neighbors(C4, 0, mask_of([0, 2])) == mask_of([0])
    with pytest.raises(ValueError):
        private_neighbors(P4, 1, mask_of([0, 3]))


def test_is_minimal_dominating_examples():
    assert is_minimal_dominating(P4, mask_of([1, 2]))
    assert not is_minimal_dominating(P4, mask_of([0, 1, 2]))
    for n in range(1, 6):
        kn = complete_graph(n)
        for v in range(n):
            assert is_minimal_dominating(kn, 1 << v)


def test_minimal_dominating_enumeration_examples():
    assert [set_of(s) for s in minimal_dominating_sets(P4)] == [
        (0, 2), (0, 3), (1, 2), (1, 3),
    ]
    assert sorted(set_of(s) for s in minimal_dominating_sets(C5)) == [
        (0, 2), (0, 3), (1, 3), (1, 4), (2, 4),
    ]
    for n in range(1, 6):
        assert [set_of(s) for s in minimal_dominating_sets(complete_graph(n))] == [
            (v,) for v in range(n)
        ]


def test_maximal_independent_enumeration_examples():
    assert sorted(set_of(s) for s in maximal_independent_sets(P4)) == [
        (0, 2), (0, 3), (1, 3),
    ]
    assert sorted(set_of(s) for s in maximal_independent_sets(C4)) == [(0, 2), (1, 3)]
    for n in range(2, 6):
        assert [set_of(s) for s in maximal_independent_sets(complete_graph(n))] == [
            (v,) for v in range(n)
        ]


def test_streams_match_bruteforce_and_lex_order():
    for n in range(1, 7):
        for g in all_graphs(n):
            mds = sorted(_iter_minimal_dominating(g), key=set_of)
            assert [set_of(s) for s in mds] == sorted(
                set_of(s) for s in bruteforce.all_minimal_dominating(g)
            )
            assert list(minimal_dominating_sets(g)) == mds
            mis = sorted(_iter_maximal_independent(g), key=set_of)
            assert [set_of(s) for s in mis] == sorted(
                set_of(s) for s in bruteforce.all_maximal_independent(g)
            )
            # every maximal independent set is a minimal dominating set
            for s in mis:
                assert is_minimal_dominating(g, s)


def test_maximal_independent_stream_order_is_pinned():
    # The raw branching order of the kernel under the closed-neighborhood
    # lock (lowest-index undominated vertex first), not only its set: the
    # L2P and DIND witnesses follow it.  The digest covers every graph of
    # order <= 7 and the three products of each order-3 graph with K2 and
    # with K3, one line of masks per graph.
    graphs = [g for n in range(1, 8) for g in all_graphs(n)]
    graphs += [product(kind, g, h).graph
               for kind in PRODUCT_KINDS for g in all_graphs(3) for h in (K2, K3)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update((",".join(map(str, _iter_maximal_independent(g))) + "\n").encode())
    assert len(graphs) == 1276
    assert digest.hexdigest() == (
        "e9fdbea032b2d1a814e63e9469690382b1a98e4fbaf0990e43a1c2193d8e06ca")


def test_solvers_match_oracle_small_random(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        gamma, upper, ind, alpha = bruteforce.profile_numbers(g)
        prof = domination_profile(g)
        assert (prof.gamma, prof.upper_gamma, prof.ind_dom, prof.alpha) == (
            gamma, upper, ind, alpha,
        )
        assert is_dominating(g, prof.witness_min_dom)
        assert prof.witness_min_dom.bit_count() == gamma
        assert prof.witness_max_ind.bit_count() == alpha


def test_product_verdicts_match_oracle():
    # The pair sweeps settle most T1 and UB3 instances without deciding the
    # product, so the deciders are checked on products here directly.
    factors = [g for n in range(2, 6) for g in connected_graphs(n)]
    checked = 0
    for kind in PRODUCT_KINDS:
        for g in factors:
            for h in factors:
                if g.n * h.n > 10:
                    continue
                p = product(kind, g, h).graph
                gamma, upper, ind, alpha = bruteforce.profile_numbers(p)
                assert domination_number(p) == gamma, (kind, g, h)
                assert is_well_dominated(p) == (gamma == upper), (kind, g, h)
                assert is_well_covered(p) == (ind == alpha), (kind, g, h)
                checked += 1
    assert checked == 189


def test_total_domination_examples_and_oracle(rng):
    assert total_domination_numbers(complete_graph(2)) == (2, 2)
    assert total_domination_numbers(C4) == (2, 2)
    assert total_domination_numbers(P4) == (2, 2)
    with pytest.raises(ValueError):
        total_domination_numbers(Graph(3, [(0, 1)]))
    for _ in range(100):
        g = random_graph(rng, rng.randint(2, 7), 0.6)
        if any(g.degree(v) == 0 for v in range(g.n)):
            continue
        assert total_domination_numbers(g) == bruteforce.total_numbers(g)


def test_profile_of_k1():
    prof = domination_profile(complete_graph(1))
    assert (prof.gamma, prof.upper_gamma, prof.ind_dom, prof.alpha) == (1, 1, 1, 1)
    assert prof.well_dominated and prof.well_covered
    assert prof.gamma_t is None and prof.upper_gamma_t is None


def test_profile_invariants_on_connected_corpus():
    for n in range(1, 7):
        for g in connected_graphs(n):
            prof = domination_profile(g)
            assert prof.gamma <= prof.ind_dom <= prof.alpha <= prof.upper_gamma
            assert prof.well_dominated == (prof.gamma == prof.upper_gamma)
            assert prof.well_covered == (prof.ind_dom == prof.alpha)
            if n >= 2:
                assert prof.gamma_t is not None
                assert prof.gamma_t <= prof.upper_gamma_t
                assert prof.gamma_t <= 2 * prof.gamma
            else:
                assert prof.gamma_t is None


def test_greedy_examples():
    assert greedy_minimal_dominating(C4, [0, 1, 2, 3]) == mask_of([2, 3])
    assert greedy_minimal_dominating(K3, [0, 1, 2]) == mask_of([2])
    assert greedy_minimal_dominating(path_graph(3), [0, 1, 2]) == mask_of([1])
    assert greedy_maximal_independent(P4, [0, 1, 2, 3]) == mask_of([0, 2])
    assert greedy_maximal_independent(C5, [0, 1, 2, 3, 4]) == mask_of([0, 2])
    for n in range(1, 5):
        assert greedy_maximal_independent(complete_graph(n), range(n)) == 1
    with pytest.raises(ValueError):
        greedy_minimal_dominating(P4, [0, 1, 2])
    with pytest.raises(ValueError):
        greedy_maximal_independent(P4, [0, 1, 2, 2])


def test_greedy_matches_literal_simulation(rng):
    for _ in range(150):
        g = random_graph(rng, rng.randint(1, 8), rng.random())
        order = list(range(g.n))
        rng.shuffle(order)
        assert greedy_minimal_dominating(g, order) == bruteforce.greedy_drop_simulation(g, order)


def test_greedy_size_constant_on_well_dominated_catalog(rng):
    for tag, g in triangle_free_well_dominated_catalog().items():
        gamma = domination_number(g)
        for _ in range(100):
            order = list(range(g.n))
            rng.shuffle(order)
            d = greedy_minimal_dominating(g, order)
            assert is_minimal_dominating(g, d), tag
            assert d.bit_count() == gamma, tag


def test_open_irredundance_examples():
    assert is_open_irredundant(P4, mask_of([1, 2]))
    assert is_open_irredundant(K3, mask_of([0]))
    assert not is_open_irredundant(path_graph(3), mask_of([0, 2]))


def test_open_irredundant_minimum_dominating_examples():
    for g in (complete_graph(2), P4, C4):
        s = open_irredundant_minimum_dominating(g)
        assert s is not None
        assert s.bit_count() == domination_number(g)
        assert is_dominating(g, s) and is_open_irredundant(g, s)
    with pytest.raises(ValueError):
        open_irredundant_minimum_dominating(Graph(2))


def test_two_packing_examples():
    assert is_two_packing(C7, mask_of([0, 3]))
    assert not is_two_packing(C7, mask_of([0, 2]))
    for v in range(5):
        assert is_two_packing(C5, 1 << v)


def test_isolatable_examples_and_oracle(rng):
    for n in range(2, 6):
        assert isolatable_vertices(complete_graph(n)) == 0
    assert isolatable_vertices(C4) == C4.full_mask
    assert isolatable_vertices(P4) == mask_of([0, 3])
    assert isolatable_vertices(complete_graph(1)) == 1  # isolated, I = empty set
    for _ in range(120):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        assert isolatable_vertices(g) == bruteforce.isolatable(g)


def test_corona_well_dominated(rng):
    for _ in range(50):
        h = random_connected_graph(rng, rng.randint(1, 6))
        g = corona(h)
        assert is_well_dominated(g)
        assert domination_number(g) == h.n


def test_well_dominated_paths_and_cycles():
    wd_paths = [n for n in range(1, 11) if is_well_dominated(path_graph(n))]
    wd_cycles = [n for n in range(3, 13) if is_well_dominated(cycle_graph(n))]
    assert wd_paths == [1, 2, 4]
    assert wd_cycles == [3, 4, 5, 7]


def test_early_exit_stream_supports_partial_consumption():
    g = cycle_graph(9)
    stream = _iter_minimal_dominating(g)
    first = next(stream)
    assert is_minimal_dominating(g, first)
    stream.close()  # no exhaustion required


def test_private_neighbor_clique_in_well_covered():
    # In a well-covered graph, private neighborhoods of maximal independent
    # set members induce cliques.
    from domlab.domination import is_well_covered

    for n in range(1, 7):
        for g in connected_graphs(n):
            if not is_well_covered(g):
                continue
            for i_set in maximal_independent_sets(g):
                for x in iter_bits(i_set):
                    pn = private_neighbors(g, x, i_set)
                    members = set_of(pn)
                    for a_idx, a in enumerate(members):
                        for b in members[a_idx + 1:]:
                            assert g.has_edge(a, b)
