"""Property tests: the domination branching kernel (free and under the
closed-neighborhood lock), the vertex-set predicates and the well-covered
and well-dominated verdicts against the oracles of ``bruteforce`` on random
graphs of order <= 10."""

from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import domination
from domlab.domination import (
    _iter_maximal_independent,
    domination_number,
    has_isolatable_vertex,
    is_maximal_independent,
    is_minimal_dominating,
    is_open_irredundant,
    is_two_packing,
    is_well_covered,
    is_well_dominated,
    isolatable_vertices,
    minimal_dominating_sets,
    minimum_dominating_sets,
    private_neighbors,
    total_domination_numbers,
    well_covered_certificate,
    well_dominated_certificate,
)
from domlab.graphs import Graph, iter_bits, set_of

import bruteforce

PROPERTY = settings(max_examples=60, deadline=None)


@st.composite
def graphs(draw, min_order=1, max_order=10):
    n = draw(st.integers(min_order, max_order))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, k in zip(pairs, keep) if k])


@st.composite
def isolate_free_graphs(draw):
    g = draw(graphs(min_order=2))
    extra = [(v, (v + 1) % g.n) for v in range(g.n) if not g.adj[v]]
    return Graph(g.n, list(g.edges()) + extra)


@st.composite
def graphs_with_sets(draw):
    g = draw(graphs())
    return g, draw(st.integers(0, g.full_mask))


@PROPERTY
@given(graphs_with_sets())
def test_vertex_set_predicates_match_oracle(gs):
    g, s = gs
    assert is_minimal_dominating(g, s) == bruteforce.minimal_dominating(g, s)
    assert is_maximal_independent(g, s) == bruteforce.maximal_independent(g, s)
    assert is_open_irredundant(g, s) == bruteforce.open_irredundant(g, s)
    assert is_two_packing(g, s) == bruteforce.two_packing(g, s)
    for v in iter_bits(s):
        assert private_neighbors(g, v, s) == bruteforce.private_neighbors(g, v, s)


@PROPERTY
@given(graphs())
def test_minimal_and_minimum_dominating_sets_match_oracle(g):
    oracle = sorted(bruteforce.all_minimal_dominating(g), key=set_of)
    assert list(minimal_dominating_sets(g)) == oracle
    gamma = min(s.bit_count() for s in oracle)
    assert minimum_dominating_sets(g) == [s for s in oracle if s.bit_count() == gamma]


@PROPERTY
@given(graphs())
def test_maximal_independent_stream_matches_oracle(g):
    stream = list(_iter_maximal_independent(g))
    assert len(stream) == len(set(stream))
    assert set(stream) == bruteforce.all_maximal_independent(g)


@PROPERTY
@given(graphs())
def test_isolatable_vertices_match_oracle(g):
    oracle = bruteforce.isolatable(g)
    assert isolatable_vertices(g) == oracle
    assert has_isolatable_vertex(g) == (oracle != 0)


@PROPERTY
@given(isolate_free_graphs())
def test_total_domination_numbers_match_oracle(g):
    assert total_domination_numbers(g) == bruteforce.total_numbers(g)


@PROPERTY
@given(graphs())
def test_well_dominated_certificate_matches_oracle(g):
    sizes = {s.bit_count() for s in bruteforce.all_minimal_dominating(g)}
    cert = well_dominated_certificate(g)
    assert (cert is None) == (len(sizes) == 1)
    if cert is not None:
        small, large = cert
        assert is_minimal_dominating(g, small) and is_minimal_dominating(g, large)
        assert domination_number(g) == min(sizes) <= small.bit_count() < large.bit_count()


@PROPERTY
@given(graphs())
def test_verdicts_match_certificates_and_oracle(g):
    gamma, upper, ind, alpha = bruteforce.profile_numbers(g)
    assert is_well_covered(g) == (well_covered_certificate(g) is None) == (ind == alpha)
    assert is_well_dominated(g) == (well_dominated_certificate(g) is None) == (gamma == upper)


def test_well_dominated_verdicts_need_no_gamma(monkeypatch):
    from domlab.enumeration import connected_graphs

    def gamma(g):
        raise AssertionError("gamma asked")

    monkeypatch.setattr(domination, "minimum_dominating_set", gamma)
    for n in range(1, 7):
        for g in connected_graphs(n):
            gam, upper, _, _ = bruteforce.profile_numbers(g)
            assert is_well_dominated(g) == (well_dominated_certificate(g) is None) == (gam == upper)


def test_greedy_pair_settles_the_star_without_a_search(monkeypatch):
    # K1,3: the leaves first give {1, 2, 3}, the center first gives {0}.
    def search(g):
        raise AssertionError("the greedy pair should have decided")

    monkeypatch.setattr(domination, "_iter_maximal_independent", search)
    assert not is_well_covered(Graph(4, [(0, 1), (0, 2), (0, 3)]))
