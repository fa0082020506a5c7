import pytest

from domlab.catalog import (
    complete_graph,
    corona,
    cycle_graph,
    named_graph,
    path_graph,
    special_graph,
    triangle_free_well_dominated_catalog,
)
from domlab.domination import domination_profile
from domlab.graphs import girth, is_connected
from domlab.isomorphism import are_isomorphic, canonical_key


#: Expected structure of each special graph, asserted below so that a
#: wrong adjacency list fails loudly instead of silently corrupting sweeps.
#: Fields: order, girth, domination number, well-dominated, well-covered.
VALIDATION_RECORDS: dict[str, dict[str, object]] = {
    "P10": {"order": 10, "girth": 5, "gamma": 4, "well_dominated": True,
            "well_covered": True, "connected": True},
    "H1": {"order": 7, "min_girth": 4, "gamma": 3, "well_dominated": True,
           "well_covered": True, "connected": True},
    "H2": {"order": 7, "min_girth": 4, "gamma": 3, "well_dominated": True,
           "well_covered": True, "connected": True},
    "H3": {"order": 7, "min_girth": 4, "gamma": 3, "well_dominated": True,
           "well_covered": True, "connected": True},
    "H4": {"order": 7, "min_girth": 4, "gamma": 3, "well_dominated": True,
           "well_covered": True, "connected": True},
}


def test_named_graph_grammar():
    assert named_graph("cycle:4") == cycle_graph(4)
    assert named_graph("complete:5") == complete_graph(5)
    assert named_graph("path:2") == path_graph(2)
    assert named_graph("corona-of:path:3") == corona(path_graph(3))
    assert named_graph("special:P10") == special_graph("P10")
    deep = "corona-of:" * 1200 + "complete:1"  # order 64 at depth 6, no recursion
    for bad in ("cycle:2", "cycle:x", "nope:3", "special:Q13", "corona-of:", deep):
        with pytest.raises(ValueError):
            named_graph(bad)


def test_corona_labeling():
    g = corona(path_graph(3))
    assert g.n == 6
    for i in range(3):
        assert g.degree(3 + i) == 1 and g.has_edge(i, 3 + i)


def test_validation_records():
    # A wrong special-graph adjacency list fails here rather than
    # corrupting the sweeps.
    for name, rec in VALIDATION_RECORDS.items():
        g = special_graph(name)
        assert g.n == rec["order"], name
        assert is_connected(g) == rec["connected"], name
        if "girth" in rec:
            assert girth(g) == rec["girth"], name
        else:
            assert girth(g) >= rec["min_girth"], name
        prof = domination_profile(g)
        assert prof.gamma == rec["gamma"], name
        assert prof.well_dominated == rec["well_dominated"], name
        assert prof.well_covered == rec["well_covered"], name


def test_family_catalog_members_pairwise_distinct():
    catalog = triangle_free_well_dominated_catalog()
    assert len(catalog) == 11
    keys = {canonical_key(g) for g in catalog.values()}
    assert len(keys) == 11
    for tag, g in catalog.items():
        assert is_connected(g)
        assert girth(g) >= 4
        prof = domination_profile(g)
        assert prof.well_dominated and prof.gamma <= 3, tag


def test_h_graphs_not_isomorphic_to_each_other():
    hs = [special_graph(f"H{i}") for i in range(1, 5)]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not are_isomorphic(hs[i], hs[j])
