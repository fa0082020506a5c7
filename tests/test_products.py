import pytest

from domlab.catalog import complete_graph, cycle_graph, path_graph
from domlab.domination import domination_number
from domlab.graphs import Graph, is_connected, set_of
from domlab.isomorphism import are_isomorphic
from domlab.products import (
    PRODUCT_KINDS,
    cartesian,
    direct,
    disjunctive,
    product,
)

from bruteforce import expected_edge_count
from conftest import random_graph

K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
P4 = path_graph(4)


def test_construction_examples():
    assert are_isomorphic(cartesian(K2, K2).graph, C4)
    p = direct(C4, K2).graph
    assert not is_connected(p)  # two disjoint 4-cycles
    assert p.edge_count == 8 and p.n == 8
    assert are_isomorphic(disjunctive(K2, K2).graph, complete_graph(4))


def test_order_cap():
    with pytest.raises(ValueError):
        product("cartesian", complete_graph(8), complete_graph(8))
    with pytest.raises(ValueError):
        product("tensor", K2, K2)


def test_index_map_roundtrip():
    p = cartesian(P4, K3)
    for a in range(4):
        for b in range(3):
            assert p.coords(p.index(a, b)) == (a, b)
    with pytest.raises(ValueError):
        p.index(4, 0)
    with pytest.raises(ValueError):
        p.coords(12)


def test_layers():
    p = cartesian(K2, K2)
    assert set_of(p.layer("first", 0)) == (p.index(0, 0), p.index(1, 0))
    # direct-product layers are edgeless
    d = direct(K3, K3)
    layer = d.layer("first", 1)
    sub, _ = d.graph.induced(layer)
    assert sub.n == 3 and sub.edge_count == 0
    # disjunctive layers are copies of the factor
    v = disjunctive(K2, P4)
    sub, _ = v.graph.induced(v.layer("second", 0))
    assert are_isomorphic(sub, P4)
    with pytest.raises(ValueError):
        v.layer("second", 2)
    with pytest.raises(ValueError):
        v.layer("middle", 0)


def test_cartesian_and_disjunctive_layers_isomorphic_to_factor(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 4), 0.6)
        h = random_graph(rng, rng.randint(1, 4), 0.6)
        for kind, pick in (("cartesian", "first"), ("disjunctive", "first")):
            p = product(kind, g, h)
            coord = rng.randrange(h.n)
            sub, _ = p.graph.induced(p.layer(pick, coord))
            assert are_isomorphic(sub, g)


def test_direct_layers_edgeless_random(rng):
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 5), 0.6)
        h = random_graph(rng, rng.randint(1, 5), 0.6)
        p = direct(g, h)
        sub, _ = p.graph.induced(p.layer("first", rng.randrange(h.n)))
        assert sub.edge_count == 0 and sub.n == g.n
        sub, _ = p.graph.induced(p.layer("second", rng.randrange(g.n)))
        assert sub.edge_count == 0 and sub.n == h.n


def test_edge_count_formulas_200_random_pairs(rng):
    for _ in range(200):
        g = random_graph(rng, rng.randint(1, 7), rng.random())
        h = random_graph(rng, rng.randint(1, 7), rng.random())
        if g.n * h.n > 62:
            continue
        for kind in PRODUCT_KINDS:
            p = product(kind, g, h)
            assert p.graph.edge_count == expected_edge_count(kind, g, h), kind


def test_commutativity_up_to_isomorphism(rng):
    for _ in range(100):
        g = random_graph(rng, rng.randint(1, 5), rng.random())
        h = random_graph(rng, rng.randint(1, 5), rng.random())
        if g.n * h.n > 30:
            continue
        for kind in PRODUCT_KINDS:
            assert are_isomorphic(product(kind, g, h).graph, product(kind, h, g).graph)


def test_direct_product_domination_bound(rng):
    # the bound presumes isolate-free factors (a K1 factor, say, makes the
    # direct product edgeless and gamma equal to the order)
    checked = 0
    while checked < 60:
        g = random_graph(rng, rng.randint(2, 5), 0.6)
        h = random_graph(rng, rng.randint(2, 5), 0.6)
        if any(g.degree(v) == 0 for v in range(g.n)):
            continue
        if any(h.degree(v) == 0 for v in range(h.n)):
            continue
        checked += 1
        p = direct(g, h).graph
        assert domination_number(p) <= 3 * domination_number(g) * domination_number(h)
