import hashlib

import pytest

from domlab import enumeration
from domlab.enumeration import (
    all_graphs,
    connected_graphs,
    enumerate_connected,
)
from domlab.graph6 import load_graph6_file, save_graph6_file, to_graph6
from domlab.graphs import Graph, is_connected, is_triangle_free
from domlab.isomorphism import canonical_key

import bruteforce

# OEIS A000088, A001349 and A024607 (connected triangle-free graphs).
KNOWN_ALL = {1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044, 8: 12346}
KNOWN_CONNECTED = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}
KNOWN_TRIANGLE_FREE_CONNECTED = {
    1: 1, 2: 1, 3: 1, 4: 3, 5: 6, 6: 19, 7: 59, 8: 267, 9: 1380,
}

# sha256 of the graph6 lines of connected_graphs(n) for n = 1..8, then of
# connected_graphs(n, triangle_free=True) for n = 1..9, joined by newlines.
# It pins which representative stands for each class and the order they come
# in (edge count, then graph6), which cache files and reports depend on.
CENSUS_SHA256 = "8b35f5b73059a4337ea5a51f7587454a4a5ea8f3ca44f98ef094f0f436fb5542"


def test_connected_counts_up_to_7():
    for n in range(1, 8):
        assert len(connected_graphs(n)) == KNOWN_CONNECTED[n]
        assert len(all_graphs(n)) == KNOWN_ALL[n]


def test_census_counts_up_to_8():
    assert len(connected_graphs(8)) == KNOWN_CONNECTED[8]
    assert len(all_graphs(8)) == KNOWN_ALL[8]
    for n, want in KNOWN_TRIANGLE_FREE_CONNECTED.items():
        assert len(connected_graphs(n, triangle_free=True)) == want


def test_census_representatives_and_order_are_pinned():
    lines = [to_graph6(g) for n in range(1, 9) for g in connected_graphs(n)]
    lines += [
        to_graph6(g) for n in range(1, 10) for g in connected_graphs(n, triangle_free=True)
    ]
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == CENSUS_SHA256


def test_counts_match_bruteforce_census():
    # independent dedup: minimum encoding over all vertex permutations
    for n in range(1, 7):
        assert len(all_graphs(n)) == bruteforce.count_isomorphism_classes(n)
        assert len(connected_graphs(n)) == bruteforce.count_isomorphism_classes(
            n, connected_only=True
        )


def test_triangle_free_generation_matches_filtering():
    for n in range(1, 8):
        direct = connected_graphs(n, triangle_free=True)
        filtered = [g for g in connected_graphs(n) if is_triangle_free(g)]
        assert {canonical_key(g) for g in direct} == {canonical_key(g) for g in filtered}
    assert len(connected_graphs(4, triangle_free=True)) == 3  # P4, C4, K_{1,3}


def test_census_matches_networkx_atlas():
    # third independent source: the atlas of all graphs on up to 7 vertices
    nx = pytest.importorskip("networkx")

    by_order: dict[int, set[str]] = {n: set() for n in range(1, 8)}
    for ag in nx.graph_atlas_g()[1:]:  # skip the order-0 entry
        n = ag.number_of_nodes()
        g = Graph(n, [tuple(e) for e in ag.edges()])
        by_order[n].add(canonical_key(g))
    for n in range(1, 8):
        mine = {canonical_key(g) for g in all_graphs(n)}
        assert mine == by_order[n], n


def test_isomorphism_matches_networkx(rng):
    nx = pytest.importorskip("networkx")
    from domlab.isomorphism import are_isomorphic
    from conftest import random_graph

    def to_nx(g):
        out = nx.Graph()
        out.add_nodes_from(range(g.n))
        out.add_edges_from(g.edges())
        return out

    for _ in range(30):
        n = rng.randint(7, 9)
        g = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        h = random_graph(rng, n, rng.choice([0.3, 0.5, 0.7]))
        assert are_isomorphic(g, h) == nx.is_isomorphic(to_nx(g), to_nx(h))
        perm = list(range(n))
        rng.shuffle(perm)
        assert are_isomorphic(g, g.relabeled(perm))


def test_no_duplicates_and_all_connected():
    for n in range(1, 8):
        graphs = connected_graphs(n)
        keys = [canonical_key(g) for g in graphs]
        assert len(keys) == len(set(keys))
        assert all(is_connected(g) for g in graphs)
        assert all(g.n == n for g in graphs)


def test_enumerate_connected_budget_and_filter():
    assert len(list(enumerate_connected(1))) == 1
    assert len(list(enumerate_connected(4))) == 6
    with pytest.raises(TypeError):
        enumerate_connected(5, True)  # everything after the order is keyword-only
    with pytest.raises(ValueError):
        list(enumerate_connected(10))
    with pytest.raises(ValueError):
        list(enumerate_connected(6, budget=5))


def test_deterministic_order():
    first = [to_graph6(g) for g in connected_graphs(6)]
    again = [to_graph6(g) for g in all_graphs(6) if is_connected(g)]
    assert first == again


def test_cache_dir_roundtrip(tmp_path):
    built = list(enumerate_connected(5, cache_dir=tmp_path))
    assert (tmp_path / "connected-n5.g6").exists()
    # a fresh process would reload from the file; simulate by reading directly
    assert load_graph6_file(tmp_path / "connected-n5.g6") == built


STAR5 = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])


@pytest.fixture
def empty_caches(monkeypatch):
    monkeypatch.setattr(enumeration, "_all_cache", {})
    monkeypatch.setattr(enumeration, "_connected_cache", {})


def test_cache_file_is_read_not_rebuilt(tmp_path, empty_caches):
    # valid, but not the census: two of the 21 classes, in reverse order
    # and with the star not in canonical form, so only a read returns this
    planted = [Graph(5, [(u, v) for v in range(5) for u in range(v)]), STAR5]
    path = tmp_path / "connected-n5.g6"
    save_graph6_file(path, planted)
    before = path.read_bytes()
    assert list(enumerate_connected(5, cache_dir=tmp_path)) == planted
    assert path.read_bytes() == before
    assert enumeration._all_cache == {}


def test_order_cached_in_memory_gets_its_file(tmp_path, empty_caches):
    graphs = [STAR5]
    enumeration._connected_cache[5, False] = graphs
    assert list(enumerate_connected(5, cache_dir=tmp_path)) == graphs
    assert load_graph6_file(tmp_path / "connected-n5.g6") == graphs
    assert enumeration._all_cache == {}


def test_uncached_order_is_built_and_written(tmp_path, empty_caches):
    built = list(enumerate_connected(5, triangle_free=True, cache_dir=tmp_path))
    assert len(built) == KNOWN_TRIANGLE_FREE_CONNECTED[5]
    assert load_graph6_file(tmp_path / "connected-n5-trianglefree.g6") == built
    assert not (tmp_path / "connected-n5.g6").exists()


def test_order_7_labels_each_class_about_once(empty_caches, monkeypatch):
    # Orbit pruning and the canonical-deletion filter leave about one
    # labeling per class: 1,252 classes of order <= 7, 3,131 labelings
    # when every child was labeled.
    calls = []
    label = enumeration.canonical_graph

    def counting(g):
        calls.append(g)
        return label(g)

    monkeypatch.setattr(enumeration, "canonical_graph", counting)
    assert len(all_graphs(7)) == KNOWN_ALL[7]
    classes = sum(len(graphs) for graphs in enumeration._all_cache.values())
    assert classes == sum(KNOWN_ALL[n] for n in range(1, 8))
    assert len(calls) <= 1400
