import os
import random
import stat

import pytest

from domlab.catalog import complete_graph, cycle_graph, path_graph
from domlab.enumeration import connected_graphs
from domlab.graph6 import (
    Graph6Error,
    load_graph6_file,
    parse_graph6,
    save_graph6_file,
    to_graph6,
)
from domlab.graphs import Graph

from conftest import random_graph


def test_k1_roundtrip():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count == 0
    assert to_graph6(g) == "@"


def test_k2_and_edgeless_pair():
    k2 = parse_graph6("A_")
    assert k2.n == 2 and k2.has_edge(0, 1)
    assert to_graph6(complete_graph(2)) == "A_"
    e2 = parse_graph6("A?")
    assert e2.n == 2 and e2.edge_count == 0


def test_path4_encoding():
    assert to_graph6(path_graph(4)) == "Ch"
    assert parse_graph6("Ch") == path_graph(4)


def test_header_tolerated():
    assert parse_graph6(">>graph6<<A_") == complete_graph(2)


@pytest.mark.parametrize("bad", ["", " ", "A", "A__", "C\x1f", "~??", "?"])
def test_malformed_inputs_rejected(bad):
    with pytest.raises(Graph6Error):
        parse_graph6(bad)


def test_nonzero_padding_rejected():
    # P4 uses 6 edge bits exactly; order 3 leaves 3 padding bits that must be 0.
    with pytest.raises(Graph6Error):
        parse_graph6("B~")


def test_roundtrip_on_corpora():
    for n in range(1, 7):
        for g in connected_graphs(n):
            assert parse_graph6(to_graph6(g)) == g


def test_roundtrip_random(rng):
    for _ in range(300):
        n = rng.randint(1, 20)
        g = random_graph(rng, n, rng.random())
        assert parse_graph6(to_graph6(g)) == g


def test_roundtrip_against_networkx(rng):
    nx = pytest.importorskip("networkx")
    for _ in range(100):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random())
        other = nx.from_graph6_bytes(to_graph6(g).encode("ascii"))
        assert set(other.nodes) == set(range(g.n))
        assert {frozenset(e) for e in other.edges} == {frozenset(e) for e in g.edges()}
        back = nx.to_graph6_bytes(other, header=False).decode("ascii").strip()
        assert parse_graph6(back) == g


def test_file_roundtrip(tmp_path):
    graphs = [complete_graph(3), path_graph(5), cycle_graph(6)]
    path = tmp_path / "sub" / "corpus.g6"
    save_graph6_file(path, graphs)
    assert load_graph6_file(path) == graphs
    # header line in a file is skipped
    path2 = tmp_path / "with_header.g6"
    path2.write_text(">>graph6<<\n" + to_graph6(complete_graph(2)) + "\n")
    assert load_graph6_file(path2) == [complete_graph(2)]


def test_saved_file_mode_follows_umask(tmp_path):
    # a cache directory may be shared, so files must not come out 0600
    old = os.umask(0o022)
    try:
        save_graph6_file(tmp_path / "k2.g6", [complete_graph(2)])
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "k2.g6").stat().st_mode) == 0o644
    assert os.listdir(tmp_path) == ["k2.g6"]
