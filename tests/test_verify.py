import dataclasses
import json
from importlib import resources

import pytest

from domlab.catalog import complete_graph, cycle_graph, path_graph
from domlab.graph6 import save_graph6_file, to_graph6
from domlab.graphs import MAX_ORDER
from domlab.verify import (
    DEFAULT_CORPORA,
    CorpusSpec,
    PairCorpusSpec,
    VerificationReport,
    verify_corpus,
)
from domlab.theorems import THEOREMS, Verdict


def test_every_theorem_has_a_default_corpus():
    assert set(DEFAULT_CORPORA) == set(THEOREMS)
    for tid, corpus in DEFAULT_CORPORA.items():
        if THEOREMS[tid].arity == 2:
            assert isinstance(corpus, PairCorpusSpec)
        else:
            assert isinstance(corpus, CorpusSpec)


def test_lne_example_corpus_accounting():
    report = verify_corpus("LNE", CorpusSpec(1, 7))
    assert report.scanned == 996  # 1+1+2+6+21+112+853 connected graphs
    assert report.counterexample_count == 0
    assert report.scanned == report.holds + report.hypothesis_not_met


def test_tf11_members_on_small_corpus():
    report = verify_corpus("TF11", CorpusSpec(1, 7, triangle_free=True))
    assert report.details["members"] == 11
    assert report.details["member_tags"] == sorted(
        ["K1", "K2", "P4", "C4", "C5", "C7", "P3-corona", "H1", "H2", "H3", "H4"]
    )


def test_report_json_shape():
    report = verify_corpus("CHAIN", CorpusSpec(1, 5))
    payload = json.loads(report.to_json())
    for field in ("theorem", "corpus", "scanned", "hypothesis_not_met",
                  "counterexamples", "elapsed_ms"):
        assert field in payload
    assert payload["scanned"] == (
        payload["holds"] + payload["hypothesis_not_met"] + payload["counterexample_count"]
    )


def test_worker_pool_matches_sequential():
    seq = verify_corpus("PX", CorpusSpec(2, 6), workers=1)
    par = verify_corpus("PX", CorpusSpec(2, 6), workers=2)
    a, b = seq.to_dict(), par.to_dict()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_pair_worker_pool_matches_sequential():
    spec = CorpusSpec(2, 4)
    seq = verify_corpus("T4", PairCorpusSpec(spec, spec), workers=1)
    par = verify_corpus("T4", PairCorpusSpec(spec, spec), workers=3)
    a, b = seq.to_dict(), par.to_dict()
    a.pop("elapsed_ms"), b.pop("elapsed_ms")
    assert a == b


def test_file_corpus(tmp_path):
    path = tmp_path / "tiny.g6"
    save_graph6_file(path, [cycle_graph(4), path_graph(4), complete_graph(3)])
    report = verify_corpus("CHAIN", CorpusSpec(path=str(path)))
    assert report.scanned == 3 and report.counterexample_count == 0
    assert report.corpus == f"file:{path}"
    # triangle-free filter applies to file corpora too
    report = verify_corpus("TF11", CorpusSpec(path=str(path), triangle_free=True))
    assert report.scanned == 2


def test_missing_file_corpus_errors(tmp_path):
    with pytest.raises(OSError):
        verify_corpus("CHAIN", CorpusSpec(path=str(tmp_path / "absent.g6")))


def test_budget_guard():
    with pytest.raises(ValueError):
        verify_corpus("CHAIN", CorpusSpec(1, 10))


def test_arity_mismatch_between_corpus_and_theorem():
    with pytest.raises(ValueError):
        verify_corpus("CHAIN", PairCorpusSpec(CorpusSpec(1, 3), CorpusSpec(1, 3)))
    with pytest.raises(ValueError):
        verify_corpus("T2", CorpusSpec(1, 3))


def test_product_cap_limits_pairs():
    spec = CorpusSpec(2, 5)
    capped = verify_corpus("UB3", PairCorpusSpec(spec, spec, product_cap=6))
    uncapped = verify_corpus("UB3", PairCorpusSpec(spec, spec, product_cap=25))
    assert capped.scanned < uncapped.scanned


def test_product_cap_outside_range_rejected_at_construction():
    spec = CorpusSpec(2, 5)
    for cap in (0, MAX_ORDER + 1, 100):
        with pytest.raises(ValueError, match="product cap"):
            PairCorpusSpec(spec, spec, product_cap=cap)
    assert PairCorpusSpec(spec, spec, product_cap=MAX_ORDER).product_cap == MAX_ORDER


def test_counterexample_cap_respected(monkeypatch):
    import jsonschema

    # P1 and DIND have hypotheses that always hold, so with a conclusion
    # that always fails every instance is a counterexample.
    def always_fails(_instance):
        return Verdict("counterexample", "always fails", {"probe": [0]})

    for tid in ("P1", "DIND"):
        monkeypatch.setitem(THEOREMS, tid,
                            dataclasses.replace(THEOREMS[tid], conclusion=always_fails))
    schema = json.loads(
        resources.files("domlab").joinpath("schemas/report-v1.json").read_text())
    single = CorpusSpec(1, 5)
    side = CorpusSpec(2, 3)
    cases = {
        "P1": (single, [{"graph6": to_graph6(g)} for g in single.graphs()]),
        "DIND": (PairCorpusSpec(side, side, product_cap=6),
                 [{"pair": [to_graph6(g), to_graph6(h)]}
                  for g in side.graphs() for h in side.graphs() if g.n * h.n <= 6]),
    }
    cap = 2
    for tid, (corpus, instances) in cases.items():
        assert len(instances) > cap
        report = verify_corpus(tid, corpus, cap=cap)
        assert report.scanned == report.counterexample_count == len(instances)
        assert len(report.counterexamples) == cap
        for cert, instance in zip(report.counterexamples, instances):
            assert cert == {"clause": "always fails", "witness_sets": {"probe": [0]},
                            **instance}
        payload = report.to_dict()
        jsonschema.validate(payload, schema)
        parallel = verify_corpus(tid, corpus, workers=2, cap=cap).to_dict()
        payload.pop("elapsed_ms"), parallel.pop("elapsed_ms")
        assert parallel == payload


def test_tf11_order_cutoff_justified():
    # Every triangle-free graph on 9 vertices has independence number >= 4,
    # so no well-dominated triangle-free graph with gamma <= 3 was missed by
    # stopping the sweep at order 8.  Checked by extension: any triangle-free
    # 9-vertex graph with alpha <= 3 would leave, after deleting one vertex,
    # a triangle-free 8-vertex graph with alpha <= 3; extending each such
    # graph by one vertex in every triangle-free way never keeps alpha <= 3.
    from domlab.domination import independence_number
    from domlab.enumeration import all_graphs
    from domlab.graphs import Graph

    small = [g for g in all_graphs(8, triangle_free=True)
             if independence_number(g) <= 3]
    assert small  # the extension argument must start from something
    for g in small:
        for mask in range(1 << 8):
            ok = True
            for v in range(8):
                if mask >> v & 1 and g.adj[v] & mask:
                    ok = False  # new vertex would close a triangle
                    break
            if not ok:
                continue
            adj = [g.adj[v] | ((mask >> v & 1) << 8) for v in range(8)]
            adj.append(mask)
            extended = Graph._raw(9, tuple(adj))
            assert independence_number(extended) >= 4


def test_report_roundtrip_dataclass():
    report = VerificationReport(
        theorem="X", corpus="c", scanned=3, holds=2, hypothesis_not_met=1,
        counterexample_count=0, counterexamples=[], elapsed_ms=1.5,
    )
    assert json.loads(report.to_json())["theorem"] == "X"
