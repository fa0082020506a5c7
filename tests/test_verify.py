import dataclasses
import json
import os
import random
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domlab import theorems, verify
from domlab.catalog import complete_graph, cycle_graph, path_graph
from domlab.domination import is_well_covered
from domlab.graph6 import save_graph6_file, to_graph6
from domlab.graphs import MAX_ORDER, Graph
from domlab.verify import (
    DEFAULT_CORPORA,
    CorpusSpec,
    PairCorpusSpec,
    VerificationReport,
    verify_corpus,
)
from domlab.theorems import THEOREMS, Verdict, check_instance

PAIR_TIDS = [tid for tid, entry in THEOREMS.items() if entry.arity == 2]


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


def test_tf11_members_on_small_corpus(monkeypatch):
    calls = []
    classify = theorems.classify_small_triangle_free
    monkeypatch.setattr(theorems, "classify_small_triangle_free",
                        lambda g: calls.append(g) or classify(g))
    report = verify_corpus("TF11", CorpusSpec(1, 7, triangle_free=True))
    assert report.details["members"] == 11
    assert report.details["member_tags"] == sorted(
        ["K1", "K2", "P4", "C4", "C5", "C7", "P3-corona", "H1", "H2", "H3", "H4"]
    )
    # each instance that meets the hypothesis is classified once, for its verdict's tag
    assert len(calls) == report.scanned - report.hypothesis_not_met > 0
    none = verify_corpus("TF11", CorpusSpec(8, 8, triangle_free=True))
    assert none.scanned > 0 and none.details == {"members": 0, "member_tags": []}
    assert check_instance("TF11", cycle_graph(5)).tag == "C5"


def test_report_json_shape():
    report = verify_corpus("CHAIN", CorpusSpec(1, 5))
    payload = report.to_dict()
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


def _small_pairs(tid: str) -> PairCorpusSpec:
    side = CorpusSpec(2, 4, DEFAULT_CORPORA[tid].left.triangle_free)
    return PairCorpusSpec(side, side, product_cap=16)


@pytest.mark.parametrize("tid", PAIR_TIDS)
def test_pair_sweep_reports_match_across_workers(tid):
    seq = verify_corpus(tid, _small_pairs(tid), workers=1).to_dict()
    par = verify_corpus(tid, _small_pairs(tid), workers=2).to_dict()
    seq.pop("elapsed_ms"), par.pop("elapsed_ms")
    assert seq == par


def test_pool_never_starts_more_processes_than_instances(monkeypatch):
    forked = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted_fork)
    report = verify_corpus("T4", workers=500)
    # 9 factors: 81 pairs in 45 tasks, each pair with its swap or a diagonal;
    # the parent checks one task and forks a child for each of the other 44
    assert report.scanned == 81
    assert len(forked) == 44


@pytest.mark.parametrize("case, error, message", [
    ("child raises", ValueError, "conclusion failed in a child"),
    ("child raises unpicklable", RuntimeError, "sweep worker failed: .*Unpicklable"),
    ("child exits", RuntimeError, "exited with status 3 and no result"),
    ("parent raises", ValueError, "conclusion failed in the parent"),
])
def test_failed_fork_join_leaves_no_child_behind(monkeypatch, case, error, message):
    entry, parent = THEOREMS["T4"], os.getpid()

    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def conclusion(pair):
        if os.getpid() == parent:
            if case == "parent raises":
                raise ValueError("conclusion failed in the parent")
        elif case == "child raises":
            raise ValueError("conclusion failed in a child")
        elif case == "child raises unpicklable":
            raise Unpicklable("no pickle")
        elif case == "child exits":
            os._exit(3)
        return entry.conclusion(pair)

    monkeypatch.setitem(THEOREMS, "T4", dataclasses.replace(entry, conclusion=conclusion))
    with pytest.raises(error, match=message):
        verify_corpus("T4", workers=3)
    assert verify._sweep is None
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def _t1_factor_decisions(monkeypatch, corpus: PairCorpusSpec) -> tuple[list, int]:
    """The ids of the factors in a workers=1 T1 sweep's ``is_well_dominated``
    calls, one per call, and the pairs scanned; every other call must be on a
    product the sweep built, once each."""
    calls, products = [], []
    is_well_dominated, cartesian = theorems.is_well_dominated, theorems.cartesian

    def spy(g):
        calls.append(g)
        return is_well_dominated(g)

    def build(g, h):
        p = cartesian(g, h)
        products.append(p.graph)
        return p

    monkeypatch.setattr(theorems, "is_well_dominated", spy)
    monkeypatch.setattr(theorems, "cartesian", build)
    report = verify_corpus("T1", corpus, workers=1)
    product_ids = {id(p) for p in products}
    on_factors = [id(g) for g in calls if id(g) not in product_ids]
    assert products and report.counterexample_count == 0
    assert len(calls) - len(on_factors) == len(products)
    return on_factors, report.scanned


def test_t1_sweep_decides_each_factor_once(monkeypatch):
    spec = CorpusSpec(2, 5)
    on_factors, _ = _t1_factor_decisions(monkeypatch, PairCorpusSpec(spec, spec))
    assert len(on_factors) == len(set(on_factors)) <= len(spec.graphs())


def test_file_corpus_sweep_loads_and_decides_each_factor_once(monkeypatch, tmp_path):
    path = tmp_path / "factors.g6"
    graphs = CorpusSpec(2, 5).graphs()
    save_graph6_file(path, graphs)
    spec = CorpusSpec(path=str(path))
    loads = []
    load = verify.load_graph6_file
    monkeypatch.setattr(verify, "load_graph6_file", lambda p: loads.append(p) or load(p))
    on_factors, scanned = _t1_factor_decisions(monkeypatch, PairCorpusSpec(spec, spec))
    assert loads == [str(path)]
    assert scanned == sum(g.n * h.n <= 25 for g in graphs for h in graphs)
    assert len(on_factors) == len(set(on_factors)) <= len(graphs)


def test_swaps_match_each_pair_with_its_swap_or_itself():
    graphs = CorpusSpec(2, 5).graphs()
    rng = random.Random(5)
    for trial in range(60):
        left = rng.sample(graphs, rng.randint(1, 20))
        right = [left, left[::-1], rng.sample(graphs, rng.randint(1, 20))][trial % 3]
        instances = [(g, h) for g in left for h in right if g.n * h.n <= 20]
        swaps = verify._swaps(instances)
        for i, j in enumerate(swaps):
            assert swaps[j] == i
            assert j == i or instances[j][0] is instances[i][1] and instances[j][1] is instances[i][0]
        if right is left:  # a corpus paired with itself: every swap is found
            found = {(id(g), id(h)) for g, h in instances}
            assert all((j != i) == ((id(h), id(g)) in found and g is not h)
                       for i, ((g, h), j) in enumerate(zip(instances, swaps)))


def test_swap_reuse_across_two_corpora(monkeypatch):
    # orders 3 and 4 on both sides: some pairs have a swap and some do not
    corpus = PairCorpusSpec(CorpusSpec(2, 4), CorpusSpec(3, 5), product_cap=16)
    swaps = verify._swaps(verify._instances("T4", corpus, None))
    assert 0 < sum(j != i for i, j in enumerate(swaps)) < len(swaps)
    reused = verify_corpus("T4", corpus, workers=1).to_dict()
    monkeypatch.setitem(THEOREMS, "T4", dataclasses.replace(THEOREMS["T4"], swap_invariant=False))
    full = verify_corpus("T4", corpus, workers=1).to_dict()
    reused.pop("elapsed_ms"), full.pop("elapsed_ms")
    assert reused == full and full["scanned"] > 0


@pytest.mark.parametrize("forced_wrong", [False, True])
def test_swap_reuse_changes_no_report(monkeypatch, forced_wrong):
    # Reports with the swap of each pair reusing its verdict, against those
    # with every pair checked in full; the forced-wrong shape predicates of
    # test_forced_wrong_shape_predicates_digest make flagged theorems fail,
    # so their swaps are checked again for their own clause and witness.
    if forced_wrong:
        for name in ("are_isomorphic", "is_corona_of_connected", "is_complete"):
            real = getattr(theorems, name)
            monkeypatch.setattr(theorems, name, lambda *a, real=real: not real(*a))

    def reports():
        out = {}
        for tid in PAIR_TIDS:
            for workers in (1, 2):
                report = verify_corpus(tid, _small_pairs(tid), workers=workers).to_dict()
                report.pop("elapsed_ms")
                out[tid, workers] = report
        return out

    reused = reports()
    for tid in PAIR_TIDS:
        monkeypatch.setitem(THEOREMS, tid,
                            dataclasses.replace(THEOREMS[tid], swap_invariant=False))
    assert reports() == reused
    failing = {tid for (tid, _), r in reused.items() if r["counterexample_count"]}
    assert bool(failing & {"T2", "T3", "T4"}) == forced_wrong


@pytest.mark.parametrize("workers", [1, 2])
def test_sweep_that_raises_partway_clears_the_running_sweep(monkeypatch, workers):
    entry = THEOREMS["T4"]
    calls = []

    def conclusion(pair):
        calls.append(pair)
        if len(calls) == 5:
            raise RuntimeError("conclusion failed")
        return entry.conclusion(pair)

    monkeypatch.setitem(THEOREMS, "T4", dataclasses.replace(entry, conclusion=conclusion))
    with pytest.raises(RuntimeError, match="conclusion failed"):
        verify_corpus("T4", workers=workers)
    assert verify._sweep is None


@pytest.mark.parametrize("tid", PAIR_TIDS)
def test_check_instance_outside_a_sweep_gives_the_sweep_verdicts(tid):
    corpus = _small_pairs(tid)
    instances = verify._instances(tid, corpus, None)
    report = verify_corpus(tid, corpus)
    # fresh copies of the factors, which have kept no facts
    fresh = [check_instance(tid, (Graph._raw(g.n, g.adj), Graph._raw(h.n, h.adj)))
             for g, h in instances]
    assert fresh == [check_instance(tid, x) for x in instances]
    statuses = [v.status for v in fresh]
    assert [report.holds, report.hypothesis_not_met, report.counterexample_count] == [
        statuses.count(s) for s in ("holds", "hypothesis-not-met", "counterexample")]


def test_l2p_and_lk3_build_each_k3_product_once(monkeypatch, tmp_path):
    # Factors read from fresh cache files, so no earlier test has kept facts
    # on them; both sweeps read the same graph objects.  A base that is not
    # well-covered gets no product at all: 38 of the 142 bases get one.
    from domlab.enumeration import connected_graphs

    for n in range(2, 7):
        save_graph6_file(tmp_path / f"connected-n{n}.g6", connected_graphs(n))
    bases = []
    direct = theorems.direct

    def build(g, h):
        bases.append(g)
        return direct(g, h)

    monkeypatch.setattr(theorems, "direct", build)
    corpus = CorpusSpec(2, 6)
    for tid in ("L2P", "LK3"):
        assert verify_corpus(tid, corpus, cache_dir=tmp_path).counterexample_count == 0
    graphs = corpus.graphs(tmp_path)
    covered = {id(g) for g in graphs if is_well_covered(g)}
    assert len(bases) == len({id(g) for g in bases}) == len(covered) == 38
    assert {id(g) for g in bases} == covered and len(graphs) == 142


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


class _Enumerated(Exception):
    pass


def _enumerated(*args, **kwargs):
    raise _Enumerated


# Small values and values around MAX_ORDER = 62, at both ends of each range.
_orders = st.integers(-1, 10) | st.integers(60, 64)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(min_order=_orders, max_order=_orders, budget=_orders, cap=st.integers(-1, 2),
       workers=st.integers(0, 3), product_cap=_orders)
def test_out_of_range_sweep_input_fails_before_enumeration(
        min_order, max_order, budget, cap, workers, product_cap):
    in_range = (budget >= 1 and 1 <= min_order <= max_order <= min(budget, MAX_ORDER)
                and 1 <= product_cap <= MAX_ORDER and workers >= 1 and cap >= 0)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(verify, "enumerate_connected", _enumerated)
        with pytest.raises(_Enumerated if in_range else ValueError):
            spec = CorpusSpec(min_order, max_order, budget=budget)
            verify_corpus("UB3", PairCorpusSpec(spec, spec, product_cap),
                          workers=workers, cap=cap)


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
    assert report.to_dict()["theorem"] == "X"
