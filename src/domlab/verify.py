"""Corpus sweeps: run a theorem over every in-budget instance and report.

Instances come either from the internal enumerator (connected graphs of a range
of orders, optionally triangle-free) or from a .g6 file.  Pair theorems sweep
ordered pairs of two corpora under a product-order cap.  Instances stay the
corpus's ``Graph`` objects (or ``(g, h)`` tuples of them) all the way to the
theorem check; graph6 appears only in counterexample certificates.  A sweep can
fan out by fork-join: of ``workers - 1`` forked children (at most one process
per task), child k checks tasks k, k + workers, ... and the parent share 0.
Children inherit the instances and their kept facts (:meth:`Graph.fact`) from
a module slot and pipe up their verdicts or exception as one pickle; one that
leaves no result raises a ``RuntimeError`` naming its exit status, and none
outlives its sweep.  Without ``fork`` it runs in-process.  The report
aggregates the tasks' :class:`Verdict` objects in instance order, so it does
not depend on scheduling.  For a swap-invariant theorem a pair (g, h) and its
swap (h, g) are one task and share its verdict; a counterexample's swap is
checked again after the join, so that its certificate names its own product.
A certificate carries the instance in graph6, the violated clause and witness
sets; the report keeps at most ``cap`` of them but always the full count, and
for a tagged theorem ``members`` and the verdicts' sorted ``member_tags`` in
``details``.
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from array import array
from collections import Counter
from dataclasses import asdict, dataclass, field
from multiprocessing import get_context  # noqa: F401
from pathlib import Path

from .enumeration import DEFAULT_BUDGET, check_orders, enumerate_connected
from .graph6 import load_graph6_file, parse_graph6, to_graph6  # noqa: F401
from .graphs import MAX_ORDER, Graph, is_triangle_free
from .classify import classify_small_triangle_free  # noqa: F401
from .theorems import THEOREMS, TheoremEntry, Verdict, check_instance

# parse_graph6, classify_small_triangle_free and get_context are not called
# here; the benchmark's tracer and pool probe patch them on this module.

COUNTEREXAMPLE_CAP = 10


@dataclass(frozen=True)
class CorpusSpec:
    """Connected graphs of orders ``min_order..max_order`` (optionally
    triangle-free), or the contents of a .g6 file when ``path`` is set."""

    min_order: int = 1
    max_order: int = 8
    triangle_free: bool = False
    path: str | None = None
    budget: int = DEFAULT_BUDGET

    def __post_init__(self) -> None:
        if self.path is None:
            check_orders(self.min_order, self.max_order, self.budget)
        else:  # a file corpus has no orders, but a bad budget is still bad input
            check_orders(1, 1, self.budget)

    def describe(self) -> str:
        if self.path is not None:
            return f"file:{self.path}"
        tf = " triangle-free" if self.triangle_free else ""
        return f"connected{tf} orders {self.min_order}..{self.max_order}"

    def graphs(self, cache_dir: str | Path | None = None) -> list[Graph]:
        if self.path is not None:
            graphs = load_graph6_file(self.path)
            if not graphs:
                raise ValueError(f"no graphs in {self.path}")
            if self.triangle_free:
                graphs = [g for g in graphs if is_triangle_free(g)]
            return graphs
        return [g for n in range(self.min_order, self.max_order + 1)
                for g in enumerate_connected(n, triangle_free=self.triangle_free,
                                             budget=self.budget, cache_dir=cache_dir)]


@dataclass(frozen=True)
class PairCorpusSpec:
    """Ordered pairs drawn from two corpora, capped by product order."""

    left: CorpusSpec
    right: CorpusSpec
    product_cap: int = 25

    def __post_init__(self) -> None:
        if not 1 <= self.product_cap <= MAX_ORDER:
            raise ValueError(
                f"product cap {self.product_cap} outside 1..{MAX_ORDER}")

    def describe(self) -> str:
        return (f"ordered pairs of ({self.left.describe()}) x "
                f"({self.right.describe()}), product order <= {self.product_cap}")


def _default_corpus(entry: TheoremEntry) -> CorpusSpec | PairCorpusSpec:
    """A theorem's default sweep: connected graphs of orders 1..8, or ordered
    pairs of connected factors of orders 2..5 with product order <= 25, unless
    its table entry sets other ``orders`` or ``triangle_free``."""
    lo, hi = entry.orders or ((1, 8) if entry.arity == 1 else (2, 5))
    spec = CorpusSpec(lo, hi, entry.triangle_free)
    return spec if entry.arity == 1 else PairCorpusSpec(spec, spec)


DEFAULT_CORPORA: dict[str, CorpusSpec | PairCorpusSpec] = {
    tid: _default_corpus(e) for tid, e in THEOREMS.items()}


@dataclass
class VerificationReport:
    theorem: str
    corpus: str
    scanned: int
    holds: int
    hypothesis_not_met: int
    counterexample_count: int
    counterexamples: list[dict]
    elapsed_ms: float
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _instances(tid: str, corpus, cache_dir) -> list:
    if THEOREMS[tid].arity == 1:
        if isinstance(corpus, PairCorpusSpec):
            raise ValueError(f"{tid} takes a single-graph corpus")
        return corpus.graphs(cache_dir)
    if not isinstance(corpus, PairCorpusSpec):
        raise ValueError(f"{tid} takes a pair corpus")
    left = corpus.left.graphs(cache_dir)
    right = left if corpus.right == corpus.left else corpus.right.graphs(cache_dir)
    return [(g, h) for g in left for h in right if g.n * h.n <= corpus.product_cap]


def _swaps(instances: list) -> array:
    """Each pair's index of its swap (h, g), or its own if none: in a corpus
    paired with itself the pairs (_, h) come in the order of the run (h, _)."""
    n, nxt = len(instances), {}  # id(h) -> index of the next unmatched pair (h, _)
    for i, (g, _) in enumerate(instances):
        nxt.setdefault(id(g), i)
    swaps = array("i", range(n))
    for i, (g, h) in enumerate(instances):
        j = nxt.get(id(h), n)
        if j < n and instances[j][0] is h and instances[j][1] is g:
            swaps[i], swaps[j], nxt[id(h)] = j, i, j + 1
    return swaps


# The running sweep, (theorem id, instances); forked children inherit it.
_sweep: tuple[str, list] | None = None


def _check_task(i: int) -> Verdict:
    return check_instance(_sweep[0], _sweep[1][i])


def _share(tasks, k: int, workers: int) -> list[Verdict] | BaseException:
    """Child k's verdicts, or the exception that stopped it, made picklable."""
    try:
        return [_check_task(i) for i in tasks[k::workers]]
    except BaseException as exc:
        try:
            return pickle.loads(pickle.dumps(exc))
        except Exception:
            return RuntimeError(f"sweep worker failed: {exc!r}")


def _fork_join(tasks, workers: int) -> list[Verdict]:
    """The verdicts of ``tasks`` in order; a child's exception is raised here."""
    children = {}  # pid -> the read end of its pipe, until reaped
    try:
        for k in range(1, workers):
            r, w = os.pipe()
            if (pid := os.fork()) == 0:  # a child pipes up its share, never returns
                try:
                    os.close(r)
                    with open(w, "wb") as pipe:
                        pickle.dump(_share(tasks, k, workers), pipe)
                finally:
                    os._exit(0)
            os.close(w)
            children[pid] = open(r, "rb")
        verdicts = [None] * len(tasks)
        verdicts[::workers] = [_check_task(i) for i in tasks[::workers]]
        for k, pid in enumerate(list(children), 1):
            data = children[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if status or not data:
                raise RuntimeError(f"sweep worker {k} exited with status {status} and no result")
            if isinstance(share := pickle.loads(data), BaseException):
                raise share
            verdicts[k::workers] = share
        return verdicts
    finally:
        for pid, pipe in children.items():  # kill and reap any left running
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def verify_corpus(
    tid: str,
    corpus: CorpusSpec | PairCorpusSpec | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    cap: int = COUNTEREXAMPLE_CAP,
) -> VerificationReport:
    """Sweep one theorem over a corpus and aggregate the verdicts."""
    global _sweep
    if tid not in THEOREMS:
        raise KeyError(f"unknown theorem id {tid!r}")
    if workers < 1 or cap < 0:
        raise ValueError(f"workers must be at least 1 and cap at least 0: {workers}, {cap}")
    if corpus is None:
        corpus = DEFAULT_CORPORA[tid]
    start = time.perf_counter()
    instances = _instances(tid, corpus, cache_dir)
    if not instances:
        raise ValueError(f"{tid} has no instance in {corpus.describe()}")
    if THEOREMS[tid].swap_invariant:
        swaps = _swaps(instances)
        tasks = array("i", (i for i, j in enumerate(swaps) if i <= j))
    else:
        swaps, tasks = None, range(len(instances))
    workers = min(workers, len(tasks))
    _sweep = tid, instances
    try:
        if workers > 1 and hasattr(os, "fork"):
            verdicts = _fork_join(tasks, workers)
        else:
            verdicts = [_check_task(i) for i in tasks]
        if swaps is not None:  # a counterexample's swap gets its own certificate
            shared, verdicts = verdicts, [None] * len(instances)
            for i, verdict in zip(tasks, shared):
                j = swaps[i]
                verdicts[i] = verdicts[j] = verdict
                if j != i and verdict.status == "counterexample":
                    verdicts[j] = _check_task(j)
    finally:
        _sweep = None

    counts = Counter(v.status for v in verdicts)
    certs: list[dict] = []
    for instance, v in zip(instances, verdicts):
        if v.status == "counterexample" and len(certs) < cap:
            where = ({"pair": [to_graph6(x) for x in instance]} if isinstance(instance, tuple)
                     else {"graph6": to_graph6(instance)})
            certs.append({"clause": v.clause, "witness_sets": v.witness or {}, **where})
    member_tags = sorted(v.tag for v in verdicts if v.tag is not None)
    details = ({"members": len(member_tags), "member_tags": member_tags}
               if THEOREMS[tid].tagged else {})
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        theorem=tid,
        corpus=corpus.describe(),
        scanned=len(instances),
        holds=counts["holds"],
        hypothesis_not_met=counts["hypothesis-not-met"],
        counterexample_count=counts["counterexample"],
        counterexamples=certs,
        elapsed_ms=elapsed,
        details=details,
    )
