"""Corpus sweeps: run a theorem over every in-budget instance and report.

Instances come either from the internal enumerator (connected graphs of a
range of orders, optionally triangle-free) or from a .g6 file.  Pair
theorems sweep ordered pairs of two corpora under a product-order cap.
Instances stay the corpus's ``Graph`` objects (or ``(g, h)`` tuples of
them) all the way to the theorem check, in one process or shipped to pool
workers by pickle; graph6 appears only in counterexample certificates.
Sweeps can fan out over a process pool; results are merged in instance
order, so reports are identical regardless of scheduling.  Counterexample
certificates carry the instance in graph6, the violated clause, and witness
sets; the report keeps at most ``cap`` certificates but always the full
count.  A theorem with a tag hook also gets ``members`` and ``member_tags``
(the sorted non-None tags) in ``details``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from multiprocessing import get_context
from pathlib import Path

from .enumeration import DEFAULT_BUDGET, enumerate_connected
from .graph6 import load_graph6_file, parse_graph6, to_graph6  # noqa: F401
from .graphs import MAX_ORDER, Graph, is_triangle_free
from .classify import classify_small_triangle_free  # noqa: F401
from .theorems import THEOREMS, check_instance

# parse_graph6 and classify_small_triangle_free are not called here; they
# stay importable because perfbench/tracer.py patches them on this module.

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

    def describe(self) -> str:
        if self.path is not None:
            return f"file:{self.path}"
        tf = " triangle-free" if self.triangle_free else ""
        return f"connected{tf} orders {self.min_order}..{self.max_order}"

    def graphs(self, cache_dir: str | Path | None = None) -> list[Graph]:
        if self.path is not None:
            graphs = load_graph6_file(self.path)
            if self.triangle_free:
                graphs = [g for g in graphs if is_triangle_free(g)]
            return graphs
        if not 1 <= self.min_order <= self.max_order <= self.budget:
            raise ValueError(
                f"orders {self.min_order}..{self.max_order} outside the "
                f"enumeration budget 1..{self.budget}"
            )
        out: list[Graph] = []
        for n in range(self.min_order, self.max_order + 1):
            out.extend(
                enumerate_connected(
                    n,
                    triangle_free=self.triangle_free,
                    budget=self.budget,
                    cache_dir=cache_dir,
                )
            )
        return out


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


#: Default sweep budgets: single-graph statements over connected orders <= 8,
#: pair statements over factors of order 2..5 (2..4 for disjunctive products)
#: with product order <= 25.
def _pair(lo: int, hi: int, triangle_free: bool = False) -> PairCorpusSpec:
    spec = CorpusSpec(lo, hi, triangle_free)
    return PairCorpusSpec(spec, spec)


DEFAULT_CORPORA: dict[str, CorpusSpec | PairCorpusSpec] = {
    "T1": _pair(2, 5),
    "T2": _pair(2, 5, triangle_free=True),
    "T3": _pair(2, 5),
    "T4": _pair(2, 4),
    "P1": CorpusSpec(1, 8),
    "CHAIN": CorpusSpec(1, 8),
    "UB3": _pair(2, 5),
    "WCFACTOR": _pair(2, 5),
    "G4CART": _pair(2, 5, triangle_free=True),
    "PRISM": CorpusSpec(2, 8),
    "BC": CorpusSpec(1, 7),
    "DK": _pair(2, 5),
    "L3G": _pair(2, 5),
    "TV": _pair(2, 5),
    "PX": CorpusSpec(2, 8),
    "LK2": CorpusSpec(2, 8),
    "L2P": CorpusSpec(1, 8),
    "LK3": CorpusSpec(2, 8),
    "LNE": CorpusSpec(1, 8),
    "DIND": _pair(2, 4),
    "DTOT": _pair(2, 4),
    "DNE": _pair(2, 4),
    "DKN": _pair(2, 4),
    "E1": _pair(2, 4),
    "TF11": CorpusSpec(1, 8, triangle_free=True),
    "G5WD": CorpusSpec(1, 8),
}


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
        return {
            "theorem": self.theorem,
            "corpus": self.corpus,
            "scanned": self.scanned,
            "holds": self.holds,
            "hypothesis_not_met": self.hypothesis_not_met,
            "counterexample_count": self.counterexample_count,
            "counterexamples": self.counterexamples,
            "elapsed_ms": self.elapsed_ms,
            "details": self.details,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _instances(tid: str, corpus, cache_dir) -> list:
    if THEOREMS[tid].arity == 1:
        if isinstance(corpus, PairCorpusSpec):
            raise ValueError(f"{tid} takes a single-graph corpus")
        return corpus.graphs(cache_dir)
    if not isinstance(corpus, PairCorpusSpec):
        raise ValueError(f"{tid} takes a pair corpus")
    left = corpus.left.graphs(cache_dir)
    right = corpus.right.graphs(cache_dir)
    return [(g, h) for g in left for h in right if g.n * h.n <= corpus.product_cap]


def _check_task(args: tuple[str, object]) -> tuple[str, str | None, dict | None, str | None]:
    tid, instance = args
    verdict = check_instance(tid, instance)
    hook = THEOREMS[tid].tag
    tag = None
    if hook is not None and verdict.status != "hypothesis-not-met":
        tag = hook(instance)
    return verdict.status, verdict.clause, verdict.witness, tag


def verify_corpus(
    tid: str,
    corpus: CorpusSpec | PairCorpusSpec | None = None,
    workers: int = 1,
    cache_dir: str | Path | None = None,
    cap: int = COUNTEREXAMPLE_CAP,
) -> VerificationReport:
    """Sweep one theorem over a corpus and aggregate the verdicts."""
    if tid not in THEOREMS:
        raise KeyError(f"unknown theorem id {tid!r}")
    if corpus is None:
        corpus = DEFAULT_CORPORA[tid]
    start = time.perf_counter()
    instances = _instances(tid, corpus, cache_dir)
    tasks = [(tid, x) for x in instances]
    if workers > 1 and len(tasks) > 1:
        try:
            ctx = get_context("fork")  # inherits warm caches
        except ValueError:
            ctx = get_context()
        chunk = max(1, len(tasks) // (workers * 8))
        with ctx.Pool(workers) as pool:
            results = pool.map(_check_task, tasks, chunksize=chunk)
    else:
        results = [_check_task(t) for t in tasks]

    holds = hnm = 0
    certs: list[dict] = []
    cert_count = 0
    member_tags: list[str] = []
    for instance, (status, clause, witness, tag) in zip(instances, results):
        if status == "holds":
            holds += 1
        elif status == "hypothesis-not-met":
            hnm += 1
        else:
            cert_count += 1
            if len(certs) < cap:
                cert = {"clause": clause, "witness_sets": witness or {}}
                if isinstance(instance, tuple):
                    cert["pair"] = [to_graph6(x) for x in instance]
                else:
                    cert["graph6"] = to_graph6(instance)
                certs.append(cert)
        if tag is not None:
            member_tags.append(tag)
    details: dict = {}
    if THEOREMS[tid].tag is not None:
        details["members"] = len(member_tags)
        details["member_tags"] = sorted(member_tags)
    elapsed = (time.perf_counter() - start) * 1000.0
    return VerificationReport(
        theorem=tid,
        corpus=corpus.describe(),
        scanned=len(instances),
        holds=holds,
        hypothesis_not_met=hnm,
        counterexample_count=cert_count,
        counterexamples=certs,
        elapsed_ms=elapsed,
        details=details,
    )
