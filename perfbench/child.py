"""One fresh interpreter of the benchmark.

    python3 perfbench/child.py setup WORKLOAD SEED DIR
    python3 perfbench/child.py run WORKLOAD DIR WORKERS [SPAN_FILE]

``setup`` imports ``domlab`` and prepares the workload's input in DIR: it
builds the needed orders with the package's own enumerator and writes a
seeded random vertex relabeling of every graph, in the cache-dir layout
``connected-n{N}[-trianglefree].g6``.

``run`` times one pass of the workload over DIR and prints one JSON object:
the wall time of the timed region, the outcome of each operation, peak
memory, pool and cache counters.  With SPAN_FILE the pass is traced
(``workers`` must be 1): it adds the per-layer metrics and writes the spans.
"""

from __future__ import annotations

import json
import os
import random
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as W  # noqa: E402


def setup(workload: str, seed: int, out: Path) -> None:
    import domlab  # noqa: F401  (import time is part of set-up)
    from domlab.enumeration import enumerate_connected
    from domlab.graph6 import save_graph6_file
    from domlab.graphs import Graph

    out.mkdir(parents=True, exist_ok=True)
    for n, tf in W.CORPUS_ORDERS[workload]:
        rng = random.Random(f"{seed}:{n}:{int(tf)}")
        relabeled = []
        for g in enumerate_connected(n, triangle_free=tf):
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled.append(Graph(n, [(perm[u], perm[v]) for u, v in g.edges()]))
        save_graph6_file(out / W.corpus_file(n, tf), relabeled)


class PoolProbe:
    """Times the sweep engine's process pools from the parent side: wait in
    ``map``, pool lifetime, and child CPU from ``RUSAGE_CHILDREN`` deltas
    (workers are reaped when the pool exits)."""

    def __init__(self) -> None:
        self.pools = 0
        self.workers = 0
        self.wait_s = 0.0
        self.wall_s = 0.0
        self.child_cpu_s = 0.0

    def install(self, verify) -> None:
        probe, get_context = self, verify.get_context

        class Context:
            def __init__(self, ctx):
                self._ctx = ctx

            def Pool(self, processes):
                return Pool(self._ctx.Pool(processes), processes)

        class Pool:
            def __init__(self, pool, processes):
                self._pool = pool
                self._t0 = time.perf_counter()
                self._cpu0 = _child_cpu()
                probe.pools += 1
                probe.workers = max(probe.workers, processes)

            def __enter__(self):
                self._pool.__enter__()
                return self

            def map(self, *args, **kwargs):
                t = time.perf_counter()
                try:
                    return self._pool.map(*args, **kwargs)
                finally:
                    probe.wait_s += time.perf_counter() - t

            def __exit__(self, *exc):
                result = self._pool.__exit__(*exc)
                self._pool.join()
                probe.wall_s += time.perf_counter() - self._t0
                probe.child_cpu_s += _child_cpu() - self._cpu0
                return result

        verify.get_context = lambda *a: Context(get_context(*a))


def _child_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def _lru_totals(module) -> tuple[int, int]:
    hits = misses = 0
    for name in dir(module):
        info = getattr(getattr(module, name), "cache_info", None)
        if info is not None:
            ci = info()
            hits += ci.hits
            misses += ci.misses
    return hits, misses


def _census(out: Path, tracer) -> dict:
    from domlab import enumeration, graph6

    enum = tracer.enumerate_connected() if tracer else enumeration.enumerate_connected
    save = tracer.save_graph6_file() if tracer else graph6.save_graph6_file
    ops = {}
    for n, tf in W.CENSUS_OPS:
        try:
            graphs = list(enum(n, triangle_free=tf))
            save(out / W.corpus_file(n, tf), graphs)
            ops[W.census_op(n, tf)] = {"items": len(graphs)}
        except Exception as exc:  # an operation that raises counts as failed
            ops[W.census_op(n, tf)] = {"error": repr(exc)}
    return ops


def _report(rep) -> dict:
    out = {
        "items": rep.scanned,
        "counts": [rep.scanned, rep.holds, rep.hypothesis_not_met,
                   rep.counterexample_count],
    }
    if "member_tags" in rep.details:
        out["member_tags"] = rep.details["member_tags"]
    return out


def _sweeps(corpora: dict, corpus: Path, workers: int, tracer) -> dict:
    from domlab import verify

    sweep = tracer.verify_corpus() if tracer else verify.verify_corpus
    ops = {}
    for tid, spec in corpora.items():
        try:
            ops[tid] = _report(sweep(tid, spec, workers=workers, cache_dir=corpus))
        except Exception as exc:  # an operation that raises counts as failed
            ops[tid] = {"error": repr(exc)}
    return ops


def _pair_corpora() -> dict:
    from domlab.theorems import THEOREMS
    from domlab.verify import DEFAULT_CORPORA, CorpusSpec, PairCorpusSpec

    out = {}
    for tid, entry in THEOREMS.items():
        if entry.arity == 2:
            side = CorpusSpec(W.PAIR_MIN_ORDER, W.PAIR_MAX_ORDER,
                              DEFAULT_CORPORA[tid].left.triangle_free)
            out[tid] = PairCorpusSpec(side, side, product_cap=W.PAIR_PRODUCT_CAP)
    return out


def run(workload: str, corpus: Path, workers: int, span_file: Path | None) -> dict:
    from domlab import domination, verify

    tracer = None
    if span_file is not None:
        from tracer import Tracer

        if workers != 1:
            raise SystemExit("a traced pass runs with one worker")
        tracer = Tracer(run_id=f"{workload}:{os.getpid()}:{time.time_ns()}")
        tracer.install()
    probe = PoolProbe()
    probe.install(verify)
    if workload == "table":
        corpora = verify.DEFAULT_CORPORA
    elif workload == "pairs":
        corpora = _pair_corpora()
    else:
        corpora = None
    hits0, misses0 = _lru_totals(domination)

    t0 = time.perf_counter()
    if corpora is None:
        ops = _census(corpus, tracer)
    else:
        ops = _sweeps(corpora, corpus, workers, tracer)
    wall = time.perf_counter() - t0

    hits, misses = _lru_totals(domination)
    result = {
        "wall_s": wall,
        "ops": ops,
        "workers": workers,
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_child_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        "pool": vars(probe),
        "cache_hits": hits - hits0,
        "cache_misses": misses - misses0,
        "layers": None,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.layer_metrics(wall)
        tracer.write(span_file)
    return result


def main(argv: list[str]) -> int:
    cmd, workload = argv[0], argv[1]
    if workload not in W.WORKLOADS:
        raise SystemExit(f"unknown workload {workload!r}")
    if cmd == "setup":
        setup(workload, int(argv[2]), Path(argv[3]))
    elif cmd == "run":
        span_file = Path(argv[4]) if len(argv) > 4 else None
        print(json.dumps(run(workload, Path(argv[2]), int(argv[3]), span_file)))
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
