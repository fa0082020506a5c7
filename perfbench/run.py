"""Layered benchmark of domlab: census, table and pairs.

    python3 perfbench/run.py --workload {census,table,pairs} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a source checkout: it byte-compiles ``src/domlab``
and imports it from there, with nothing installed.  Every set-up and every
timed pass is a fresh interpreter (``perfbench/child.py``), so the package's
in-process caches carry nothing from one pass to the next.  The workloads are
described in ``perfbench/workloads.py``.

``--trace 0`` sets up several times (``setup_s`` is the median: interpreter
start, import and corpus preparation), then repeats timed passes until
``--seconds`` have elapsed and prints the end-to-end metrics of
``BENCHMARK.json``: median ``wall_s``, ``items_per_s`` at that median,
``setup_s`` and ``peak_rss_mb``.  ``peak_rss_mb`` is the largest peak
resident size of one process of the pass: the pass process or, for
``pairs``, a pool worker.  Workers share the parent's pages copy-on-write,
so adding up their peaks would count the parent once per worker.

``--trace 1`` sets up once, runs one untraced pass (for ``pairs`` also one
with a single worker, the traced configuration) and two traced passes with
one worker, and prints the per-layer metrics of ``BENCHMARK.json`` from the
first traced pass.  The spans go to ``perfbench/.work/spans/``.  The counts
in ``workloads.EQUAL_WORK`` must repeat exactly in the second traced pass.

Every operation (a sweep, or one census enumeration) is checked against
``perfbench/golden.json``.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller
record with the environment goes to ``perfbench/.work/results/``.  The exit
code is 0 when everything matched, 1 when an operation failed or a check
did not hold, and 2 when the checkout has no ``src/domlab``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "domlab"
WORK = HERE / ".work"
CHILD = HERE / "child.py"
GOLDEN = json.loads((HERE / "golden.json").read_text())

# Set-up is repeated at least SETUP_MIN times, and cheap set-ups until they
# add up to about SETUP_MIN_TOTAL_S (at most SETUP_MAX times).  Half the
# repeats run before the timed passes and half after, so the median does not
# hang on the machine's speed during one short stretch.
SETUP_MIN, SETUP_MAX, SETUP_MIN_TOTAL_S = 3, 40, 4.0
# Everything a run does must end within this many seconds.
RUN_LIMIT_S = 170.0


class ChildFailed(RuntimeError):
    pass


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def commit() -> str:
    """The checkout's git commit, or "unknown" outside a git work tree."""
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float) -> None:
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.dir = WORK / f"{workload}-{seed}-{os.getpid()}"
        self.env = {**os.environ, "PYTHONHASHSEED": "0"}
        self.setup_times: list[float] = []
        self.corpus: Path | None = None
        self.problems: list[str] = []

    def child(self, *args: str) -> str:
        """Run child.py to completion (its whole process group is killed if
        the run's time limit passes) and return its standard output."""
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), *args], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, env=self.env, start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"child.py {args[0]} passed the run's time limit")
        if proc.returncode != 0:
            raise ChildFailed(f"child.py {args[0]} exited {proc.returncode}: {err[-2000:]}")
        return out

    def set_up(self) -> float:
        """One timed set-up.  The first one's directory is the corpus; every
        repeat must write the same bytes."""
        out = self.dir / f"setup-{len(self.setup_times)}"
        t = time.perf_counter()
        self.child("setup", self.workload, str(self.seed), str(out))
        self.setup_times.append(time.perf_counter() - t)
        if self.corpus is None:
            self.corpus = out
            return self.setup_times[-1]
        for f in sorted(self.corpus.iterdir()):
            if f.read_bytes() != (out / f.name).read_bytes():
                self.problems.append(f"set-up wrote a different {f.name} on a repeat")
        shutil.rmtree(out)
        return self.setup_times[-1]

    def run_pass(self, corpus: Path, workers: int, span_file: Path | None = None) -> dict:
        out = self.dir / "out"
        if self.workload == "census":
            out.mkdir(parents=True, exist_ok=True)
            corpus = out
        args = ["run", self.workload, str(corpus), str(workers)]
        if span_file is not None:
            args.append(str(span_file))
        result = json.loads(self.child(*args).splitlines()[-1])
        result["problems"] = check_pass(self.workload, result, out)
        if self.workload == "census":
            shutil.rmtree(out)
        return result


CENSUS_FILES = {W.census_op(n, tf): W.corpus_file(n, tf) for n, tf in W.CENSUS_OPS}


def _edge_count(g6: str) -> int:
    return sum(bin(ord(c) - 63).count("1") for c in g6[1:])


def check_census_file(path: Path, expected: int) -> list[str]:
    """Distinct graph6 lines, ordered by edge count, then graph6."""
    lines = path.read_text(encoding="ascii").split()
    keys = [(_edge_count(s), s) for s in lines]
    problems = []
    if len(lines) != expected:
        problems.append(f"{path.name}: {len(lines)} graphs, expected {expected}")
    if len(set(lines)) != len(lines):
        problems.append(f"{path.name}: repeated graph6 strings")
    if keys != sorted(keys):
        problems.append(f"{path.name}: not ordered by edge count, then graph6")
    return problems


def check_pass(workload: str, result: dict, out: Path) -> list[str]:
    """One problem string per failed operation; [] when all match."""
    golden = GOLDEN[workload]
    problems = []
    for name, want in golden.items():
        op = result["ops"].get(name)
        if op is None or "error" in op:
            problems.append(f"{name}: {op['error'] if op else 'not run'}")
        elif workload == "census":
            path = out / CENSUS_FILES[name]
            got = [f"{name}: {op['items']} classes, expected {want}"] if op["items"] != want else []
            got += check_census_file(path, want)
            if got:
                problems.append("; ".join(got))
        elif op["counts"] != want:
            problems.append(f"{name}: counts {op['counts']}, expected {want}")
        elif name in GOLDEN["member_tags"] and op.get("member_tags") != GOLDEN["member_tags"][name]:
            problems.append(f"{name}: member tags {op.get('member_tags')}")
    return problems


def _items(result: dict) -> int:
    return sum(op.get("items", 0) for op in result["ops"].values())


def _peak_rss_mb(result: dict) -> float:
    return max(result["rss_self_kb"], result["rss_child_kb"]) / 1024.0


def end_to_end(runner: Runner, seconds: int, workers: int, record: dict) -> dict:
    first = runner.set_up()
    repeats = max(SETUP_MIN, min(SETUP_MAX, math.ceil(SETUP_MIN_TOTAL_S / first)))
    while len(runner.setup_times) < (repeats + 1) // 2:
        runner.set_up()
    passes = []
    record["passes"] = passes
    start = time.perf_counter()
    while True:
        passes.append(runner.run_pass(runner.corpus, workers))
        elapsed = time.perf_counter() - start
        if elapsed >= seconds or time.monotonic() + elapsed / len(passes) > runner.deadline:
            break
    while len(runner.setup_times) < repeats:
        runner.set_up()
    walls = [p["wall_s"] for p in passes]
    wall = statistics.median(walls)
    record["samples"] = {"setup_s": runner.setup_times, "wall_s": walls}
    return {
        "wall_s": wall,
        "items_per_s": _items(passes[0]) / wall,
        "setup_s": statistics.median(runner.setup_times),
        "peak_rss_mb": max(_peak_rss_mb(p) for p in passes),
    }


def equal_work_problems(first: dict, second: dict) -> list[str]:
    """The counts of ``workloads.EQUAL_WORK`` that two traced passes of one
    input do not repeat exactly."""
    return [f"equal-work count {k}: {first[k]} in one traced pass, {second[k]} in the other"
            for k in W.EQUAL_WORK if first[k] != second[k]]


def per_layer(runner: Runner, workers: int, record: dict) -> dict:
    runner.set_up()
    plain = runner.run_pass(runner.corpus, workers)
    single = plain if workers == 1 else runner.run_pass(runner.corpus, 1)
    spans = WORK / "spans"
    spans.mkdir(parents=True, exist_ok=True)
    traced, again = [runner.run_pass(runner.corpus, 1, spans / f"{runner.workload}-{i}.spans")
                     for i in (1, 2)]
    untraced = [plain] if single is plain else [plain, single]
    record["passes"] = untraced + [traced, again]
    record["problems"] += equal_work_problems(traced["layers"], again["layers"])

    m = {f"verify.{tid}_s": 0.0 for tid in GOLDEN["table"]}
    m.update(traced["layers"])
    m["trace.untraced_wall_s"] = single["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - single["wall_s"]
    classes = m["enumeration.classes"]
    m["enumeration.labelings_per_class"] = m["enumeration.labelings"] / classes if classes else 0.0
    hits, misses = traced["cache_hits"], traced["cache_misses"]
    m["domination.cache_hits"] = hits
    m["domination.cache_misses"] = misses
    m["domination.cache_hit_frac"] = hits / (hits + misses) if hits + misses else 0.0
    pool = plain["pool"]
    m["verify.pool_workers"] = pool["workers"]
    m["verify.pool_wait_s"] = pool["wait_s"]
    m["verify.pool_wall_s"] = pool["wall_s"]
    m["verify.child_cpu_s"] = pool["child_cpu_s"]
    m["verify.pool_efficiency"] = (
        pool["child_cpu_s"] / (pool["wall_s"] * pool["workers"]) if pool["pools"] else 0.0)
    return m


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no domlab sources at {PACKAGE}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + RUN_LIMIT_S
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(PACKAGE)], check=True,
                   stdout=subprocess.DEVNULL)

    workers = nproc() if args.workload == "pairs" else 1
    runner = Runner(args.workload, args.seed, deadline)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds,
        "env": {"python": platform.python_version(), "nproc": nproc(),
                "workers": workers, "seed": args.seed, "commit": commit(),
                "platform": platform.platform()},
        "problems": [],
    }
    metrics: dict = {}
    try:
        if args.trace:
            metrics = per_layer(runner, workers, record)
        else:
            metrics = end_to_end(runner, args.seconds, workers, record)
    except ChildFailed as exc:
        record["problems"].append(str(exc))
    finally:
        shutil.rmtree(runner.dir, ignore_errors=True)
    record["problems"] += runner.problems

    passes = record.get("passes", [])
    attempted = max(1, len(GOLDEN[args.workload]) * len(passes))
    failed = sum(len(p["problems"]) for p in passes)
    if not passes:
        failed = attempted
    correct = not record["problems"] and not failed and bool(metrics)
    out = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]] if metrics else 0.0,
                                "unit": m["unit"]} for m in wanted},
    }
    record.update(out, failed_frac=failed / attempted)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for p in record["problems"] + [q for p in passes for q in p["problems"]]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(out))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
