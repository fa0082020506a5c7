"""Run the benchmark on several seeds and write one result file.

    python3 perfbench/collect.py --out perfbench/baseline/NAME.json [--seeds 1-10]

For each workload it makes one untraced run per seed, then two traced runs
of seed 1 (each of which checks its own equal-work counts).  The file holds
every run's metrics and environment; ``compare.py`` reads two such files.
Prints one line per workload and end-to-end metric with its median and
spread (quartile distance over median).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads as W
from compare import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
TRACE_SEED = 1


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{workload} seed {seed}: no result (exit {proc.returncode})\n"
                         f"{proc.stderr[-2000:]}")
    out = json.loads(lines[-1])
    record = json.loads(
        (WORK / "results" / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    out.update(seed=seed, exit=proc.returncode, env=record["env"],
               problems=record["problems"] + [q for p in record.get("passes", [])
                                              for q in p["problems"]])
    if trace == 0:
        out["samples"] = record.get("samples")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    result = {"benchmark": spec, "workloads": {}}
    ok = True
    for workload in W.WORKLOADS:
        runs = [run_once(workload, s, seconds, 0) for s in parse_seeds(args.seeds)]
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            print(f"{workload:7} {m['name']:12} median {statistics.median(values):12.4f} "
                  f"spread {spread(values):.4f} (bound {m['bound']})", flush=True)
        entry = {"runs": runs, "traced": [run_once(workload, TRACE_SEED, seconds, 1)
                                          for _ in range(2)]}
        for r in runs + entry["traced"]:
            if not r["correct"] or r["exit"] != 0:
                ok = False
                print(f"{workload} seed {r['seed']}: not correct: {r['problems']}")
        result["workloads"][workload] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
