"""Compare two result files written by ``collect.py``.

    python3 perfbench/compare.py BASE NEW

Prints one row per workload and metric: the base and new medians, the
change, the benchmark's bound and a verdict.  End-to-end metrics:

* ``worse``: the new median is worse than the base by more than the bound;
* ``unresolved``: otherwise, when either side's spread (quartile distance
  over median) exceeds the bound, unless every new run beats every base run;
* ``better``: the new side wins at least nine tenths of the runs paired in
  order, and the medians differ by more than the base spread;
* ``unchanged``: everything else.

``failed_frac`` is compared as a count of failed operations.  Per-layer
metrics come from the traced runs and have no bound: a count is
``unchanged`` only when it repeats exactly, a time when the change is within
the spread of the base's own traced runs.  Ratios are printed with their base.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from pathlib import Path

# The count each per-layer ratio is taken over.
RATIO_BASES = {
    "enumeration.labelings_per_class": ("enumeration.classes",),
    "domination.cache_hit_frac": ("domination.cache_hits", "domination.cache_misses"),
    "verify.pool_efficiency": ("verify.pool_wall_s", "verify.pool_workers"),
}


def _values(runs: list[dict], name: str) -> list[float]:
    return [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, over the median; the
    range over the median for fewer than four values."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def _worse_share(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base``, as a share of ``base``."""
    if base == 0:
        return 0.0 if new == 0 else math.copysign(math.inf, new if better == "lower" else -new)
    change = (new - base) / abs(base)
    return change if better == "lower" else -change


def end_to_end_verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1 if better == "lower" else -1
    worse = _worse_share(statistics.median(base), statistics.median(new), better)
    if worse > bound:
        return "worse"
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    if max(spread(base), spread(new)) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(sign * n < sign * b for b, n in pairs)
    if wins >= 0.9 * len(pairs) and -worse > spread(base):
        return "better"
    return "unchanged"


def per_layer_verdict(base: list[float], new: list[float], unit: str, better: str) -> str:
    b, n = statistics.median(base), statistics.median(new)
    if b == n or unit != "count" and abs(n - b) <= spread(base) * b:
        return "unchanged"
    return "worse" if _worse_share(b, n, better) > 0 else "better"


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def rows(base: dict, new: dict) -> list[list[str]]:
    spec = new["benchmark"]
    out = []
    for workload, b in base["workloads"].items():
        n = new["workloads"].get(workload)
        if n is None:
            continue
        for m in spec["end_to_end"]:
            bv, nv = _values(b["runs"], m["name"]), _values(n["runs"], m["name"])
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            out.append([workload, m["name"], m["unit"], _fmt(bm), _fmt(nm),
                        f"{(nm - bm) / bm:+.2%}" if bm else "n/a", f"{m['bound']:.0%}",
                        end_to_end_verdict(bv, nv, m["better"], m["bound"]), ""])
        bf = [sum(r["failed"] for r in b["runs"]), sum(r["attempted"] for r in b["runs"])]
        nf = [sum(r["failed"] for r in n["runs"]), sum(r["attempted"] for r in n["runs"])]
        verdict = "unchanged" if nf[0] == bf[0] else ("worse" if nf[0] > bf[0] else "better")
        out.append([workload, "failed_frac", "ratio", _fmt(bf[0] / bf[1]), _fmt(nf[0] / nf[1]),
                    "", "0", verdict, f"base {bf[1]} -> {nf[1]} operations"])
        if not b.get("traced") or not n.get("traced"):
            continue
        for m in spec["per_layer"]:
            bv, nv = _values(b["traced"], m["name"]), _values(n["traced"], m["name"])
            if not bv or not nv:
                continue
            bm, nm = statistics.median(bv), statistics.median(nv)
            note = ""
            if m["name"] in RATIO_BASES:
                keys = RATIO_BASES[m["name"]]
                note = "base " + ", ".join(
                    f"{k} {_fmt(statistics.median(_values(b['traced'], k)))} -> "
                    f"{_fmt(statistics.median(_values(n['traced'], k)))}" for k in keys)
            out.append([workload, m["name"], m["unit"], _fmt(bm), _fmt(nm),
                        f"{(nm - bm) / bm:+.2%}" if bm else "n/a", "-",
                        per_layer_verdict(bv, nv, m["unit"], m["better"]), note])
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = (json.loads(Path(p).read_text()) for p in argv)
    header = ["workload", "metric", "unit", "base", "new", "change", "bound", "verdict", "base of ratio"]
    table = [header] + rows(base, new)
    widths = [max(len(r[i]) for r in table) for i in range(len(header) - 1)]
    for r in table:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)) + "  " + r[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
