"""What each workload runs; shared by the parent (``run.py``) and the fresh
interpreters it starts (``child.py``).  Nothing here imports ``domlab``.

* ``census``: enumerate every connected graph of orders 1..8 and every
  connected triangle-free graph of orders 1..9 from scratch, and write them as
  ``.g6`` files.  Canonical labeling dominates; domination, products and the
  pool do no work, so kernel changes must not move it.
* ``table``: the 26 default sweeps in table order, one process, one worker,
  over a seeded relabeled copy of the default corpora.  Many small graphs,
  mostly early-exit deciders, and reuse of cached results across theorems.
  It bypasses enumeration and the process pool.
* ``pairs``: the 15 pair theorems over connected factors of orders 2..6
  (triangle-free where the default is), product order <= 30, with one pool
  worker per core.  Fewer, larger products, full enumerations and branch and
  bound; the only workload through the fork pool.
"""

from __future__ import annotations

WORKLOADS = ("census", "table", "pairs")

CENSUS_OPS = [(n, False) for n in range(1, 9)] + [(n, True) for n in range(1, 10)]

# (order, triangle-free) corpus files each workload's set-up prepares.
CORPUS_ORDERS = {
    "census": [],
    "table": [(n, tf) for tf in (False, True) for n in range(1, 9)],
    "pairs": [(n, tf) for tf in (False, True) for n in range(2, 7)],
}

PAIR_MIN_ORDER = 2
PAIR_MAX_ORDER = 6
PAIR_PRODUCT_CAP = 30

# Counts a traced pass must repeat exactly for the same seed.
EQUAL_WORK = (
    "graph6.parse_calls",
    "isomorphism.canonical_calls",
    "products.vertices",
    "domination.sets_yielded",
    "theorems.check_calls",
)


def corpus_file(n: int, triangle_free: bool) -> str:
    """File name of one order in the package's cache-dir layout."""
    return f"connected-n{n}{'-trianglefree' if triangle_free else ''}.g6"


def census_op(n: int, triangle_free: bool) -> str:
    return f"{'trianglefree' if triangle_free else 'connected'}-n{n}"
