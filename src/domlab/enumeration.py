"""Exhaustive small-graph corpora: one canonical representative per
isomorphism class.

Order n is built from order n-1 by vertex extension (B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each
representative g of order n-1 gets a new vertex v joined to vertex sets S
that leave v with minimum degree.  Each g is walked once, for every degree
of v, and its children go into one set of canonical forms per edge count.
Orbit pruning joins only the first S of each orbit of Aut(g) on vertex sets
(from the generators that ``canonical_labeling(g)`` finds) that passes the
min-degree test and, for triangle-free corpora, the independence test.
Canonical deletion labels a child only if v has the largest sorted tuple of
neighbour degrees among its minimum-degree vertices.

No class is missed.  Let v be a minimum-degree vertex of a graph G with the
largest tuple, and f an isomorphism from G - v onto a representative g.
T = f(N(v)) passes both tests, which Aut(g) preserves, so some a(T), a in
Aut(g), is joined (a proper subgroup of Aut(g) would only join more sets);
that child is isomorphic to G with the new vertex in v's role, so it is
labeled.  Triangle-free corpora may join only independent S because G - v is
triangle-free when G is.  Connectivity is filtered at the end.

Computed corpora are cached in-process.  A file ``connected-n{N}.g6`` /
``connected-n{N}-trianglefree.g6`` in a cache directory is that directory's
corpus: read once per process, or written atomically from the enumerator's
when missing, it never enters the enumerator's own cache.  Its graphs may be
in any labeling, but an empty file or one of an order other than N is an
input error.
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path
from typing import Iterator

from .graph6 import load_graph6_file, save_graph6_file, to_graph6
from .graphs import MAX_ORDER, Graph, is_connected, iter_bits, mask_of
from .isomorphism import canonical_graph, canonical_labeling, orbit

DEFAULT_BUDGET = 9

_all_cache: dict[tuple[int, bool], list[Graph]] = {}
_connected_cache: dict[tuple[int, bool], list[Graph]] = {}
_file_cache: dict[Path, list[Graph]] = {}


def all_graphs(n: int, triangle_free: bool = False) -> list[Graph]:
    """Canonical representatives of every graph on n vertices (connected or
    not), in deterministic order: by edge count, then by graph6 string."""
    key = (n, triangle_free)
    if key in _all_cache:
        return _all_cache[key]
    if n == 1:
        out = [Graph(1)]
    else:
        levels: dict[int, set[Graph]] = {}
        bit = 1 << (n - 1)
        out = []
        for g in all_graphs(n - 1, triangle_free):
            # parents come by edge count, so the levels below g's are complete
            for m in sorted(m for m in levels if m < g.edge_count):
                out.extend(sorted(levels.pop(m), key=to_graph6))
            # The new vertex, of degree k, has minimum degree iff k <= last =
            # g's minimum degree + 1 and S holds the vertices of degree below
            # k: none while k < last, g's minimum-degree vertices at k == last.
            deg = [row.bit_count() for row in g.adj]
            last = min(deg) + 1
            gens = canonical_labeling(g)[1]
            for k in range(last + 1):
                low, free = 0, range(n - 1)
                if k == last:
                    low = mask_of(v for v, d in enumerate(deg) if d < last)
                    free = [v for v, d in enumerate(deg) if d >= last]
                    if low.bit_count() > k:
                        continue
                level = levels.setdefault(g.edge_count + k, set())
                seen: set[int] = set()
                for t in combinations(free, k - low.bit_count()):
                    s = low | mask_of(t)
                    if s in seen or triangle_free and any(g.adj[v] & s for v in iter_bits(s)):
                        continue
                    if gens:
                        seen |= orbit(s, gens)
                    adj = (*(row | bit if s >> v & 1 else row for v, row in enumerate(g.adj)), s)
                    if _new_vertex_may_be_deleted(adj, k):
                        level.add(canonical_graph(Graph._raw(n, adj)))
        out += [h for m in sorted(levels) for h in sorted(levels[m], key=to_graph6)]
    _all_cache[key] = out
    return out


def _new_vertex_may_be_deleted(adj: tuple[int, ...], k: int) -> bool:
    """True when the last vertex, of minimum degree k, has the largest sorted
    tuple of neighbour degrees among the vertices of degree k."""
    deg = [row.bit_count() for row in adj]
    mine: list[int] | None = None
    for row in reversed(adj):  # the new vertex's tuple first
        if row.bit_count() != k:
            continue
        t = []
        while row:
            low = row & -row
            row ^= low
            t.append(deg[low.bit_length() - 1])
        t.sort()
        if mine is None:
            mine = t
        elif t > mine:
            return False
    return True


def check_orders(lo: int, hi: int, budget: int) -> None:
    """Raise ValueError unless 1 <= lo <= hi <= min(budget, MAX_ORDER)."""
    if budget < 1:
        raise ValueError(f"enumeration budget must be at least 1, got {budget}")
    top = min(budget, MAX_ORDER)
    if not 1 <= lo <= hi <= top:
        orders = f"order {lo}" if lo == hi else f"orders {lo}..{hi}"
        raise ValueError(f"{orders} outside the enumeration budget 1..{top}")


def connected_graphs(n: int, triangle_free: bool = False) -> list[Graph]:
    """Canonical representatives of the connected graphs on n vertices."""
    key = (n, triangle_free)
    if key not in _connected_cache:
        _connected_cache[key] = [g for g in all_graphs(n, triangle_free) if is_connected(g)]
    return _connected_cache[key]


def enumerate_connected(
    n: int,
    *,
    triangle_free: bool = False,
    budget: int = DEFAULT_BUDGET,
    cache_dir: str | Path | None = None,
) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of connected graphs of
    order n, in deterministic order.

    Raises at the call when n exceeds the budget (default 9) or MAX_ORDER;
    raise the budget explicitly for larger sweeps, at the cost of much longer
    runs.  The corpus is loaded or built at the first ``next()``.
    """
    check_orders(n, n, budget)
    return _stream(n, triangle_free, cache_dir)


def _stream(n: int, triangle_free: bool, cache_dir: str | Path | None) -> Iterator[Graph]:
    yield from _load_or_build_connected(n, triangle_free, cache_dir)


def _load_or_build_connected(
    n: int, triangle_free: bool, cache_dir: str | Path | None
) -> list[Graph]:
    if cache_dir is None:
        return connected_graphs(n, triangle_free)
    suffix = "-trianglefree" if triangle_free else ""
    path = (Path(cache_dir) / f"connected-n{n}{suffix}.g6").resolve()
    if path not in _file_cache:
        if path.exists():
            graphs = load_graph6_file(path)
            if not graphs:  # every order has a connected graph
                raise ValueError(f"cache file {path} holds no graphs")
            if any(g.n != n for g in graphs):
                raise ValueError(f"cache file {path} holds graphs whose order is not {n}")
            _file_cache[path] = graphs
        else:  # an unusable directory fails at mkdir, not after the build
            path.parent.mkdir(parents=True, exist_ok=True)
            graphs = connected_graphs(n, triangle_free)
            save_graph6_file(path, graphs)
            _file_cache[path] = graphs
    return _file_cache[path]
