"""Exhaustive small-graph corpora: one canonical representative per
isomorphism class.

Order n is built from order n-1 by vertex extension: each representative g
of order n-1 gets a new vertex joined to each vertex set S that leaves the
new vertex with minimum degree, and the children are deduplicated by
canonical form, one edge count at a time.  No class is missed: deleting a
minimum-degree vertex v from any graph G leaves a graph isomorphic to some
representative g, and G is g plus a vertex joined to the image of N(v), a
vertex of minimum degree.  Triangle-free corpora join only independent sets
S, which is sound because G - v is triangle-free when G is.  Connectivity is
filtered at the end.

Computed corpora are cached in-process; a cache directory can also be used,
with the file layout ``connected-n{N}.g6`` / ``connected-n{N}-trianglefree.g6``
(written atomically).
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path
from typing import Callable, Iterator

from .graph6 import load_graph6_file, save_graph6_file, to_graph6
from .graphs import Graph, is_connected, iter_bits, mask_of
from .isomorphism import canonical_graph

DEFAULT_BUDGET = 9

_all_cache: dict[tuple[int, bool], list[Graph]] = {}
_connected_cache: dict[tuple[int, bool], list[Graph]] = {}


def all_graphs(n: int, triangle_free: bool = False) -> list[Graph]:
    """Canonical representatives of every graph on n vertices (connected or
    not), in deterministic order: by edge count, then by graph6 string."""
    key = (n, triangle_free)
    if key in _all_cache:
        return _all_cache[key]
    if n == 1:
        out = [Graph(1)]
    else:
        by_edges: dict[int, list[Graph]] = {}
        for g in all_graphs(n - 1, triangle_free):
            by_edges.setdefault(g.edge_count, []).append(g)
        bit = 1 << (n - 1)
        out = []
        for m in range(n * (n - 1) // 2 + 1):
            level: set[Graph] = set()
            for k in range(min(m, n - 1) + 1):
                for g in by_edges.get(m - k, ()):
                    for s in map(mask_of, combinations(range(n - 1), k)):
                        if triangle_free and any(g.adj[v] & s for v in iter_bits(s)):
                            continue
                        adj = [row | bit if s >> v & 1 else row for v, row in enumerate(g.adj)]
                        if min(map(int.bit_count, adj)) >= k:
                            level.add(canonical_graph(Graph._raw(n, (*adj, s))))
            out.extend(sorted(level, key=to_graph6))
    _all_cache[key] = out
    return out


def connected_graphs(n: int, triangle_free: bool = False) -> list[Graph]:
    """Canonical representatives of the connected graphs on n vertices."""
    key = (n, triangle_free)
    if key not in _connected_cache:
        _connected_cache[key] = [g for g in all_graphs(n, triangle_free) if is_connected(g)]
    return _connected_cache[key]


def enumerate_connected(
    n: int,
    predicate: Callable[[Graph], bool] | None = None,
    triangle_free: bool = False,
    budget: int = DEFAULT_BUDGET,
    cache_dir: str | Path | None = None,
) -> Iterator[Graph]:
    """Stream one representative per isomorphism class of connected graphs of
    order n passing the filter, in deterministic order.

    Raises when n exceeds the configured budget (default 9); raise the budget
    explicitly for larger sweeps, at the cost of much longer enumeration.
    """
    if not 1 <= n <= budget:
        raise ValueError(f"order {n} outside the enumeration budget 1..{budget}")
    graphs = _load_or_build_connected(n, triangle_free, cache_dir)
    for g in graphs:
        if predicate is None or predicate(g):
            yield g


def _cache_path(cache_dir: str | Path, n: int, triangle_free: bool) -> Path:
    suffix = "-trianglefree" if triangle_free else ""
    return Path(cache_dir) / f"connected-n{n}{suffix}.g6"


def _load_or_build_connected(
    n: int, triangle_free: bool, cache_dir: str | Path | None
) -> list[Graph]:
    path = None if cache_dir is None else _cache_path(cache_dir, n, triangle_free)
    if path is not None and path.exists() and (n, triangle_free) not in _connected_cache:
        _connected_cache[n, triangle_free] = load_graph6_file(path)
    graphs = connected_graphs(n, triangle_free)
    if path is not None and not path.exists():
        save_graph6_file(path, graphs)
    return graphs
