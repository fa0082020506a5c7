"""Exhaustive small-graph corpora: one canonical representative per
isomorphism class.

Order n is built from order n-1 by vertex extension (B. D. McKay,
"Isomorph-free exhaustive generation", J. Algorithms 26, 1998): each
representative g of order n-1 gets a new vertex v joined to vertex sets S
that leave v with minimum degree, and the children are deduplicated by
canonical form, one edge count at a time.  Orbit pruning joins only the
first S of each orbit of Aut(g) on vertex sets (from the generators that
``canonical_labeling(g)`` finds) that passes the min-degree test and, for
triangle-free corpora, the independence test.  Canonical deletion labels a
child only if v has the largest sorted tuple of neighbour degrees among its
minimum-degree vertices.

No class is missed.  Let v be a minimum-degree vertex of a graph G with the
largest tuple, and f an isomorphism from G - v onto a representative g.
T = f(N(v)) passes both tests, which Aut(g) preserves, so some a(T), a in
Aut(g), is joined (a proper subgroup of Aut(g) would only join more sets);
that child is isomorphic to G with the new vertex in v's role, so it is
labeled.  Triangle-free corpora may join only independent S because G - v is
triangle-free when G is.  Connectivity is filtered at the end.

Computed corpora are cached in-process; a cache directory can also be used,
with the file layout ``connected-n{N}.g6`` / ``connected-n{N}-trianglefree.g6``
(written atomically).
"""

from __future__ import annotations

from itertools import combinations
from pathlib import Path
from typing import Iterator

from .graph6 import load_graph6_file, save_graph6_file, to_graph6
from .graphs import Graph, is_connected, iter_bits, mask_of
from .isomorphism import canonical_graph, canonical_labeling

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
        gens_of: dict[Graph, list[tuple[int, ...]]] = {}
        bit = 1 << (n - 1)
        out = []
        for m in range(n * (n - 1) // 2 + 1):
            level: set[Graph] = set()
            for k in range(min(m, n - 1) + 1):
                for g in by_edges.get(m - k, ()):
                    # The new vertex, of degree k, has minimum degree iff k is
                    # at most g's minimum degree + 1 and S holds the vertices
                    # of degree below k.  After the last such k, gens go.
                    deg = [row.bit_count() for row in g.adj]
                    last = min(min(deg) + 1, n - 1)
                    if k == 0:
                        gens_of[g] = canonical_labeling(g)[1]
                    gens = gens_of.pop(g) if k == last else gens_of.get(g)
                    low = mask_of(v for v, d in enumerate(deg) if d < k)
                    if k > last or low.bit_count() > k:
                        continue
                    seen: set[int] = set()
                    free = [v for v, d in enumerate(deg) if d >= k]
                    for t in combinations(free, k - low.bit_count()):
                        s = low | mask_of(t)
                        if s in seen or triangle_free and any(g.adj[v] & s for v in iter_bits(s)):
                            continue
                        if gens:
                            seen |= _orbit(s, gens)
                        adj = (*(row | bit if s >> v & 1 else row for v, row in enumerate(g.adj)), s)
                        if _new_vertex_may_be_deleted(adj, k):
                            level.add(canonical_graph(Graph._raw(n, adj)))
            out.extend(sorted(level, key=to_graph6))
    _all_cache[key] = out
    return out


def _orbit(s: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The vertex sets that products of ``gens`` map the set ``s`` onto."""
    orbit, stack = {s}, [s]
    while stack:
        t = list(iter_bits(stack.pop()))
        for u in (mask_of(p[v] for v in t) for p in gens):
            if u not in orbit:
                orbit.add(u)
                stack.append(u)
    return orbit


def _new_vertex_may_be_deleted(adj: tuple[int, ...], k: int) -> bool:
    """True when the last vertex, of minimum degree k, has the largest sorted
    tuple of neighbour degrees among the vertices of degree k."""
    deg = [row.bit_count() for row in adj]
    tuples = [sorted(deg[u] for u in iter_bits(row)) for row, d in zip(adj, deg) if d == k]
    return tuples[-1] == max(tuples)


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

    Raises when n exceeds the configured budget (default 9); raise the budget
    explicitly for larger sweeps, at the cost of much longer enumeration.
    """
    if not 1 <= n <= budget:
        raise ValueError(f"order {n} outside the enumeration budget 1..{budget}")
    yield from _load_or_build_connected(n, triangle_free, cache_dir)


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
