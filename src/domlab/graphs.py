"""Immutable bitset-backed simple graphs and basic structural primitives.

Vertices are dense 0-based indices ``0..n-1``.  Adjacency is one Python int
per vertex: bit ``u`` of ``adj[v]`` is set exactly when ``uv`` is an edge.
Every vertex-set argument and result in this package is such a bitmask,
which keeps the exhaustive sweeps fast without native extensions.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Sequence

#: Largest supported order; the short graph6 form encodes orders up to 62.
MAX_ORDER = 62

INFINITY = math.inf


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in increasing order.  For code
    outside the hot loops, which walk ``low = mask & -mask`` inline."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(vertices: Iterable[int]) -> int:
    """Bitmask with exactly the given vertex indices set."""
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask: int) -> tuple[int, ...]:
    """Sorted tuple of the vertex indices in ``mask``."""
    return tuple(iter_bits(mask))


class Graph:
    """A finite simple undirected graph on vertices ``0..n-1``.

    Instances are immutable after construction, so any number of concurrent
    readers is safe; they compare and hash by value (``n`` and ``adj``), so
    they can key sets and dicts.  Derived graphs such as :meth:`relabeled`
    are new instances.  Each instance keeps its own :meth:`fact` memo, its
    one mutable part, which equality and hashing ignore.
    """

    __slots__ = ("n", "adj", "_facts")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not 1 <= n <= MAX_ORDER:
            raise ValueError(f"order must be between 1 and {MAX_ORDER}, got {n}")
        adj = [0] * n
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for order {n}")
            if u == v:
                raise ValueError(f"loop at vertex {u} is not allowed")
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self.adj = tuple(adj)
        self._facts = None

    @classmethod
    def _raw(cls, n: int, adj: tuple[int, ...]) -> "Graph":
        # Internal fast path: trusts that adj is symmetric and loop-free.
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g._facts = None
        return g

    def fact(self, fn):
        """``fn(self)``, computed at the first call with this ``fn`` and kept
        while this graph lives; a call that raises keeps nothing."""
        facts = self._facts
        if facts is None:
            facts = self._facts = {}
        if fn not in facts:
            facts[fn] = fn(self)
        return facts[fn]

    # -- basic accessors ------------------------------------------------

    @property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    @property
    def edge_count(self) -> int:
        return sum(row.bit_count() for row in self.adj) // 2

    def edges(self) -> Iterator[tuple[int, int]]:
        """Yield edges as pairs ``(u, v)`` with ``u < v``, sorted."""
        for u in range(self.n):
            for v in iter_bits(self.adj[u] >> (u + 1)):
                yield u, u + 1 + v

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted((row.bit_count() for row in self.adj), reverse=True))

    # -- derived graphs --------------------------------------------------

    def induced(self, mask: int) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on ``mask``.

        Returns the subgraph (with vertices relabeled ``0..k-1`` in increasing
        original order) together with the tuple mapping new index -> original
        vertex.
        """
        keep = set_of(mask)
        if not keep:
            raise ValueError("induced subgraph needs at least one vertex")
        pos = {v: i for i, v in enumerate(keep)}
        adj = [0] * len(keep)
        for i, v in enumerate(keep):
            for u in iter_bits(self.adj[v] & mask):
                adj[i] |= 1 << pos[u]
        return Graph._raw(len(keep), tuple(adj)), keep

    def relabeled(self, perm: Sequence[int]) -> "Graph":
        """Image of this graph under ``perm`` (``perm[old] = new``)."""
        if sorted(perm) != list(range(self.n)):
            raise ValueError("perm is not a permutation of the vertices")
        adj = [0] * self.n
        for v in range(self.n):
            row = 0
            for u in iter_bits(self.adj[v]):
                row |= 1 << perm[u]
            adj[perm[v]] = row
        return Graph._raw(self.n, tuple(adj))

    # -- dunder plumbing --------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph({self.n}, {list(self.edges())!r})"


# -- neighborhoods ---------------------------------------------------------


def closed_neighborhood(g: Graph, s: int) -> int:
    """N[S]: the union of S with all neighbors of its members."""
    out = s
    for v in iter_bits(s):
        out |= g.adj[v]
    return out


def open_neighborhood(g: Graph, s: int) -> int:
    """N(S): the union of the open neighborhoods of the members of S."""
    out = 0
    for v in iter_bits(s):
        out |= g.adj[v]
    return out


# -- distances and connectivity ---------------------------------------------


def distance(g: Graph, u: int, v: int) -> float:
    """Length of a shortest u,v-path; ``math.inf`` across components."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise ValueError("vertex index out of range")
    seen = level = 1 << u
    d = 0
    while level and not level >> v & 1:  # level d of a breadth-first search from u
        level = open_neighborhood(g, level) & ~seen
        seen |= level
        d += 1
    return d if level else INFINITY


def is_connected(g: Graph) -> bool:
    """True when the component of vertex 0 holds every vertex."""
    return components(g)[0] == g.full_mask


def components(g: Graph) -> list[int]:
    """Vertex masks of the connected components, ordered by least vertex."""
    out = []
    left = g.full_mask
    while left:
        start = left & -left
        seen = start
        frontier = start
        while frontier:
            nxt = 0
            while frontier:
                low = frontier & -frontier
                nxt |= g.adj[low.bit_length() - 1]
                frontier ^= low
            frontier = nxt & ~seen
            seen |= frontier
        out.append(seen)
        left &= ~seen
    return out


def girth(g: Graph) -> float:
    """Length of a shortest cycle; ``math.inf`` for forests.

    Runs one BFS per vertex; the shortest cycle through the BFS root is the
    first non-tree adjacency found level by level.
    """
    best = INFINITY
    for root in range(g.n):
        if best == 3:  # no cycle is shorter
            break
        seen = level = 1 << root
        d = 0
        while level and 2 * d + 1 < best:
            nxt, rest = 0, level
            while rest:
                low = rest & -rest
                rest ^= low
                row = g.adj[low.bit_length() - 1]
                if row & level:  # an edge inside level d
                    best = min(best, 2 * d + 1)
                elif row & nxt:  # a second way into level d + 1
                    best = min(best, 2 * d + 2)
                nxt |= row & ~seen
            seen |= nxt
            level = nxt
            d += 1
    return best


def is_triangle_free(g: Graph) -> bool:
    """True when the girth is at least 4 (forests count as triangle-free)."""
    return girth(g) >= 4
