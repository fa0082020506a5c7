"""Structural recognizers: coronas, basic 5-cycles, the pendant/5-cycle
partition, and membership in the eleven-graph triangle-free family.

A *corona* gives each core vertex exactly one pendant leaf.  One pass maps
each degree-1 vertex's neighbour (in a K2 component, the lower end) to it as
its core.  Cores and leaves are disjoint, so they cover the graph exactly
when the map has n/2 entries; a second leaf on one core overwrites the
first, and the lost leaf leaves the map short.

A 5-cycle is *basic* when no two adjacent vertices on it have degree 3 or
more in the whole graph: no vertex of the cycle's mask of such heavy
vertices has a heavy neighbour in that mask.  A pendant/5-cycle partition
splits the vertices into P, the vertices on pendant edges (which must form a
perfect matching of P), and C, covered exactly by vertex-disjoint basic
5-cycles.  A vertex on both a pendant edge and a basic 5-cycle goes to P,
and the partition is then flagged ambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .catalog import triangle_free_well_dominated_catalog
from .graphs import Graph, is_connected, iter_bits, mask_of
# canonical_key is not called here; perfbench/tracer.py patches it on this module.
from .isomorphism import canonical_graph, canonical_key  # noqa: F401


def universal_vertices(g: Graph) -> int:
    """Vertices adjacent to every other vertex."""
    full = g.full_mask
    return mask_of(v for v, row in enumerate(g.adj) if row | 1 << v == full)


def is_complete(g: Graph) -> bool:
    return g.edge_count == g.n * (g.n - 1) // 2


# -- corona recognition ---------------------------------------------------------


@dataclass(frozen=True)
class CoronaDecomposition:
    """Core graph, its original vertex labels, and the (core, leaf) matching.

    ``ambiguous`` is set when some matched pair had both endpoints of degree
    1 (a K2 component); the lower index is then taken as the core vertex.
    """

    core: Graph
    core_vertices: tuple[int, ...]
    matching: tuple[tuple[int, int], ...]
    ambiguous: bool


def corona_decomposition(g: Graph) -> CoronaDecomposition | None:
    """Recognize g as (core with one pendant leaf per core vertex), if possible."""
    adj = g.adj
    leaf_of = {}  # core vertex -> its leaf
    ambiguous = False
    for v, row in enumerate(adj):
        if not row or row & (row - 1):
            continue  # isolated, or of degree 2 or more
        w = row.bit_length() - 1
        if adj[w] == 1 << v:  # K2 component: the lower end is the core
            if w < v:
                continue
            v, w, ambiguous = w, v, True
        leaf_of[w] = v
    if 2 * len(leaf_of) != g.n:
        return None  # a vertex is isolated, uncovered, or a core's second leaf
    core, labels = g.induced(mask_of(leaf_of))  # the keys are the cores
    return CoronaDecomposition(core, labels, tuple((v, leaf_of[v]) for v in labels), ambiguous)


def is_corona_of_connected(g: Graph) -> bool:
    dec = corona_decomposition(g)
    return dec is not None and is_connected(dec.core)


# -- basic 5-cycles and the pendant/5-cycle partition ------------------------------


def five_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All 5-cycles, each reported once as (a, b, c, d, e) with ``a`` the
    least vertex and ``b < e``; sorted."""
    adj = g.adj
    out = []
    for a in range(g.n):
        above = -1 << (a + 1)
        for b in iter_bits(adj[a] & above):
            for c in iter_bits(adj[b] & above):
                for d in iter_bits(adj[c] & above & ~(1 << b)):
                    for e in iter_bits(adj[d] & adj[a] & above & ~(1 << b | 1 << c)):
                        if b < e:
                            out.append((a, b, c, d, e))
    return sorted(out)


def basic_five_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All basic 5-cycles, in the deterministic order of :func:`five_cycles`."""
    adj = g.adj
    heavy = mask_of(v for v, row in enumerate(adj) if row.bit_count() >= 3)
    out = []
    for cyc in five_cycles(g):
        m = mask_of(cyc) & heavy
        if not any(adj[v] & m for v in cyc if m >> v & 1):
            out.append(cyc)
    return out


@dataclass(frozen=True)
class PCPartition:
    """Partition of the vertices into pendant-matched P and 5-cycle-covered C."""

    p_mask: int
    c_mask: int
    pendant_matching: tuple[tuple[int, int], ...]
    basic_cycles: tuple[tuple[int, ...], ...]
    ambiguous: bool


def pc_partition(g: Graph) -> PCPartition | None:
    """The pendant/5-cycle partition, or None when no valid one exists.

    Pendant edges are forced first; a depth-first search on a stack then
    covers the rest by disjoint basic 5-cycles, tried in their listed order.
    """
    leaves = mask_of(v for v, row in enumerate(g.adj) if row.bit_count() == 1)
    p_mask = 0
    matching = []
    for u, v in g.edges():
        if (leaves >> u | leaves >> v) & 1:
            if p_mask & (1 << u | 1 << v):
                return None  # pendant edges overlap: no perfect matching of P
            p_mask |= 1 << u | 1 << v
            matching.append((u, v) if leaves >> v & 1 else (v, u))
    c_mask = g.full_mask & ~p_mask
    cycles = basic_five_cycles(g)
    usable = [(c, m) for c in cycles if not (m := mask_of(c)) & p_mask]
    stack = [(c_mask, ())]
    while stack:
        remaining, chosen = stack.pop()
        if not remaining:
            return PCPartition(p_mask, c_mask, tuple(matching), chosen,
                               len(usable) < len(cycles))
        low = remaining & -remaining
        stack.extend((remaining ^ m, chosen + (c,))
                     for c, m in reversed(usable) if m & low and m & remaining == m)
    return None


def _cycle_pairs_ok(g: Graph, cycles) -> bool:
    """Every pair is joined by no edge, two vertex-disjoint edges or four
    edges.  Row ``adj[u] & other`` holds the edges from u on the first cycle;
    two edges are disjoint when they sit in two rows that differ."""
    adj = g.adj
    masks = [mask_of(c) for c in cycles]
    for i, cyc in enumerate(cycles):
        for other in masks[i + 1:]:
            rows = [row for u in cyc if (row := adj[u] & other)]
            edges = sum(row.bit_count() for row in rows)
            if edges not in (0, 4) and not (edges == len(rows) == 2 and rows[0] != rows[1]):
                return False
    return True


def check_pc_well_dominated(g: Graph, pc: PCPartition) -> bool:
    """Every pair of the partition's basic 5-cycles satisfies the 0/2/4 edge
    condition (two joining edges must be vertex-disjoint)."""
    if pc.p_mask | pc.c_mask != g.full_mask or pc.p_mask & pc.c_mask:
        raise ValueError("partition does not match the graph")
    return _cycle_pairs_ok(g, pc.basic_cycles)


def all_basic_cycle_pairs_ok(g: Graph) -> bool:
    """The 0/2/4 edge condition over every pair of basic 5-cycles of g."""
    return _cycle_pairs_ok(g, basic_five_cycles(g))


# -- the eleven-graph family ---------------------------------------------------------


@lru_cache(maxsize=1)
def _family_keys() -> dict[Graph, str]:
    return {canonical_graph(h): tag for tag, h in triangle_free_well_dominated_catalog().items()}


NOT_MEMBER = "not-member"


def classify_small_triangle_free(g: Graph) -> str:
    """Tag of the matching catalog graph among the eleven connected,
    triangle-free, well-dominated graphs with domination number <= 3,
    or ``"not-member"``."""
    if g.n > 7:
        return NOT_MEMBER
    return _family_keys().get(canonical_graph(g), NOT_MEMBER)
