"""Structural recognizers: coronas, basic 5-cycles, the pendant/5-cycle
partition, and membership in the eleven-graph triangle-free family.

A 5-cycle is *basic* when it contains no two adjacent vertices of degree 3
or more (degrees measured in the whole graph).  A graph admits a
pendant/5-cycle partition when its vertex set splits into P, the vertices on
pendant edges (which must form a perfect matching of P), and C, covered
exactly by vertex-disjoint basic 5-cycles.  A vertex lying both on a pendant
edge and on a basic 5-cycle is assigned to P; the partition is then flagged
ambiguous.
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
    out = 0
    for v in range(g.n):
        if g.adj[v] | 1 << v == full:
            out |= 1 << v
    return out


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
    degs = [g.degree(v) for v in range(g.n)]
    if 0 in degs:
        return None
    leaves = [v for v in range(g.n) if degs[v] == 1]
    matched_leaf = {}  # core vertex -> its leaf
    leaf_set = set(leaves)
    ambiguous = False
    used = set()
    for v in leaves:
        if v in used:
            continue
        w = g.adj[v].bit_length() - 1  # the unique neighbor
        if w in leaf_set:  # K2 component: lower index becomes the core
            core_v, leaf_v = min(v, w), max(v, w)
            ambiguous = True
            used.add(leaf_v)
            matched_leaf[core_v] = leaf_v
        else:
            if w in matched_leaf:
                return None  # two leaves hang from one core vertex
            matched_leaf[w] = v
            used.add(v)
    core_vertices = [v for v in range(g.n) if v not in used]
    if any(v not in matched_leaf for v in core_vertices):
        return None  # some core vertex has no pendant copy
    core_mask = mask_of(core_vertices)
    core, labels = g.induced(core_mask)
    matching = tuple((v, matched_leaf[v]) for v in labels)
    return CoronaDecomposition(core, labels, matching, ambiguous)


def is_corona_of_connected(g: Graph) -> bool:
    dec = corona_decomposition(g)
    return dec is not None and is_connected(dec.core)


# -- basic 5-cycles and the pendant/5-cycle partition ------------------------------


def five_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All 5-cycles, each reported once as (a, b, c, d, e) with ``a`` the
    least vertex and ``b < e``; sorted."""
    out = []
    n = g.n
    for a in range(n):
        above = ~((1 << (a + 1)) - 1)
        for b in iter_bits(g.adj[a] & above):
            for c in iter_bits(g.adj[b] & above):
                for d in iter_bits(g.adj[c] & above & ~mask_of((b, c))):
                    for e in iter_bits(g.adj[d] & g.adj[a] & above & ~mask_of((b, c, d))):
                        if b < e:
                            out.append((a, b, c, d, e))
    return sorted(out)


def is_basic_five_cycle(g: Graph, cycle: tuple[int, ...]) -> bool:
    """No two adjacent vertices of the cycle both have degree >= 3."""
    heavy = [v for v in cycle if g.degree(v) >= 3]
    for i, u in enumerate(heavy):
        for v in heavy[i + 1:]:
            if g.has_edge(u, v):
                return False
    return True


def basic_five_cycles(g: Graph) -> list[tuple[int, ...]]:
    """All basic 5-cycles, in the deterministic order of :func:`five_cycles`."""
    return [c for c in five_cycles(g) if is_basic_five_cycle(g, c)]


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

    Pendant edges are forced first; the remainder must then be exactly
    covered by vertex-disjoint basic 5-cycles, found by backtracking.
    """
    pendant_edges = []
    for u, v in g.edges():
        if g.degree(u) == 1 or g.degree(v) == 1:
            pendant_edges.append((u, v))
    p_mask = 0
    for u, v in pendant_edges:
        if p_mask & (1 << u) or p_mask & (1 << v):
            return None  # pendant edges overlap: no perfect matching of P
        p_mask |= 1 << u | 1 << v
    c_mask = g.full_mask & ~p_mask
    cycles = basic_five_cycles(g)
    ambiguous = any(mask_of(c) & p_mask for c in cycles)
    usable = [c for c in cycles if not mask_of(c) & p_mask]

    chosen: list[tuple[int, ...]] = []

    def cover(remaining: int) -> bool:
        if not remaining:
            return True
        u = (remaining & -remaining).bit_length() - 1
        for cyc in usable:
            m = mask_of(cyc)
            if m & (1 << u) and m & remaining == m:
                chosen.append(cyc)
                if cover(remaining & ~m):
                    return True
                chosen.pop()
        return False

    if not cover(c_mask):
        return None
    matching = tuple(
        (u, v) if g.degree(v) == 1 else (v, u) for u, v in pendant_edges
    )
    return PCPartition(p_mask, c_mask, matching, tuple(chosen), ambiguous)


def _edges_between(g: Graph, m1: int, m2: int) -> list[tuple[int, int]]:
    out = []
    for u in iter_bits(m1):
        for v in iter_bits(g.adj[u] & m2):
            out.append((u, v))
    return out


def cycle_pair_link_ok(g: Graph, cyc1: tuple[int, ...], cyc2: tuple[int, ...]) -> bool:
    """The two 5-cycles are joined by no edge, exactly two vertex-disjoint
    edges, or exactly four edges."""
    edges = _edges_between(g, mask_of(cyc1), mask_of(cyc2))
    if len(edges) == 0 or len(edges) == 4:
        return True
    if len(edges) == 2:
        (a, b), (c, d) = edges
        return a != c and b != d
    return False


def _cycle_pairs_ok(g: Graph, cycles) -> bool:
    return all(
        cycle_pair_link_ok(g, c1, c2)
        for i, c1 in enumerate(cycles)
        for c2 in cycles[i + 1:]
    )


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
    return {
        canonical_graph(graph): tag
        for tag, graph in triangle_free_well_dominated_catalog().items()
    }


NOT_MEMBER = "not-member"


def classify_small_triangle_free(g: Graph) -> str:
    """Tag of the matching catalog graph among the eleven connected,
    triangle-free, well-dominated graphs with domination number <= 3,
    or ``"not-member"``."""
    if g.n > 7:
        return NOT_MEMBER
    return _family_keys().get(canonical_graph(g), NOT_MEMBER)
