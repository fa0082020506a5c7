"""Exact graph isomorphism via canonical labeling.

The canonical form is computed by iterative color refinement plus
individualization, searching for the labeling whose upper-triangle adjacency
bitstring is lexicographically smallest.  Automorphisms discovered when two
leaves of the search tree produce identical encodings are used to prune
branches that individualize vertices from the same orbit, which keeps highly
symmetric graphs (complete graphs, cycles, products) cheap.

Canonical labeling rather than invariant fingerprints is used throughout so
that corpus deduplication is exact.
"""

from __future__ import annotations

from .graph6 import to_graph6
from .graphs import Graph, iter_bits


def _refine(n: int, adj: tuple[int, ...], cells: list[int]) -> list[int]:
    """Split cells until the coloring is equitable.

    A vertex signature is its count of neighbors in every current cell; cells
    split by signature, subcells ordered by sorted signature so the outcome
    is independent of vertex labels.
    """
    while True:
        changed = False
        new: list[int] = []
        for cell in cells:
            if cell & (cell - 1) == 0:  # singleton
                new.append(cell)
                continue
            groups: dict[tuple[int, ...], int] = {}
            for v in iter_bits(cell):
                row = adj[v]
                sig = tuple((row & c).bit_count() for c in cells)
                groups[sig] = groups.get(sig, 0) | (1 << v)
            if len(groups) == 1:
                new.append(cell)
            else:
                changed = True
                for sig in sorted(groups):
                    new.append(groups[sig])
        cells = new
        if not changed:
            return cells


def _encode(n: int, adj: tuple[int, ...], lab: list[int]) -> int:
    # Upper-triangle adjacency bits, row-major, under the labeling
    # position -> vertex given by lab.
    enc = 0
    for i in range(n):
        row = adj[lab[i]]
        for j in range(i + 1, n):
            enc = enc << 1 | (row >> lab[j] & 1)
    return enc


def _orbit_reaches(start: int, targets: list[int], gens: list[tuple[int, ...]]) -> bool:
    """True when some product of ``gens`` maps ``start`` into ``targets``."""
    seen = {start}
    stack = [start]
    tset = set(targets)
    while stack:
        v = stack.pop()
        if v in tset:
            return True
        for p in gens:
            w = p[v]
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return False


def canonical_labeling(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """Canonical labeling of ``g`` and automorphisms of ``g`` found on the
    way: ``lab[i]`` is the original vertex placed at position ``i`` of the
    canonical form, and each generator maps vertex ``v`` to ``p[v]``."""
    n, adj = g.n, g.adj
    bydeg: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        bydeg[d] = bydeg.get(d, 0) | (1 << v)
    cells = [bydeg[d] for d in sorted(bydeg)]

    best_enc: int | None = None
    best_lab: list[int] | None = None
    leaves: dict[int, list[int]] = {}
    gens: list[tuple[int, ...]] = []

    def search(cells: list[int], fixed: tuple[int, ...]) -> None:
        nonlocal best_enc, best_lab
        cells = _refine(n, adj, cells)
        target = -1
        tsize = n + 1
        for idx, cell in enumerate(cells):
            size = cell.bit_count()
            if 1 < size < tsize:
                target = idx
                tsize = size
        if target < 0:
            lab = [cell.bit_length() - 1 for cell in cells]
            enc = _encode(n, adj, lab)
            other = leaves.get(enc)
            if other is None:
                leaves[enc] = lab
                if best_enc is None or enc < best_enc:
                    best_enc, best_lab = enc, lab
            else:
                perm = [0] * n
                for i in range(n):
                    perm[other[i]] = lab[i]
                gens.append(tuple(perm))
            return
        cell = cells[target]
        prefix = cells[:target]
        suffix = cells[target + 1:]
        tried: list[int] = []
        # Automorphisms that fix the individualized prefix; gens only grows,
        # so each sibling filters just the generators found since the last.
        usable: list[tuple[int, ...]] = []
        filtered = 0
        for u in iter_bits(cell):
            if tried:
                usable.extend(p for p in gens[filtered:] if all(p[f] == f for f in fixed))
                filtered = len(gens)
                if usable and _orbit_reaches(u, tried, usable):
                    continue
            search(prefix + [1 << u, cell ^ (1 << u)] + suffix, fixed + (u,))
            tried.append(u)

    search(cells, ())
    assert best_lab is not None
    return best_lab, gens


def canonical_graph(g: Graph) -> Graph:
    """The canonically labeled copy of ``g``."""
    lab = canonical_labeling(g)[0]
    perm = [0] * g.n
    for i, v in enumerate(lab):
        perm[v] = i
    return g.relabeled(perm)


def canonical_key(g: Graph) -> str:
    """Hashable exact isomorphism key: graph6 of the canonical form."""
    return to_graph6(canonical_graph(g))


def are_isomorphic(g: Graph, h: Graph) -> bool:
    """Exact isomorphism test via canonical forms."""
    if g.n != h.n or g.edge_count != h.edge_count:
        return False
    if g.degree_sequence() != h.degree_sequence():
        return False
    return canonical_graph(g) == canonical_graph(h)
