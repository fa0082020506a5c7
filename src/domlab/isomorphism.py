"""Exact graph isomorphism via canonical labeling.

The canonical form is computed by iterative color refinement plus
individualization, searching for the labeling whose upper-triangle adjacency
bitstring is lexicographically smallest.  Automorphisms discovered when two
leaves of the search tree produce identical encodings are used to prune
branches that individualize vertices from the same orbit, which keeps highly
symmetric graphs (complete graphs, cycles, products) cheap.  Transpositions
of twin vertices seed those automorphisms at the root.  Pruning by
automorphisms only skips leaves that share an encoding with one searched, so
the smallest leaf, and hence the canonical form, does not depend on them.

Refinement signs a vertex with its counts of neighbours in the current cells,
packed into one int, 6 bits per cell, first cell highest: a count is below
MAX_ORDER = 62 < 64, and every signature of one round has as many cells, so
the ints sort as the tuples of counts would.

A search node whose cells of two or more vertices are each a set of twins
(all equal open rows, or all equal closed rows) is finished as a leaf that
lists each cell's vertices in ascending order.  It is the leaf the search
reaches below that node by individualizing the lowest vertex of a cell in
turn, and the search reaches no other leaf there:

- twins are adjacent to the same vertices outside their cell, so
  individualizing one splits no other cell and leaves the rest a cell of
  twins;
- the chained swaps of consecutive twins that are not yet individualized
  fix the individualized prefix, so they map any sibling to the lowest such
  twin, tried first; by induction the individualized members of a twin class
  are always its lowest, and these swaps prune every sibling below the node.

So no leaf and no generator is lost: the labels and the generators are those
of the full search.  The first leaf is encoded only when a second one comes.

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
            groups: dict[int, int] = {}
            rest = cell
            while rest:
                low = rest & -rest
                rest ^= low
                row = adj[low.bit_length() - 1]
                sig = 0
                for c in cells:
                    sig = sig << 6 | (row & c).bit_count()
                groups[sig] = groups.get(sig, 0) | low
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


def orbit(s: int, gens: list[tuple[int, ...]]) -> set[int]:
    """The vertex sets that products of ``gens`` map the set ``s`` onto."""
    found, stack = {s}, [s]
    while stack:
        t, vs = stack.pop(), []
        while t:
            low = t & -t
            t ^= low
            vs.append(low.bit_length() - 1)
        for p in gens:
            u = 0
            for v in vs:
                u |= 1 << p[v]
            if u not in found:
                found.add(u)
                stack.append(u)
    return found


def canonical_labeling(g: Graph) -> tuple[list[int], list[tuple[int, ...]]]:
    """Canonical labeling of ``g`` and automorphisms of ``g`` found on the
    way: ``lab[i]`` is the original vertex placed at position ``i`` of the
    canonical form, and each generator maps vertex ``v`` to ``p[v]``."""
    n, adj = g.n, g.adj
    bydeg: dict[int, int] = {}
    for v in range(n):
        d = adj[v].bit_count()
        bydeg[d] = bydeg.get(d, 0) | (1 << v)
    cells = _refine(n, adj, [bydeg[d] for d in sorted(bydeg)])

    best_enc = 0  # set with the second leaf
    best_lab: list[int] | None = None
    leaves: dict[int, list[int]] = {}
    gens: list[tuple[int, ...]] = []
    # Twins (equal open rows, or equal closed rows) share a cell, and swapping
    # two is an automorphism.  Chained swaps (previous twin, v) survive the
    # stabilizer filter below while the lower twins get individualized.
    # classes maps a row to the twins that have it; a vertex has nontrivial
    # twins of one kind at most.
    classes: dict[int, int] = {}
    for v in iter_bits(sum(cell for cell in cells if cell & (cell - 1))):
        for row in (adj[v], adj[v] | 1 << v):
            cls = classes.get(row, 0)
            if cls:
                u = cls.bit_length() - 1
                p = list(range(n))
                p[v], p[u] = u, v
                gens.append(tuple(p))
            classes[row] = cls | 1 << v
    twins = [classes.get(row, 0) | classes.get(row | 1 << v, 0) for v, row in enumerate(adj)]

    def search(cells: list[int], fixed: tuple[int, ...]) -> None:
        nonlocal best_enc, best_lab
        target = -1
        tsize = n + 1
        leaf = True  # every cell of two or more vertices is a set of twins
        for idx, cell in enumerate(cells):
            size = cell.bit_count()
            if size > 1:
                if size < tsize:
                    target = idx
                    tsize = size
                if leaf:
                    cls = twins[(cell & -cell).bit_length() - 1]
                    leaf = cell | cls == cls
        if leaf:
            lab = []
            for cell in cells:
                while cell:
                    low = cell & -cell
                    cell ^= low
                    lab.append(low.bit_length() - 1)
            if best_lab is None:
                best_lab = lab
                return
            if not leaves:
                best_enc = _encode(n, adj, best_lab)
                leaves[best_enc] = best_lab
            enc = _encode(n, adj, lab)
            other = leaves.get(enc)
            if other is None:
                leaves[enc] = lab
                if enc < best_enc:
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
            search(_refine(n, adj, prefix + [1 << u, cell ^ (1 << u)] + suffix), fixed + (u,))
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
    rows = []
    for v in lab:
        row, rest = 0, g.adj[v]
        while rest:
            low = rest & -rest
            rest ^= low
            row |= 1 << perm[low.bit_length() - 1]
        rows.append(row)
    return Graph._raw(g.n, tuple(rows))


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
