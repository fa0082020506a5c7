"""Exact domination and independence invariants.

All solvers work on bitmask vertex sets.  One branching kernel,
``_minimal_sets``, serves four searches: minimal dominating sets (closed
rows), minimal total dominating sets (open rows), maximal independent sets
and isolatable vertices.  It walks an explicit stack, branches on the
lowest-index uncovered vertex and pushes each vertex that covers it,
highest first, with the lower candidates forbidden in its subtree (so the
lowest is popped first), and prunes a branch in which a chosen vertex
dominates no vertex alone (a mask of the vertices dominated exactly once
shows this without a rescan).  That tree visits every minimal cover
exactly once and supports early exit, which the well-dominated decider
uses.  Under a size bound the kernel also cuts nodes that cannot reach a
cover within it: gamma is the last set of a stream whose bound drops below
each set found, and the minimum dominating sets are the stream bounded by
gamma.  Under a size floor, its mirror, the kernel cuts nodes that cannot
grow past it: every member added below a node needs a private vertex the
node leaves undominated, so at most as many members as undominated
vertices can join.  Gamma is the final floor of a stream whose floor starts
at a greedy maximal independent set and rises to each set found.  The
public generators re-yield the sets in lexicographic order for
reproducible reports.

The other two run under a lock: a chosen vertex c forbids N[c] in its
subtree, so only independent sets are built.  The maximal independent sets
are the independent dominating sets, so they are the dominating stream
under the lock.  A vertex x is isolatable when some independent set
avoiding N[x] covers N(x) by open rows; the kernel asks for one such cover
with N[x] forbidden from the start (a minimal cover inside an independent
cover is itself independent).  Under a lock the private-neighbor prune is
skipped: on closed rows an independent member is its own private vertex,
so the prune never fires, and the isolatable search needs any one cover.

A verdict is its certificate: ``is_well_covered`` and ``is_well_dominated``
are ``certificate is None``, and each property has one uncached search.
The well-covered certificate starts from two greedy maximal independent
sets, in ascending and in descending degree order, and searches only when
their sizes agree.  The well-dominated certificate returns the well-covered
one when there is one, since a maximal independent set is a minimal
dominating set (so well-dominated graphs are well-covered: Finbow,
Hartnell and Nowakowski, Ars Combin. 25A, 1988); otherwise it scans the
minimal-dominating stream against the size of its first set, without gamma.
Only the two searches behind gamma, i and alpha are kept, as facts of the
graph (:meth:`Graph.fact`): ``domination_number`` reads the kept
``minimum_dominating_set``, and ``independence_number`` and
``independent_domination_number`` the kept ``_mis_extrema``.  The theorems
ask for these numbers of one graph many times.

The vertex-set predicates (minimal domination, maximal independence,
private neighbors, open irredundance, 2-packing) and the greedy procedure
share the kernel's dominated-once rule: ``_dominated_once`` builds N[S] and
the mask of the vertices exactly one member dominates, with the kernel's
update, and each predicate is one test on the two masks.

The greedy procedure mirrors the classical one for well-dominated graphs:
start from all vertices and drop each vertex, in the given order, whenever
no vertex of its closed neighborhood is dominated exactly once.  No
asymptotic promise is made for it here; it is implemented for its
behavioral guarantees (minimality, and constant output size on
well-dominated graphs), not its running time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .graphs import Graph, closed_neighborhood, iter_bits, set_of


def _closed_adj(g: Graph) -> list[int]:
    return [g.adj[v] | (1 << v) for v in range(g.n)]


# -- elementary predicates ---------------------------------------------------


def is_dominating(g: Graph, s: int) -> bool:
    """True when N[s] covers every vertex."""
    return closed_neighborhood(g, s) == g.full_mask


def _dominated_once(g: Graph, s: int) -> tuple[int, int]:
    """(N[s], the vertices that exactly one member of s dominates), built
    member by member with the update of ``_minimal_sets``."""
    dom = once = 0
    while s:
        low = s & -s
        row = g.adj[low.bit_length() - 1] | low
        once = once & ~row | row & ~dom
        dom |= row
        s ^= low
    return dom, once


def private_neighbors(g: Graph, v: int, s: int) -> int:
    """pn[v, s]: vertices u whose closed neighborhood meets s exactly in v."""
    if not s >> v & 1:
        raise ValueError(f"vertex {v} is not in the set")
    return (g.adj[v] | 1 << v) & _dominated_once(g, s)[1]


def is_minimal_dominating(g: Graph, s: int) -> bool:
    """Dominating, and every member keeps a private neighbor."""
    dom, once = _dominated_once(g, s)
    if dom != g.full_mask:
        return False
    while s:
        low = s & -s
        if not (g.adj[low.bit_length() - 1] | low) & once:
            return False
        s ^= low
    return True


def is_maximal_independent(g: Graph, s: int) -> bool:
    """Dominating and independent; a member is dominated only by itself
    exactly when it has no neighbor in the set."""
    dom, once = _dominated_once(g, s)
    return dom == g.full_mask and not s & ~once


# -- the branching kernel -----------------------------------------------------


def _minimal_sets(
    rows: Sequence[int],
    full: int,
    bound: list[int] | None = None,
    lock: Sequence[int] | None = None,
    forbidden: int = 0,
    floor: list[int] | None = None,
) -> Iterator[int]:
    """Every minimal set whose rows cover ``full``, once each, in DFS order.

    ``rows[v]`` is the mask that v dominates, and no vertex of ``forbidden``
    is chosen.  Stack entries are (set, dominated, dominated once,
    forbidden, size).  With ``bound``, only sets of at most ``bound[0]``
    members come out, and the caller may lower ``bound[0]`` between
    results.  With ``floor`` (free kernel only), only sets of more than
    ``floor[0]`` members come out, and the caller may raise ``floor[0]``.
    With ``lock``, a chosen vertex c forbids ``lock[c]`` in its subtree and
    the private-neighbor prune is skipped: every cover the lock allows that
    this branching reaches comes out once, minimal or not.
    """
    stack = [(0, 0, 0, forbidden, 0)]
    while stack:
        s, dom, once, forbidden, size = stack.pop()
        if bound is not None and size > bound[0]:
            continue
        rem = full & ~dom
        # Each member added below keeps a private vertex of rem.
        if floor is not None and size + rem.bit_count() <= floor[0]:
            continue
        if not rem:
            yield s
            continue
        if bound is not None:
            room = bound[0] - size
            if not room:
                continue
            maxcov = 0
            for row in rows:
                cov = (row & rem).bit_count()
                if cov > maxcov:
                    maxcov = cov
            if rem.bit_count() > room * maxcov:
                continue
        u = (rem & -rem).bit_length() - 1
        cand = rows[u] & ~forbidden
        while cand:
            c = cand.bit_length() - 1
            cand ^= 1 << c
            row = rows[c]
            if lock is not None:
                stack.append((s | 1 << c, dom | row, 0, forbidden | cand | lock[c], size + 1))
            else:
                once2 = once & ~row | row & ~dom
                # c keeps u; a member can only lose vertices c dominates again.
                m = s if once & row else 0
                while m:
                    low = m & -m
                    if not rows[low.bit_length() - 1] & once2:
                        break
                    m ^= low
                else:
                    stack.append((s | 1 << c, dom | row, once2, forbidden | cand, size + 1))


def _iter_minimal_dominating(g: Graph) -> Iterator[int]:
    """Every minimal dominating set exactly once, in branching (DFS) order."""
    return _minimal_sets(_closed_adj(g), g.full_mask)


def minimal_dominating_sets(g: Graph) -> Iterator[int]:
    """All minimal dominating sets, in lexicographic vertex-tuple order."""
    yield from sorted(_iter_minimal_dominating(g), key=set_of)


def _iter_maximal_independent(g: Graph) -> Iterator[int]:
    """Every maximal independent set exactly once, in branching (DFS) order:
    the dominating sets whose members lock their closed neighborhoods."""
    closed = _closed_adj(g)
    return _minimal_sets(closed, g.full_mask, lock=closed)


def maximal_independent_sets(g: Graph) -> Iterator[int]:
    """All maximal independent sets, in lexicographic vertex-tuple order."""
    yield from sorted(_iter_maximal_independent(g), key=set_of)


def _iter_minimal_total_dominating(g: Graph) -> Iterator[int]:
    """Minimal total dominating sets; the graph must have no isolated vertex."""
    return _minimal_sets(g.adj, g.full_mask)


# -- optimization -------------------------------------------------------------


def _greedy_cover(g: Graph) -> int:
    cadj = _closed_adj(g)
    undominated = g.full_mask
    s = 0
    while undominated:
        best_v, best_cov = 0, -1
        for v in range(g.n):
            cov = (cadj[v] & undominated).bit_count()
            if cov > best_cov:
                best_v, best_cov = v, cov
        s |= 1 << best_v
        undominated &= ~cadj[best_v]
    return s


def minimum_dominating_set(g: Graph) -> int:
    """One minimum dominating set: the last of a stream whose size bound
    starts just below the greedy cover and drops below each set found."""
    best = _greedy_cover(g)
    bound = [best.bit_count() - 1]
    for best in _minimal_sets(_closed_adj(g), g.full_mask, bound):
        bound[0] = best.bit_count() - 1
    return best


def domination_number(g: Graph) -> int:
    return g.fact(minimum_dominating_set).bit_count()


def minimum_dominating_sets(g: Graph) -> list[int]:
    """All dominating sets of minimum size, in lexicographic order."""
    bound = [domination_number(g)]
    return sorted(_minimal_sets(_closed_adj(g), g.full_mask, bound), key=set_of)


def _size_extrema(sets: Iterable[int]) -> tuple[int, int, int]:
    """(smallest size, largest size, first set of the largest size)."""
    lo = hi = -1
    widest = 0
    for s in sets:
        k = s.bit_count()
        if lo < 0 or k < lo:
            lo = k
        if k > hi:
            hi, widest = k, s
    return lo, hi, widest


def _mis_extrema(g: Graph) -> tuple[int, int, int]:
    """(i, alpha, a maximum independent set)."""
    return _size_extrema(_iter_maximal_independent(g))


def independence_number(g: Graph) -> int:
    return g.fact(_mis_extrema)[1]


def independent_domination_number(g: Graph) -> int:
    return g.fact(_mis_extrema)[0]


def upper_domination_number(g: Graph) -> int:
    """Gamma: the final floor of a stream whose floor starts at a greedy
    maximal independent set (a minimal dominating set) and rises to each
    set found."""
    floor = [_greedy_independent(g.adj, range(g.n)).bit_count()]
    for s in _minimal_sets(_closed_adj(g), g.full_mask, floor=floor):
        floor[0] = s.bit_count()
    return floor[0]


# -- well-dominated / well-covered deciders -----------------------------------


def _two_sizes(first: int, rest: Iterable[int]) -> tuple[int, int] | None:
    """``first`` and the first set of ``rest`` whose size differs from it,
    smaller first; None when every set has the size of ``first``."""
    k = first.bit_count()
    for s in rest:
        if s.bit_count() != k:
            return (first, s) if k < s.bit_count() else (s, first)
    return None


def well_covered_certificate(g: Graph) -> tuple[int, int] | None:
    """None when well-covered, else two maximal independent sets of
    different sizes (smaller first).  The greedy sets in ascending and in
    descending degree order come first; the search runs only when their
    sizes agree."""
    order = sorted(range(g.n), key=[row.bit_count() for row in g.adj].__getitem__)
    first = _greedy_independent(g.adj, order)
    return (_two_sizes(first, [_greedy_independent(g.adj, reversed(order))])
            or _two_sizes(first, _iter_maximal_independent(g)))


def is_well_covered(g: Graph) -> bool:
    return well_covered_certificate(g) is None


def well_dominated_certificate(g: Graph) -> tuple[int, int] | None:
    """None when well-dominated, else two minimal dominating sets of
    different sizes (smaller first): the well-covered certificate if there
    is one, else the minimal-dominating stream against its first set."""
    cert = well_covered_certificate(g)
    if cert is not None:
        return cert
    stream = _iter_minimal_dominating(g)
    return _two_sizes(next(stream), stream)


def is_well_dominated(g: Graph) -> bool:
    return well_dominated_certificate(g) is None


# -- total domination ----------------------------------------------------------


def has_isolated_vertex(g: Graph) -> bool:
    return any(row == 0 for row in g.adj)


def total_domination_numbers(g: Graph) -> tuple[int, int]:
    """(min, max) cardinality over minimal total dominating sets."""
    if has_isolated_vertex(g):
        raise ValueError("total domination is undefined with an isolated vertex")
    return _size_extrema(_iter_minimal_total_dominating(g))[:2]


def total_domination_number(g: Graph) -> int:
    return total_domination_numbers(g)[0]


# -- greedy procedures ----------------------------------------------------------


def _check_ordering(g: Graph, ordering) -> list[int]:
    order = list(ordering)
    if sorted(order) != list(range(g.n)):
        raise ValueError("ordering is not a permutation of the vertices")
    return order


def greedy_minimal_dominating(g: Graph, ordering) -> int:
    """Start from all vertices; drop each vertex, in order, whenever the
    remainder still dominates.  The result is a minimal dominating set."""
    d = g.full_mask
    for v in _check_ordering(g, ordering):
        # D - v still dominates when no vertex of N[v] is dominated once.
        if not (g.adj[v] | 1 << v) & _dominated_once(g, d)[1]:
            d ^= 1 << v
    return d


def _greedy_independent(adj: Sequence[int], order) -> int:
    s = 0
    for v in order:
        if not adj[v] & s:
            s |= 1 << v
    return s


def greedy_maximal_independent(g: Graph, ordering) -> int:
    """Scan the ordering, adding each vertex with no chosen neighbor."""
    return _greedy_independent(g.adj, _check_ordering(g, ordering))


# -- open irredundance ------------------------------------------------------------


def is_open_irredundant(g: Graph, s: int) -> bool:
    """Every member has a private neighbor outside the set:
    N(u) - N[S - u] is nonempty for all u in S."""
    once = _dominated_once(g, s)[1]
    return all(g.adj[u] & once for u in iter_bits(s))


def open_irredundant_minimum_dominating(g: Graph) -> int | None:
    """A minimum dominating set that is open irredundant, or None.

    None never occurs for a graph without isolated vertices; the verify
    module reports it as a counterexample if it ever does.
    """
    if has_isolated_vertex(g):
        raise ValueError("requires a graph without isolated vertices")
    for s in minimum_dominating_sets(g):
        if is_open_irredundant(g, s):
            return s
    return None


# -- packings and isolatable vertices -----------------------------------------------


def is_two_packing(g: Graph, s: int) -> bool:
    """Pairwise distances within the set are all at least 3, that is, the
    closed neighborhoods of the members are pairwise disjoint."""
    dom, once = _dominated_once(g, s)
    return dom == once


def _isolatable(g: Graph) -> Iterator[int]:
    """Each isolatable vertex x, in order: the first independent set that
    avoids N[x] and covers N(x) by open rows witnesses it."""
    closed = _closed_adj(g)
    for x in range(g.n):
        for _ in _minimal_sets(g.adj, g.adj[x], lock=closed, forbidden=closed[x]):
            yield x
            break


def isolatable_vertices(g: Graph) -> int:
    """Vertices x left isolated by deleting N[I] for some independent set I.

    Equivalently: some independent I avoiding N[x] has N(x) inside N[I]; the
    empty set is admitted, so isolated vertices are isolatable.
    """
    return sum(1 << x for x in _isolatable(g))


def has_isolatable_vertex(g: Graph) -> bool:
    return next(_isolatable(g), None) is not None


# -- the profile ----------------------------------------------------------------------


@dataclass(frozen=True)
class DominationProfile:
    """The six classical invariants plus verdicts and witnesses.

    ``gamma_t``/``upper_gamma_t`` are None when the graph has an isolated
    vertex.  Witness fields are vertex bitmasks.
    """

    gamma: int
    upper_gamma: int
    ind_dom: int
    alpha: int
    gamma_t: int | None
    upper_gamma_t: int | None
    well_dominated: bool
    well_covered: bool
    witness_min_dom: int
    witness_max_ind: int

    def to_dict(self) -> dict:
        return {
            "gamma": self.gamma,
            "upper_gamma": self.upper_gamma,
            "independent_domination": self.ind_dom,
            "alpha": self.alpha,
            "gamma_total": self.gamma_t,
            "upper_gamma_total": self.upper_gamma_t,
            "well_dominated": self.well_dominated,
            "well_covered": self.well_covered,
            "witness_min_dom": list(set_of(self.witness_min_dom)),
            "witness_max_ind": list(set_of(self.witness_max_ind)),
        }


def domination_profile(g: Graph) -> DominationProfile:
    """Exact values of gamma, Gamma, i, alpha, gamma_t, Gamma_t and verdicts."""
    witness_min = g.fact(minimum_dominating_set)
    gamma = witness_min.bit_count()
    upper = upper_domination_number(g)
    ind_dom, alpha, witness_max = g.fact(_mis_extrema)
    if has_isolated_vertex(g):
        gamma_t = upper_t = None
    else:
        gamma_t, upper_t = total_domination_numbers(g)
    return DominationProfile(
        gamma=gamma,
        upper_gamma=upper,
        ind_dom=ind_dom,
        alpha=alpha,
        gamma_t=gamma_t,
        upper_gamma_t=upper_t,
        well_dominated=gamma == upper,
        well_covered=ind_dom == alpha,
        witness_min_dom=witness_min,
        witness_max_ind=witness_max,
    )
