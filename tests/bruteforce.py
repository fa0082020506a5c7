"""Independent brute-force oracles used to freeze expected values.

Everything here recomputes results from first principles (full subset scans,
permutation searches) so the solvers under test never check themselves.
"""

from __future__ import annotations

import itertools

import numpy as np

from domlab.graphs import Graph, iter_bits


def neighborhood_closed(g: Graph, s: int) -> int:
    out = s
    for v in range(g.n):
        if s >> v & 1:
            out |= g.adj[v]
    return out


def dominates(g: Graph, s: int) -> bool:
    return neighborhood_closed(g, s) == (1 << g.n) - 1


def independent(g: Graph, s: int) -> bool:
    for v in iter_bits(s):
        if g.adj[v] & s:
            return False
    return True


def minimal_dominating(g: Graph, s: int) -> bool:
    if not dominates(g, s):
        return False
    for v in iter_bits(s):
        has_private = False
        for u in range(g.n):
            if (g.adj[u] | 1 << u) & s == 1 << v:
                has_private = True
                break
        if not has_private:
            return False
    return True


def all_minimal_dominating(g: Graph) -> set[int]:
    return {s for s in range(1 << g.n) if minimal_dominating(g, s)}


def all_maximal_independent(g: Graph) -> set[int]:
    # maximal independent == independent and dominating
    return {s for s in range(1 << g.n) if independent(g, s) and dominates(g, s)}


def profile_numbers(g: Graph) -> tuple[int, int, int, int]:
    """(gamma, Gamma, i, alpha) by scanning all subsets."""
    doms = [s for s in range(1 << g.n) if dominates(g, s)]
    mds = all_minimal_dominating(g)
    mis = all_maximal_independent(g)
    gamma = min(s.bit_count() for s in doms)
    upper = max(s.bit_count() for s in mds)
    ind = min(s.bit_count() for s in mis)
    alpha = max(s.bit_count() for s in mis)
    return gamma, upper, ind, alpha


def totally_dominates(g: Graph, s: int) -> bool:
    covered = 0
    for v in iter_bits(s):
        covered |= g.adj[v]
    return covered == (1 << g.n) - 1


def total_numbers(g: Graph) -> tuple[int, int]:
    """(gamma_t, Gamma_t) over minimal total dominating sets."""
    tds = [s for s in range(1 << g.n) if totally_dominates(g, s)]
    minimal = [
        s for s in tds
        if all(not totally_dominates(g, s & ~(1 << v)) for v in iter_bits(s))
    ]
    return (min(s.bit_count() for s in tds), max(s.bit_count() for s in minimal))


def isolatable(g: Graph) -> int:
    """Mask of isolatable vertices by scanning every independent set."""
    full = (1 << g.n) - 1
    ind_sets = [s for s in range(1 << g.n) if independent(g, s)]
    out = 0
    for x in range(g.n):
        for i_set in ind_sets:
            removed = neighborhood_closed(g, i_set)
            if removed >> x & 1:
                continue
            if g.adj[x] & ~removed & full == 0:
                out |= 1 << x
                break
    return out


def isomorphic(g: Graph, h: Graph) -> bool:
    """Exhaustive search over vertex bijections."""
    if g.n != h.n:
        return False
    for perm in itertools.permutations(range(g.n)):
        if all(
            (g.adj[u] >> v & 1) == (h.adj[perm[u]] >> perm[v] & 1)
            for u in range(g.n)
            for v in range(u + 1, g.n)
        ):
            return True
    return False


def girth_brute(g: Graph) -> float:
    """Shortest cycle by checking every vertex subset in every cyclic order."""
    best = float("inf")
    verts = range(g.n)
    for k in range(3, g.n + 1):
        if k >= best:
            break
        for subset in itertools.combinations(verts, k):
            first = subset[0]
            for order in itertools.permutations(subset[1:]):
                cyc = (first,) + order
                if all(g.has_edge(cyc[i], cyc[(i + 1) % k]) for i in range(k)):
                    best = min(best, k)
                    break
            if best == k:
                break
    return best


def greedy_drop_simulation(g: Graph, ordering) -> int:
    """Literal simulation: drop each vertex when the rest still dominates."""
    d = (1 << g.n) - 1
    for v in ordering:
        if dominates(g, d & ~(1 << v)):
            d &= ~(1 << v)
    return d


# -- labeled-graph census (numpy-accelerated canonical forms) ----------------


def labeled_graphs(n: int):
    """Yield every labeled graph on n vertices as a Graph."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[k] for k in range(len(pairs)) if bits >> k & 1])


def count_isomorphism_classes(n: int, connected_only: bool = False,
                              triangle_free_only: bool = False) -> int:
    """Census of isomorphism classes by minimum encoding over all labelings.

    Vectorized over the 2^C(n,2) labeled graphs: for each permutation, the
    edge bits are permuted and repacked, keeping the running minimum.
    """
    from domlab.graphs import is_connected, is_triangle_free

    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    m = len(pairs)
    pos = {p: k for k, p in enumerate(pairs)}
    count = 1 << m
    codes = np.arange(count, dtype=np.int64)
    bits = (codes[:, None] >> np.arange(m)[None, :]) & 1  # (count, m)
    weights = 1 << np.arange(m, dtype=np.int64)
    best = codes.copy()
    for perm in itertools.permutations(range(n)):
        idx = np.array(
            [pos[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs],
            dtype=np.int64,
        )
        permuted = np.zeros_like(bits)
        permuted[:, idx] = bits
        enc = permuted @ weights
        np.minimum(best, enc, out=best)
    reps = np.unique(best)
    if not (connected_only or triangle_free_only):
        return len(reps)
    kept = 0
    for code in reps:
        edges = [pairs[k] for k in range(m) if int(code) >> k & 1]
        g = Graph(n, edges)
        if connected_only and not is_connected(g):
            continue
        if triangle_free_only and not is_triangle_free(g):
            continue
        kept += 1
    return kept


def expected_edge_count(kind: str, g: Graph, h: Graph) -> int:
    """Closed-form edge count of a product: |V(g)|*|E(h)| + |V(h)|*|E(g)|
    for cartesian, 2*|E(g)|*|E(h)| for direct, and
    |E(g)|*|V(h)|^2 + |E(h)|*|V(g)|^2 - 2*|E(g)|*|E(h)| for disjunctive."""
    mg, mh = g.edge_count, h.edge_count
    ng, nh = g.n, h.n
    if kind == "cartesian":
        return ng * mh + nh * mg
    if kind == "direct":
        return 2 * mg * mh
    if kind == "disjunctive":
        return mg * nh * nh + mh * ng * ng - 2 * mg * mh
    raise ValueError(f"unknown product kind {kind!r}")
