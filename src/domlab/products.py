"""Cartesian, direct, and disjunctive graph products.

The product of g (order p) and h (order q) lives on p*q vertices with the
row-major index map (a, b) -> a*q + b, which is fixed and exposed so layers
and counterexample certificates can name product vertices stably.

Edge rules for (a, b) ~ (c, d):

* cartesian:    a == c and bd in E(h),  or  b == d and ac in E(g)
* direct:       ac in E(g) and bd in E(h)
* disjunctive:  ac in E(g) or  bd in E(h)
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_ORDER, Graph, iter_bits

PRODUCT_KINDS = ("cartesian", "direct", "disjunctive")


@dataclass(frozen=True)
class ProductGraph:
    """A product together with its factors and the index map."""

    kind: str
    g: Graph
    h: Graph
    graph: Graph

    def index(self, a: int, b: int) -> int:
        """Product vertex index of the factor pair (a, b)."""
        if not (0 <= a < self.g.n and 0 <= b < self.h.n):
            raise ValueError(f"coordinates ({a}, {b}) out of range")
        return a * self.h.n + b

    def coords(self, idx: int) -> tuple[int, int]:
        """Factor pair (a, b) of a product vertex index."""
        if not 0 <= idx < self.graph.n:
            raise ValueError(f"index {idx} out of range")
        return divmod(idx, self.h.n)

    def layer(self, which: str, coordinate: int) -> int:
        """Vertex mask of a layer.

        ``which="first"`` is the copy of g at the fixed h-coordinate;
        ``which="second"`` is the copy of h at the fixed g-coordinate.
        """
        q = self.h.n
        if which == "first":
            if not 0 <= coordinate < q:
                raise ValueError(f"coordinate {coordinate} out of range for the second factor")
            mask = 0
            for a in range(self.g.n):
                mask |= 1 << (a * q + coordinate)
            return mask
        if which == "second":
            if not 0 <= coordinate < self.g.n:
                raise ValueError(f"coordinate {coordinate} out of range for the first factor")
            base = (1 << q) - 1
            return base << (coordinate * q)
        raise ValueError(f'which must be "first" or "second", got {which!r}')


def product(kind: str, g: Graph, h: Graph) -> ProductGraph:
    """Construct a product graph; the order p*q must stay within 62."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    p, q = g.n, h.n
    if p * q > MAX_ORDER:
        raise ValueError(f"product order {p * q} exceeds the cap {MAX_ORDER}")
    n = p * q
    adj = [0] * n
    hfull = (1 << q) - 1
    for a in range(p):
        grow = g.adj[a]
        for b in range(q):
            idx = a * q + b
            row = 0
            if kind == "cartesian":
                row |= h.adj[b] << (a * q)
                for c in iter_bits(grow):
                    row |= 1 << (c * q + b)
            elif kind == "direct":
                for c in iter_bits(grow):
                    row |= h.adj[b] << (c * q)
            else:  # disjunctive
                for c in range(p):
                    block = hfull if grow >> c & 1 else h.adj[b]
                    row |= block << (c * q)
            adj[idx] = row
    return ProductGraph(kind, g, h, Graph._raw(n, tuple(adj)))


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    return product("cartesian", g, h)


def direct(g: Graph, h: Graph) -> ProductGraph:
    return product("direct", g, h)


def disjunctive(g: Graph, h: Graph) -> ProductGraph:
    return product("disjunctive", g, h)
