"""Cartesian, direct, and disjunctive graph products.

The product of g (order p) and h (order q) lives on p*q vertices with the
row-major index map (a, b) -> a*q + b, which is fixed and exposed so layers
and counterexample certificates can name product vertices stably.
:func:`spread` is its block arithmetic: ``spread(s, q) * t`` is the vertex
set s x t (t < 2**q, so there are no carries), for rows and witness sets.
It spreads s a byte at a time, from a table of the 256 byte spreads that
is built the first time step q is used (only the steps in use get one).

Edge rules for (a, b) ~ (c, d):

* cartesian:    a == c and bd in E(h),  or  b == d and ac in E(g)
* direct:       ac in E(g) and bd in E(h)
* disjunctive:  ac in E(g) or  bd in E(h)
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import MAX_ORDER, Graph

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


# step -> the spreads of the 256 bytes, built the first time a step is used.
_BYTE_SPREADS: dict[int, list[int]] = {}


def _byte_spreads(step: int) -> list[int]:
    table = [0]
    for bit in range(8):
        high = 1 << bit * step
        table += [low | high for low in table]
    _BYTE_SPREADS[step] = table
    return table


def spread(mask: int, step: int) -> int:
    """Bit ``v * step`` for each bit v of ``mask``, one byte of the mask
    per table lookup."""
    table = _BYTE_SPREADS.get(step) or _byte_spreads(step)
    out = table[mask & 255]
    shift = 0
    while mask := mask >> 8:
        shift += 8 * step
        out |= table[mask & 255] << shift
    return out


def product(kind: str, g: Graph, h: Graph) -> ProductGraph:
    """Construct a product graph; the order p*q must stay within 62."""
    if kind not in PRODUCT_KINDS:
        raise ValueError(f"unknown product kind {kind!r}")
    p, q = g.n, h.n
    if p * q > MAX_ORDER:
        raise ValueError(f"product order {p * q} exceeds the cap {MAX_ORDER}")
    # every has bit c*q for each c.
    ones = [spread(row, q) for row in g.adj]
    hfull = (1 << q) - 1
    every = ((1 << p * q) - 1) // hfull
    if kind == "cartesian":
        adj = [hrow << a * q | one << b
               for a, one in enumerate(ones) for b, hrow in enumerate(h.adj)]
    elif kind == "direct":
        adj = [one * hrow for one in ones for hrow in h.adj]
    else:  # disjunctive
        adj = [one * hfull | (every ^ one) * hrow for one in ones for hrow in h.adj]
    return ProductGraph(kind, g, h, Graph._raw(p * q, tuple(adj)))


def cartesian(g: Graph, h: Graph) -> ProductGraph:
    return product("cartesian", g, h)


def direct(g: Graph, h: Graph) -> ProductGraph:
    return product("direct", g, h)


def disjunctive(g: Graph, h: Graph) -> ProductGraph:
    return product("disjunctive", g, h)
