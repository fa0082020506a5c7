"""Catalog of named graphs with fixed, documented labelings.

Families: ``complete``, ``path``, ``cycle``, ``corona-of`` (one new degree-1
neighbor attached to every vertex of the base graph) and the five ``special``
graphs ``P10`` and ``H1``..``H4``.

Labeling conventions:

* ``path n``: vertices 0..n-1 along the path, edges i -- i+1.
* ``cycle n``: edges i -- i+1 and n-1 -- 0.
* ``corona-of``: base keeps its labels 0..n-1, the leaf attached to base
  vertex i is n+i.
* Specials: adjacency lists fixed below.  ``P10`` is a girth-5 graph on 10
  vertices made of two pentagons sharing structure through a 6-cycle rim;
  ``H1``..``H4`` are the four 7-vertex graphs built around a pentagon
  (``H1``) or a square core (``H2``..``H4``).  Any labeling consistent with
  these adjacency lists works, since all downstream checks are
  isomorphism-invariant; the records in ``tests/test_catalog.py`` pin each
  graph's structure.
"""

from __future__ import annotations

from .graphs import Graph

SPECIAL_EDGES: dict[str, list[tuple[int, int]]] = {
    # Two edge-disjoint pentagons 0-1-3-4-2-0 and 2-6-5-7-4-2 joined by the
    # path 0-8-9-7 through two rim vertices.
    "P10": [
        (0, 1), (0, 2), (1, 3), (3, 4), (2, 4),
        (2, 6), (5, 6), (5, 7), (4, 7),
        (0, 8), (8, 9), (9, 7),
    ],
    # Pentagon 0-1-4-5-2-0 with the pendant path 5-6-3.
    "H1": [(0, 1), (0, 2), (1, 4), (2, 5), (4, 5), (3, 6), (5, 6)],
    # H1 plus the edge 0-6, closing a square 0-2-5-6.
    "H2": [(0, 1), (0, 2), (1, 4), (2, 5), (4, 5), (3, 6), (5, 6), (0, 6)],
    # H1 plus the edge 2-3, closing a square 2-3-6-5.
    "H3": [(0, 1), (0, 2), (1, 4), (2, 5), (4, 5), (3, 6), (5, 6), (2, 3)],
    # H1 plus both extra edges 2-3 and 0-6.
    "H4": [(0, 1), (0, 2), (1, 4), (2, 5), (4, 5), (3, 6), (5, 6), (2, 3), (0, 6)],
}

def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError(f"cycle needs length >= 3, got {n}")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def corona(g: Graph) -> Graph:
    """G with one new degree-1 neighbor attached to each vertex.

    Base vertex i keeps its label; its leaf is n + i.
    """
    edges = list(g.edges()) + [(i, g.n + i) for i in range(g.n)]
    return Graph(2 * g.n, edges)


def special_graph(name: str) -> Graph:
    try:
        edges = SPECIAL_EDGES[name]
    except KeyError:
        raise ValueError(f"unknown special graph {name!r}") from None
    n = 1 + max(max(e) for e in edges)
    return Graph(n, edges)


def named_graph(spec: str) -> Graph:
    """Build a graph from a ``family:param`` string.

    Grammar: ``complete:N``, ``path:N``, ``cycle:N``, ``special:NAME``, each
    after any number of ``corona-of:`` prefixes (e.g. ``corona-of:path:3``).
    """
    family, _, rest = spec.partition(":")
    coronas = 0
    while family.strip().lower() == "corona-of":
        if not rest:
            raise ValueError("corona-of needs a base graph spec")
        coronas += 1
        family, _, rest = rest.partition(":")
    family = family.strip().lower()
    builders = {"complete": complete_graph, "path": path_graph, "cycle": cycle_graph}
    if family == "special":
        g = special_graph(rest.strip())
    elif family not in builders:
        raise ValueError(f"unknown graph family {family!r}")
    else:
        try:
            n = int(rest)
        except ValueError:
            raise ValueError(f"parameter for {family} must be an integer, got {rest!r}") from None
        g = builders[family](n)
    for _ in range(coronas):
        g = corona(g)
    return g


#: The eleven connected, triangle-free, well-dominated graphs with domination
#: number at most 3, keyed by their classification tag.
def triangle_free_well_dominated_catalog() -> dict[str, Graph]:
    return {
        "K1": complete_graph(1),
        "K2": complete_graph(2),
        "P4": path_graph(4),
        "C4": cycle_graph(4),
        "C5": cycle_graph(5),
        "C7": cycle_graph(7),
        "P3-corona": corona(path_graph(3)),
        "H1": special_graph("H1"),
        "H2": special_graph("H2"),
        "H3": special_graph("H3"),
        "H4": special_graph("H4"),
    }
