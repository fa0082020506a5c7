"""
Cartesian, direct, and disjunctive products
===========================================

The three products share the vertex set V(G) x V(H) under the row-major
index map (a, b) -> a*|V(H)| + b, and differ only in the edge rule.  Layers
show the difference: a layer of the direct product is edgeless, while
Cartesian and disjunctive layers copy the factor.
"""

from domlab import (
    cartesian,
    direct,
    disjunctive,
    is_connected,
    are_isomorphic,
    set_of,
    to_graph6,
)
from domlab.catalog import complete_graph, cycle_graph, path_graph

K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
P4 = path_graph(4)

# The three small identities worth knowing by heart.
print("K2 box K2 ~ C4:", are_isomorphic(cartesian(K2, K2).graph, C4))
print("C4 x K2 falls apart:", not is_connected(direct(C4, K2).graph))
print("K2 v K2 ~ K4:", are_isomorphic(disjunctive(K2, K2).graph, complete_graph(4)))

# Edge counts obey closed forms, one per product kind.
mg, mh, ng, nh = P4.edge_count, K3.edge_count, P4.n, K3.n
formulas = {
    "cartesian": ng * mh + nh * mg,
    "direct": 2 * mg * mh,
    "disjunctive": mg * nh * nh + mh * ng * ng - 2 * mg * mh,
}
for kind, make in (("cartesian", cartesian), ("direct", direct), ("disjunctive", disjunctive)):
    p = make(P4, K3)
    print(f"{kind:12s} P4*K3: {p.graph.edge_count} edges "
          f"(formula {formulas[kind]}), graph6 {to_graph6(p.graph)}")

# Layers: fix a coordinate in one factor and look at the induced copy.
d = direct(K3, K3)
layer = d.layer("first", 1)
sub, _ = d.graph.induced(layer)
print("\ndirect K3xK3, layer at second coordinate 1:",
      set_of(layer), "-> induced edges:", list(sub.edges()))

v = disjunctive(K2, P4)
sub, _ = v.graph.induced(v.layer("second", 0))
print("disjunctive K2vP4, layer at first coordinate 0 is a P4 copy:",
      are_isomorphic(sub, P4))
