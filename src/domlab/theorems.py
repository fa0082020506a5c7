"""The theorem table: one checkable predicate per verified statement.

Each entry has a hypothesis filter (the statement's standing assumptions)
and a conclusion predicate, plus an optional tag hook whose non-None
results a sweep collects into its report.  Biconditional statements go
through :func:`_iff`, which reports which direction failed.  Conclusions
return an optional witness dictionary that goes into counterexample
certificates; vertex sets are rendered as sorted index lists (product
vertices use the row-major index map of :mod:`domlab.products`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .catalog import complete_graph, cycle_graph, special_graph
from .classify import (
    NOT_MEMBER,
    all_basic_cycle_pairs_ok,
    classify_small_triangle_free,
    is_complete,
    is_corona_of_connected,
    pc_partition,
    universal_vertices,
)
from .domination import (
    _iter_maximal_independent,
    _iter_minimal_total_dominating,
    domination_number,
    has_isolated_vertex,
    independence_number,
    is_minimal_dominating,
    is_maximal_independent,
    is_two_packing,
    is_well_covered,
    is_well_dominated,
    open_irredundant_minimum_dominating,
    independent_domination_number,
    total_domination_number,
    upper_domination_number,
    well_covered_certificate,
    well_dominated_certificate,
)
from .graphs import Graph, girth, is_connected, iter_bits, set_of
from .isomorphism import are_isomorphic
from .products import cartesian, direct, disjunctive

K1 = complete_graph(1)
K2 = complete_graph(2)
K3 = complete_graph(3)
C4 = cycle_graph(4)
C7 = cycle_graph(7)
P10 = special_graph("P10")


@dataclass(frozen=True)
class Verdict:
    status: str  # "holds" | "counterexample" | "hypothesis-not-met"
    clause: str | None = None
    witness: dict | None = None


HOLDS = Verdict("holds")
HYP_NOT_MET = Verdict("hypothesis-not-met")


@dataclass(frozen=True)
class TheoremEntry:
    tid: str
    arity: int  # 1 for single graphs, 2 for ordered factor pairs
    summary: str
    hypothesis: Callable
    conclusion: Callable  # returns Verdict with status holds/counterexample
    tag: Callable | None = None  # instance -> report tag or None, when the hypothesis holds


def _sets(**kw) -> dict:
    out = {}
    for name, val in kw.items():
        if isinstance(val, int):
            out[name] = list(set_of(val))
        else:
            out[name] = val
    return out


def _fail(clause: str, **witness) -> Verdict:
    return Verdict("counterexample", clause, _sets(**witness))


def _iff(lhs: bool, rhs: bool, lhs_only: str, rhs_only: str,
         lhs_witness: Callable[[], dict] = dict,
         rhs_witness: Callable[[], dict] = dict) -> Verdict:
    """Check ``lhs`` iff ``rhs``.  A failed direction reports its clause
    (``lhs_only``: lhs without rhs) and builds its witness only then."""
    if lhs == rhs:
        return HOLDS
    if lhs:
        return Verdict("counterexample", lhs_only, lhs_witness())
    return Verdict("counterexample", rhs_only, rhs_witness())


def _nontrivial(g: Graph) -> bool:
    return g.n >= 2


def _wd_witness(g: Graph) -> dict:
    # Two minimal dominating sets of different sizes; the smaller one need
    # not be minimum (it may come from the well-covered shortcut).
    cert = well_dominated_certificate(g)
    if cert is None:
        return {}
    return _sets(minimal_dom_small=cert[0], minimal_dom_large=cert[1])


# -- single-graph conclusions -------------------------------------------------


def _p1(g: Graph) -> Verdict:
    if is_well_dominated(g) and not is_well_covered(g):
        cert = well_covered_certificate(g)
        return _fail("well-dominated but not well-covered",
                     mis_small=cert[0], mis_large=cert[1])
    return HOLDS


def _chain(g: Graph) -> Verdict:
    gam = domination_number(g)
    ind = independent_domination_number(g)
    alpha = independence_number(g)
    upper = upper_domination_number(g)
    if not gam <= ind <= alpha <= upper:
        return Verdict("counterexample", "gamma <= i <= alpha <= Gamma violated",
                       {"values": [gam, ind, alpha, upper]})
    return HOLDS


def _prism(g: Graph) -> Verdict:
    p = cartesian(g, K2).graph
    if is_well_dominated(p) and not are_isomorphic(g, K2):
        return _fail("prism well-dominated but base is not K2", **_wd_witness(p))
    return HOLDS


def _bc(g: Graph) -> Verdict:
    s = open_irredundant_minimum_dominating(g)
    if s is None:
        return Verdict("counterexample", "no open irredundant minimum dominating set",
                       {"gamma": domination_number(g)})
    return HOLDS


def _px(g: Graph) -> Verdict:
    return _iff(2 * domination_number(g) == g.n,
                are_isomorphic(g, C4) or is_corona_of_connected(g),
                "gamma = n/2 but neither a 4-cycle nor a corona of a connected graph",
                "4-cycle or corona of a connected graph with gamma != n/2",
                rhs_witness=lambda: {"gamma": domination_number(g), "order": g.n})


def _lk2(g: Graph) -> Verdict:
    p = direct(g, K2).graph
    return _iff(is_well_dominated(p), are_isomorphic(g, C4) or is_corona_of_connected(g),
                "direct product with K2 well-dominated but base has the wrong shape",
                "4-cycle or corona, but direct product with K2 not well-dominated",
                rhs_witness=lambda: _wd_witness(p))


def _l2p(g: Graph) -> Verdict:
    p = direct(g, K3).graph
    if not is_well_dominated(p):
        return HOLDS
    for s in _iter_maximal_independent(g):
        if not is_two_packing(g, s):
            return _fail("maximal independent set is not a 2-packing",
                         independent_set=s)
    return HOLDS


def _lk3(g: Graph) -> Verdict:
    p = direct(g, K3).graph
    if is_well_dominated(p) and not are_isomorphic(g, K3):
        return _fail("direct product with K3 well-dominated but base is not K3",
                     **_wd_witness(p))
    return HOLDS


def _lne(g: Graph) -> Verdict:
    alpha = independence_number(g)
    if alpha < 2 or alpha != domination_number(g):
        return HOLDS
    if total_domination_number(g) != 2 * domination_number(g):
        return HOLDS
    return Verdict("counterexample",
                   "connected graph with 2 <= alpha = gamma and gamma_t = 2 gamma",
                   {"alpha": alpha, "gamma": domination_number(g),
                    "gamma_t": total_domination_number(g)})


def _tf11_tag(g: Graph) -> str | None:
    tag = classify_small_triangle_free(g)
    return None if tag == NOT_MEMBER else tag


def _tf11(g: Graph) -> Verdict:
    tag = _tf11_tag(g)
    return _iff(is_well_dominated(g) and domination_number(g) <= 3, tag is not None,
                "well-dominated with gamma <= 3 but outside the eleven-graph catalog",
                "catalog member that is not well-dominated with gamma <= 3",
                lambda: _wd_witness(g), lambda: {"tag": tag})


def _g5wd(g: Graph) -> Verdict:
    # The exceptional graphs satisfy the 0/2/4 edge condition vacuously (no
    # basic 5-cycles) while lying outside the pendant/5-cycle class, so the
    # checkable content is: membership forces the edge condition, and
    # non-membership forces one of the three exceptional graphs.
    in_pc = pc_partition(g) is not None
    pairs_ok = all_basic_cycle_pairs_ok(g)
    if in_pc and not pairs_ok:
        return Verdict("counterexample",
                       "pendant/5-cycle member violating the 0/2/4 edge condition",
                       {"in_pc": in_pc, "pairs_ok": pairs_ok})
    if not in_pc:
        if not any(are_isomorphic(g, other) for other in (K1, C7, P10)):
            return _fail("outside the pendant/5-cycle class but not K1, C7, or P10")
    return HOLDS


# -- pair conclusions -----------------------------------------------------------


def _t1(pair) -> Verdict:
    g, h = pair
    p = cartesian(g, h).graph
    if is_well_dominated(p) and not (is_well_dominated(g) or is_well_dominated(h)):
        wg = well_dominated_certificate(g)
        wh = well_dominated_certificate(h)
        return _fail("product well-dominated but neither factor is",
                     g_small=wg[0], g_large=wg[1], h_small=wh[0], h_large=wh[1])
    return HOLDS


def _t2(pair) -> Verdict:
    g, h = pair
    p = cartesian(g, h).graph
    return _iff(is_well_dominated(p), are_isomorphic(g, K2) and are_isomorphic(h, K2),
                "triangle-free product well-dominated with a factor other than K2",
                "K2 box K2 not recognized as well-dominated",
                rhs_witness=lambda: _wd_witness(p))


def _t3_rhs(g: Graph, h: Graph) -> bool:
    if are_isomorphic(g, K3) and are_isomorphic(h, K3):
        return True
    if are_isomorphic(g, K2) and (are_isomorphic(h, C4) or is_corona_of_connected(h)):
        return True
    if are_isomorphic(h, K2) and (are_isomorphic(g, C4) or is_corona_of_connected(g)):
        return True
    return False


def _t3(pair) -> Verdict:
    g, h = pair
    p = direct(g, h).graph
    return _iff(is_well_dominated(p), _t3_rhs(g, h),
                "direct product well-dominated outside the characterized shapes",
                "characterized shape with a direct product that is not well-dominated",
                rhs_witness=lambda: _wd_witness(p))


def _t4_rhs(g: Graph, h: Graph) -> bool:
    if is_complete(g) and is_well_dominated(h) and domination_number(h) <= 2:
        return True
    if is_complete(h) and is_well_dominated(g) and domination_number(g) <= 2:
        return True
    return False


def _t4(pair) -> Verdict:
    g, h = pair
    p = disjunctive(g, h).graph
    return _iff(is_well_dominated(p), _t4_rhs(g, h),
                "disjunctive product well-dominated without the complete-factor shape",
                "complete factor with small-gamma well-dominated mate, "
                "but the disjunctive product is not well-dominated",
                rhs_witness=lambda: _wd_witness(p))


def _ub3(pair) -> Verdict:
    g, h = pair
    p = direct(g, h).graph
    bound = 3 * domination_number(g) * domination_number(h)
    got = domination_number(p)
    if got > bound:
        return Verdict("counterexample", "gamma of the direct product exceeds 3*gamma*gamma",
                       {"gamma_product": got, "bound": bound})
    return HOLDS


def _wcfactor(pair) -> Verdict:
    g, h = pair
    p = cartesian(g, h).graph
    if is_well_covered(p) and not (is_well_covered(g) or is_well_covered(h)):
        return _fail("product well-covered but neither factor is")
    return HOLDS


def _g4cart(pair) -> Verdict:
    g, h = pair
    p = cartesian(g, h).graph
    if is_well_covered(p) and not (are_isomorphic(g, K2) or are_isomorphic(h, K2)):
        return _fail("triangle-free product well-covered with no K2 factor")
    return HOLDS


def _dk(pair) -> Verdict:
    g, h = pair
    p = direct(g, h).graph
    if is_well_covered(p) and not is_complete(h):
        return _fail("well-covered direct product whose isolatable-free factor "
                     "is not complete")
    return HOLDS


def _l3g(pair) -> Verdict:
    g, h = pair
    p = direct(g, h).graph
    if not is_well_dominated(p):
        return HOLDS
    if 3 * domination_number(g) < g.n or 3 * domination_number(h) < h.n:
        return Verdict("counterexample",
                       "well-dominated direct product with a factor of gamma < n/3",
                       {"gammas": [domination_number(g), domination_number(h)],
                        "orders": [g.n, h.n]})
    return HOLDS


def _tv(pair) -> Verdict:
    g, h = pair
    p = direct(g, h).graph
    if not is_well_covered(p):
        return HOLDS
    if not (is_well_covered(g) and is_well_covered(h)):
        return _fail("well-covered direct product with a factor that is not well-covered")
    if independence_number(g) * h.n != independence_number(h) * g.n:
        return Verdict("counterexample", "alpha(G)|V(H)| != alpha(H)|V(G)|",
                       {"alphas": [independence_number(g), independence_number(h)],
                        "orders": [g.n, h.n]})
    return HOLDS


def _dind(pair) -> Verdict:
    g, h = pair
    pv = disjunctive(g, h)
    for i_set in _iter_maximal_independent(g):
        for j_set in _iter_maximal_independent(h):
            prod_set = 0
            for a in iter_bits(i_set):
                for b in iter_bits(j_set):
                    prod_set |= 1 << pv.index(a, b)
            if not is_maximal_independent(pv.graph, prod_set):
                return _fail("product of maximal independent sets is not "
                             "maximal independent in the disjunctive product",
                             left_set=i_set, right_set=j_set, product_set=prod_set)
    return HOLDS


def _dtot(pair) -> Verdict:
    g, h = pair
    p = disjunctive(g, h).graph
    # Product vertex (a, b) is a*|V(h)| + b: fix a vertex of one factor and
    # copy a minimal total dominating set of the other, in both orientations.
    q = h.n
    for fixed, other, fixed_step, set_step in ((g, h, q, 1), (h, g, 1, q)):
        uni = universal_vertices(fixed)
        for t_set in _iter_minimal_total_dominating(other):
            for v in range(fixed.n):
                if uni >> v & 1:
                    continue
                prod_set = 0
                for b in iter_bits(t_set):
                    prod_set |= 1 << (v * fixed_step + b * set_step)
                if not is_minimal_dominating(p, prod_set):
                    return _fail("fixed-vertex copy of a minimal total dominating set "
                                 "is not a minimal dominating set of the disjunctive product",
                                 total_dominating=t_set, product_set=prod_set,
                                 fixed_vertex=[v])
    return HOLDS


def _dne(pair) -> Verdict:
    g, h = pair
    p = disjunctive(g, h).graph
    if is_well_dominated(p):
        return _fail("disjunctive product of two non-complete factors is well-dominated")
    return HOLDS


def _dkn(pair) -> Verdict:
    g, h = pair
    p = disjunctive(g, h).graph
    return _iff(is_well_dominated(p), is_well_dominated(h) and domination_number(h) <= 2,
                "disjunctive product with a complete factor well-dominated "
                "while the mate is not well-dominated with gamma <= 2",
                "well-dominated mate with gamma <= 2 but the disjunctive "
                "product is not well-dominated",
                rhs_witness=lambda: _wd_witness(p))


def _e1(pair) -> Verdict:
    g, h = pair
    a = independence_number(g) * independence_number(h)
    if a == total_domination_number(g) == total_domination_number(h):
        return HOLDS
    return Verdict("counterexample",
                   "alpha(G)alpha(H), gamma_t(G), gamma_t(H) not all equal",
                   {"alpha_product": a,
                    "gamma_t": [total_domination_number(g), total_domination_number(h)]})


# -- hypotheses ------------------------------------------------------------------


def _hyp_true(_instance) -> bool:
    return True


def _hyp_connected(g: Graph) -> bool:
    return is_connected(g)


def _hyp_nontrivial_connected(g: Graph) -> bool:
    return _nontrivial(g) and is_connected(g)


def _hyp_no_isolated(g: Graph) -> bool:
    return not has_isolated_vertex(g)


def _hyp_tf_connected(g: Graph) -> bool:
    return is_connected(g) and girth(g) >= 4


def _hyp_g5wd(g: Graph) -> bool:
    return is_connected(g) and girth(g) >= 5 and is_well_dominated(g)


def _hyp_pair_connected(pair) -> bool:
    return is_connected(pair[0]) and is_connected(pair[1])


def _hyp_pair_nontrivial_connected(pair) -> bool:
    return all(_nontrivial(x) and is_connected(x) for x in pair)


def _hyp_pair_girth4(pair) -> bool:
    return all(_nontrivial(x) and is_connected(x) and girth(x) >= 4 for x in pair)


def _hyp_pair_no_isolated(pair) -> bool:
    return not has_isolated_vertex(pair[0]) and not has_isolated_vertex(pair[1])


# has_isolatable_vertex is imported at call time so that a patch on
# domination (perfbench/tracer.py) reaches these calls.
def _hyp_t3(pair) -> bool:
    from .domination import has_isolatable_vertex

    g, h = pair
    return _hyp_pair_nontrivial_connected(pair) and (
        not has_isolatable_vertex(g) or not has_isolatable_vertex(h))


def _hyp_dk(pair) -> bool:
    from .domination import has_isolatable_vertex

    return _hyp_pair_nontrivial_connected(pair) and not has_isolatable_vertex(pair[1])


def _hyp_dne(pair) -> bool:
    g, h = pair
    return (is_connected(g) and not has_isolated_vertex(h)
            and not is_complete(g) and not is_complete(h))


def _hyp_dkn(pair) -> bool:
    return pair[0].n >= 2 and is_complete(pair[0])


def _hyp_e1(pair) -> bool:
    g, h = pair
    return (_hyp_pair_nontrivial_connected(pair)
            and not is_complete(g) and not is_complete(h)
            and is_well_dominated(disjunctive(g, h).graph))


THEOREMS: dict[str, TheoremEntry] = {
    e.tid: e
    for e in [
        TheoremEntry("T1", 2, "a well-dominated Cartesian product has a "
                     "well-dominated factor", _hyp_pair_connected, _t1),
        TheoremEntry("T2", 2, "a triangle-free Cartesian product is well-dominated "
                     "only for K2 box K2", _hyp_pair_girth4, _t2),
        TheoremEntry("T3", 2, "well-dominated direct products with an "
                     "isolatable-free factor are K3xK3 or K2 with a 4-cycle/corona",
                     _hyp_t3, _t3),
        TheoremEntry("T4", 2, "well-dominated disjunctive products pair a complete "
                     "factor with a well-dominated mate of gamma <= 2",
                     _hyp_pair_nontrivial_connected, _t4),
        TheoremEntry("P1", 1, "well-dominated implies well-covered", _hyp_true, _p1),
        TheoremEntry("CHAIN", 1, "gamma <= i <= alpha <= Gamma", _hyp_true, _chain),
        TheoremEntry("UB3", 2, "gamma(direct product) <= 3 gamma gamma "
                     "for isolate-free factors", _hyp_pair_no_isolated, _ub3),
        TheoremEntry("WCFACTOR", 2, "a well-covered Cartesian product has a "
                     "well-covered factor", _hyp_true, _wcfactor),
        TheoremEntry("G4CART", 2, "a triangle-free well-covered Cartesian product "
                     "has a K2 factor", _hyp_pair_girth4, _g4cart),
        TheoremEntry("PRISM", 1, "a well-dominated prism forces base K2",
                     _hyp_nontrivial_connected, _prism),
        TheoremEntry("BC", 1, "an isolate-free graph has an open irredundant "
                     "minimum dominating set", _hyp_no_isolated, _bc),
        TheoremEntry("DK", 2, "well-covered direct product: the isolatable-free "
                     "factor is complete", _hyp_dk, _dk),
        TheoremEntry("L3G", 2, "well-dominated direct product: 3 gamma >= order "
                     "for both factors", _hyp_pair_no_isolated, _l3g),
        TheoremEntry("TV", 2, "well-covered direct product: both factors "
                     "well-covered with alpha(G)|V(H)| = alpha(H)|V(G)|",
                     _hyp_pair_no_isolated, _tv),
        TheoremEntry("PX", 1, "gamma = n/2 exactly for the 4-cycle and coronas "
                     "of connected graphs", _hyp_nontrivial_connected, _px),
        TheoremEntry("LK2", 1, "direct product with K2 well-dominated exactly "
                     "for 4-cycles and coronas of connected graphs",
                     _hyp_nontrivial_connected, _lk2),
        TheoremEntry("L2P", 1, "well-dominated direct product with K3: every "
                     "maximal independent set is a 2-packing", _hyp_connected, _l2p),
        TheoremEntry("LK3", 1, "direct product with K3 well-dominated only "
                     "for base K3", _hyp_nontrivial_connected, _lk3),
        TheoremEntry("LNE", 1, "no connected graph has 2 <= alpha = gamma "
                     "with gamma_t = 2 gamma", _hyp_connected, _lne),
        TheoremEntry("DIND", 2, "products of maximal independent sets are "
                     "maximal independent in the disjunctive product", _hyp_true, _dind),
        TheoremEntry("DTOT", 2, "fixed-vertex copies of minimal total dominating "
                     "sets are minimal dominating in the disjunctive product",
                     _hyp_pair_no_isolated, _dtot),
        TheoremEntry("DNE", 2, "disjunctive products of two non-complete factors "
                     "are never well-dominated", _hyp_dne, _dne),
        TheoremEntry("DKN", 2, "complete-factor disjunctive product well-dominated "
                     "exactly when the mate is well-dominated with gamma <= 2",
                     _hyp_dkn, _dkn),
        TheoremEntry("E1", 2, "a well-dominated disjunctive product of non-complete "
                     "factors would force alpha(G)alpha(H) = gamma_t(G) = gamma_t(H)",
                     _hyp_e1, _e1),
        TheoremEntry("TF11", 1, "the eleven connected triangle-free well-dominated "
                     "graphs with gamma <= 3", _hyp_tf_connected, _tf11, _tf11_tag),
        TheoremEntry("G5WD", 1, "well-dominated, girth >= 5: pendant/5-cycle class "
                     "via the 0/2/4 edge condition, else K1, C7, or P10", _hyp_g5wd, _g5wd),
    ]
}


def check_instance(tid: str, instance) -> Verdict:
    """Evaluate one theorem on one instance (a Graph or an ordered pair)."""
    entry = THEOREMS[tid]
    if entry.arity == 1:
        if not isinstance(instance, Graph):
            raise TypeError(f"{tid} takes a single graph")
    else:
        if isinstance(instance, Graph) or len(instance) != 2:
            raise TypeError(f"{tid} takes an ordered pair of graphs")
        instance = tuple(instance)
    if not entry.hypothesis(instance):
        return HYP_NOT_MET
    return entry.conclusion(instance)
