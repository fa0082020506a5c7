"""The theorem table: one checkable predicate per verified statement.

Each entry has a hypothesis filter (the statement's standing assumptions) and
a conclusion that returns a :class:`Verdict`, whose witness dictionary goes
into counterexample certificates; vertex sets are rendered as sorted index
lists (product vertices use the row-major index map of :mod:`domlab.products`).
A ``tagged`` entry's conclusion may tag its verdict (TF11 names the catalog
member), and a sweep's report lists the tags.  A pair entry is
``swap_invariant`` when its hypothesis and conclusion are symmetric in the
factors: (g, h) and (h, g) then get the same status, each product being
commutative up to isomorphism.  Each entry carries its default sweep:
``orders`` (of each factor, for a pair entry) and ``triangle_free``, set only
where they differ from the defaults of :func:`domlab.verify._default_corpus`.
Biconditional statements go through :func:`_iff`, which reports which
direction failed; the product biconditionals (T2, T3, T4, LK2, DKN) all take
one form, :func:`_wd_iff`, whose verdict and witness come from one
well-dominated certificate.

An entry's ``settled``, where set, is a rule: a test on kept facts and cheap
predicates that :func:`check_instance` runs after the hypothesis, returning
``HOLDS`` without the conclusion where it fires.  It may fire only where the
conclusion reads ``HOLDS``, so that it saves work but changes no verdict, and
one test checks each rule against the conclusion.  A rule looks up what it
calls by module name at each call, so a patched name reaches it.  The factor
tests that T1, WCFACTOR, G4CART, DK, L3G and TV make first are part of their
statements, not rules: without its own, T1 would ask K2 box K2, whose factors
and product are all well-dominated, for factor certificates that do not
exist.  UB3 accepts a greedy dominating set of the direct product within the
bound, since gamma is at most the size of any dominating set, and runs the
exact search only when the greedy set is too large.

The rule of LK2, L2P and LK3 is that g's kept i is below its alpha.  Then
g x K_m (m = 2, 3) is not well-covered, hence not well-dominated: for a
maximal independent set I of g, I x V(K_m) is maximal independent in g x K_m
(a vertex (v, x) with v not in I has a neighbour c in I, and (c, y) is
adjacent to it for any y != x), so the product has maximal independent sets
of sizes m i and m alpha.  LK2's rule does not fire when g has the shape, so
that a failed converse names its witness.  No such lemma holds for the prism
g box K2 (50 connected graphs of order <= 8 that are not well-covered have a
well-covered prism), so PRISM's rule is another.  Take a maximum independent
set A of g, a greedy maximal independent set J of g - A and a minimum
dominating set D.  D x {0, 1} dominates the prism, and A x {0} u J x {1} is
maximal independent in it, hence minimal dominating: the layers meet only in
the edges (v, 0)(v, 1) and J misses A; a vertex (v, 0) outside the set has a
neighbour in A x {0}, and a (v, 1) outside it has (v, 0) when v is in A and a
neighbour in J x {1} otherwise.  So alpha + |J| > 2 gamma gives the prism
minimal dominating sets of two sizes.

The rule of DNE, and of T4 when neither factor is complete, is that the
factors' kept facts give g v h minimal dominating sets of two sizes.  For
maximal independent sets I of g and J of h, I x J is maximal independent in
g v h (DIND's lemma), hence minimal dominating, so the product has minimal
dominating sets of sizes i(g) i(h) and alpha(g) alpha(h), which differ when
g or h is not well-covered.  For a vertex v of g that is not universal and a
minimal total dominating set T of h, {v} x T is minimal dominating (DTOT's
lemma): a vertex (a, b) has a neighbour t of b in T, so (v, t) dominates it;
and for t in T, a vertex b of h whose only neighbour in T is t, and a vertex
a != v of g not adjacent to v, (a, b) is dominated by (v, t) alone.  So
alpha(g) alpha(h) and the sizes |T| of each isolate-free factor whose mate is
not complete are sizes of minimal dominating sets, and two distinct values
among them make g v h not well-dominated.  T4 still decides a complete
factor's product, so that a forced converse has products of the wrong shape
to fail on.  E1's hypothesis reads the well-covered half only: the total half
not firing is E1's own conclusion.  DKN, DIND and DTOT have no rule: they
decide every product, for DKN's witnesses and the two lemmas.

DIND and DTOT check one factor set per orbit of the automorphisms that
``canonical_labeling`` finds.  Automorphisms a of g and b of h give (x, y) ->
(a x, b y) of g v h, mapping I x J to aI x bJ and {v} x T to {a v} x bT, so an
orbit has one answer.  The kept lists hold each orbit's first set in the
kernel's order; DTOT fixes the lowest non-universal vertex of each vertex orbit.
If (X, Y) fails first in a full scan, the first X' in X's orbit and Y' in Y's
fail too and come no later: they are X and Y.

A fact that costs something or is asked again is kept on its graph as
``g.fact(fn)`` (:meth:`Graph.fact`), with ``fn`` looked up by its module
name at each call, so a patched name keys its own entry: connectivity in
every hypothesis; for factors girth, the two verdicts, isolatable vertices,
gamma_t, automorphisms, the two cut set lists and vertex orbits; and the
direct product with K3 being well-dominated, which L2P and LK3 both read.  The
cheap shape predicates (K2, K3, C4, coronas, completeness, universal and
isolated vertices) are called afresh, so a patch on them is always seen.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Iterable

from . import domination
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
    _greedy_cover,
    _greedy_independent,
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
from .isomorphism import are_isomorphic, canonical_labeling, orbit
from .products import cartesian, direct, disjunctive, spread

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
    tag: str | None = None  # a report tag, set only by a tagged theorem


HOLDS = Verdict("holds")
HYP_NOT_MET = Verdict("hypothesis-not-met")


@dataclass(frozen=True)
class TheoremEntry:
    tid: str
    arity: int  # 1 for single graphs, 2 for ordered factor pairs
    summary: str
    hypothesis: Callable
    conclusion: Callable  # returns Verdict with status holds/counterexample
    tagged: bool = False  # the report lists its verdicts' tags, even when none has one
    swap_invariant: bool = False  # (g, h) and (h, g) always get the same status
    orders: tuple[int, int] | None = None  # default sweep orders, of each factor for a pair
    triangle_free: bool = False  # the default sweep is over triangle-free graphs
    settled: Callable | None = None  # a rule: true only where the conclusion holds


def _sets(**kw) -> dict:
    return {name: list(set_of(v)) if isinstance(v, int) else v for name, v in kw.items()}


def _fail(clause: str, **witness) -> Verdict:
    return Verdict("counterexample", clause, _sets(**witness))


def _iff(lhs: bool, rhs: bool, lhs_only: str, rhs_only: str, rhs_witness: dict) -> Verdict:
    """Check ``lhs`` iff ``rhs``.  A failed direction reports its clause
    (``lhs_only``: lhs without rhs); only ``rhs_only`` carries a witness."""
    if lhs == rhs:
        return HOLDS
    if lhs:
        return Verdict("counterexample", lhs_only, {})
    return Verdict("counterexample", rhs_only, rhs_witness)


def _wd_iff(p: Graph, rhs: bool, lhs_only: str, rhs_only: str) -> Verdict:
    """Check "``p`` is well-dominated" iff ``rhs`` on one certificate search.
    A failed converse names the certificate's two minimal dominating sets of
    different sizes (the smaller need not be minimum)."""
    cert = well_dominated_certificate(p)
    if cert is not None and rhs:
        return _fail(rhs_only, minimal_dom_small=cert[0], minimal_dom_large=cert[1])
    return _iff(cert is None, rhs, lhs_only, rhs_only, {})


def _c4_or_corona(g: Graph) -> bool:
    return are_isomorphic(g, C4) or is_corona_of_connected(g)


# -- kept facts ------------------------------------------------------------------


def _orbit_firsts(g: Graph, sets: Iterable[int]) -> list[int]:
    """The first of ``sets`` in each orbit of g's kept automorphisms, in order."""
    gens, firsts, seen = g.fact(canonical_labeling)[1], [], set()
    for s in sets:
        if s not in seen:
            firsts.append(s)
            seen |= orbit(s, gens)
    return firsts


def _mis_list(g: Graph) -> list[int]:
    return _orbit_firsts(g, _iter_maximal_independent(g))


def _total_list(g: Graph) -> list[int]:
    return _orbit_firsts(g, _iter_minimal_total_dominating(g))


def _vertex_firsts(g: Graph) -> int:
    """The lowest vertex of each vertex orbit, as a mask."""
    return sum(_orbit_firsts(g, (1 << v for v in range(g.n))))


def _i_below_alpha(g: Graph) -> bool:
    return independent_domination_number(g) < independence_number(g)


def _prism_has_two_sizes(g: Graph) -> bool:
    _, alpha, widest = g.fact(domination._mis_extrema)
    rest = _greedy_independent(g.adj, iter_bits(g.full_mask & ~widest))
    return alpha + rest.bit_count() > 2 * domination_number(g)


def _disjunctive_has_two_sizes(pair) -> bool:
    """True when the kept facts of g and h (whose cut set lists keep every
    size) give g v h minimal dominating sets of two sizes (module docstring)."""
    g, h = pair
    if not (g.fact(is_well_covered) and h.fact(is_well_covered)):
        return True
    sizes = {independence_number(g) * independence_number(h)}
    for x, mate in ((g, h), (h, g)):
        if universal_vertices(mate) != mate.full_mask and not has_isolated_vertex(x):
            sizes.update(t.bit_count() for t in x.fact(_total_list))
    return len(sizes) > 1


def _k3_well_dominated(g: Graph) -> bool:
    return is_well_dominated(direct(g, K3).graph)


# -- single-graph conclusions -------------------------------------------------


def _p1(g: Graph) -> Verdict:
    # The lemma behind P1 and the deciders: two maximal independent sets of
    # different sizes are two minimal dominating sets of different sizes.
    cert = well_covered_certificate(g)
    if cert is None or (cert[0].bit_count() != cert[1].bit_count()
                        and all(is_minimal_dominating(g, s) for s in cert)):
        return HOLDS
    return _fail("well-covered certificate is not two minimal dominating sets "
                 "of different sizes", mis_small=cert[0], mis_large=cert[1])


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
        return _fail("prism well-dominated but base is not K2")
    return HOLDS


def _bc(g: Graph) -> Verdict:
    s = open_irredundant_minimum_dominating(g)
    if s is None:
        return Verdict("counterexample", "no open irredundant minimum dominating set",
                       {"gamma": domination_number(g)})
    return HOLDS


def _px(g: Graph) -> Verdict:
    return _iff(2 * domination_number(g) == g.n, _c4_or_corona(g),
                "gamma = n/2 but neither a 4-cycle nor a corona of a connected graph",
                "4-cycle or corona of a connected graph with gamma != n/2",
                {"gamma": domination_number(g), "order": g.n})


def _lk2(g: Graph) -> Verdict:
    return _wd_iff(direct(g, K2).graph, _c4_or_corona(g),
                   "direct product with K2 well-dominated but base has the wrong shape",
                   "4-cycle or corona, but direct product with K2 not well-dominated")


def _l2p(g: Graph) -> Verdict:
    if not g.fact(_k3_well_dominated):
        return HOLDS
    for s in _iter_maximal_independent(g):
        if not is_two_packing(g, s):
            return _fail("maximal independent set is not a 2-packing",
                         independent_set=s)
    return HOLDS


def _lk3(g: Graph) -> Verdict:
    if g.fact(_k3_well_dominated) and not are_isomorphic(g, K3):
        return _fail("direct product with K3 well-dominated but base is not K3")
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


def _tf11(g: Graph) -> Verdict:
    tag = classify_small_triangle_free(g)
    member = tag != NOT_MEMBER
    verdict = _iff(is_well_dominated(g) and domination_number(g) <= 3, member,
                   "well-dominated with gamma <= 3 but outside the eleven-graph catalog",
                   "catalog member that is not well-dominated with gamma <= 3",
                   {"tag": tag})
    return replace(verdict, tag=tag) if member else verdict


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
    if g.fact(is_well_dominated) or h.fact(is_well_dominated):
        return HOLDS
    if is_well_dominated(cartesian(g, h).graph):
        wg = well_dominated_certificate(g)
        wh = well_dominated_certificate(h)
        return _fail("product well-dominated but neither factor is",
                     g_small=wg[0], g_large=wg[1], h_small=wh[0], h_large=wh[1])
    return HOLDS


def _t2(pair) -> Verdict:
    g, h = pair
    return _wd_iff(cartesian(g, h).graph, are_isomorphic(g, K2) and are_isomorphic(h, K2),
                   "triangle-free product well-dominated with a factor other than K2",
                   "K2 box K2 not recognized as well-dominated")


def _t3_rhs(g: Graph, h: Graph) -> bool:
    return (are_isomorphic(g, K3) and are_isomorphic(h, K3)
            or are_isomorphic(g, K2) and _c4_or_corona(h)
            or are_isomorphic(h, K2) and _c4_or_corona(g))


def _t3(pair) -> Verdict:
    g, h = pair
    return _wd_iff(direct(g, h).graph, _t3_rhs(g, h),
                   "direct product well-dominated outside the characterized shapes",
                   "characterized shape with a direct product that is not well-dominated")


def _t4_rhs(g: Graph, h: Graph) -> bool:
    return any(is_complete(k) and m.fact(is_well_dominated)
               and domination_number(m) <= 2 for k, m in ((g, h), (h, g)))


def _t4(pair) -> Verdict:
    g, h = pair
    return _wd_iff(disjunctive(g, h).graph, _t4_rhs(g, h),
                   "disjunctive product well-dominated without the complete-factor shape",
                   "complete factor with small-gamma well-dominated mate, "
                   "but the disjunctive product is not well-dominated")


def _ub3(pair) -> Verdict:
    g, h = pair
    p = direct(g, h).graph
    bound = 3 * domination_number(g) * domination_number(h)
    if _greedy_cover(p).bit_count() <= bound:
        return HOLDS
    got = domination_number(p)
    if got > bound:
        return Verdict("counterexample", "gamma of the direct product exceeds 3*gamma*gamma",
                       {"gamma_product": got, "bound": bound})
    return HOLDS


def _wcfactor(pair) -> Verdict:
    g, h = pair
    if g.fact(is_well_covered) or h.fact(is_well_covered):
        return HOLDS
    if is_well_covered(cartesian(g, h).graph):
        return _fail("product well-covered but neither factor is")
    return HOLDS


def _g4cart(pair) -> Verdict:
    g, h = pair
    if are_isomorphic(g, K2) or are_isomorphic(h, K2):
        return HOLDS
    if is_well_covered(cartesian(g, h).graph):
        return _fail("triangle-free product well-covered with no K2 factor")
    return HOLDS


def _dk(pair) -> Verdict:
    g, h = pair
    if is_complete(h):
        return HOLDS
    if is_well_covered(direct(g, h).graph):
        return _fail("well-covered direct product whose isolatable-free factor "
                     "is not complete")
    return HOLDS


def _l3g(pair) -> Verdict:
    g, h = pair
    gammas = [domination_number(g), domination_number(h)]
    if 3 * gammas[0] >= g.n and 3 * gammas[1] >= h.n:
        return HOLDS
    if is_well_dominated(direct(g, h).graph):
        return Verdict("counterexample",
                       "well-dominated direct product with a factor of gamma < n/3",
                       {"gammas": gammas, "orders": [g.n, h.n]})
    return HOLDS


def _tv(pair) -> Verdict:
    g, h = pair
    covered = g.fact(is_well_covered) and h.fact(is_well_covered)
    if covered and independence_number(g) * h.n == independence_number(h) * g.n:
        return HOLDS
    if not is_well_covered(direct(g, h).graph):
        return HOLDS
    if not covered:
        return _fail("well-covered direct product with a factor that is not well-covered")
    return Verdict("counterexample", "alpha(G)|V(H)| != alpha(H)|V(G)|",
                   {"alphas": [independence_number(g), independence_number(h)],
                    "orders": [g.n, h.n]})


def _dind(pair) -> Verdict:
    g, h = pair
    p = disjunctive(g, h).graph
    q = h.n
    j_sets = h.fact(_mis_list)
    for i_set in g.fact(_mis_list):
        block = spread(i_set, q)
        for j_set in j_sets:
            prod_set = block * j_set
            if not is_maximal_independent(p, prod_set):
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
        firsts = fixed.fact(_vertex_firsts) & ~universal_vertices(fixed)
        for t_set in other.fact(_total_list):
            block = spread(t_set, set_step)
            for v in iter_bits(firsts):
                prod_set = block << v * fixed_step
                if not is_minimal_dominating(p, prod_set):
                    return _fail("fixed-vertex copy of a minimal total dominating set "
                                 "is not a minimal dominating set of the disjunctive product",
                                 total_dominating=t_set, product_set=prod_set,
                                 fixed_vertex=[v])
    return HOLDS


def _dne(pair) -> Verdict:
    if is_well_dominated(disjunctive(*pair).graph):
        return _fail("disjunctive product of two non-complete factors is well-dominated")
    return HOLDS


def _dkn(pair) -> Verdict:
    g, h = pair
    return _wd_iff(disjunctive(g, h).graph,
                   h.fact(is_well_dominated) and domination_number(h) <= 2,
                   "disjunctive product with a complete factor well-dominated "
                   "while the mate is not well-dominated with gamma <= 2",
                   "well-dominated mate with gamma <= 2 but the disjunctive "
                   "product is not well-dominated")


def _e1(pair) -> Verdict:
    g, h = pair
    a = independence_number(g) * independence_number(h)
    gamma_t = [g.fact(total_domination_number), h.fact(total_domination_number)]
    if a == gamma_t[0] == gamma_t[1]:
        return HOLDS
    return Verdict("counterexample",
                   "alpha(G)alpha(H), gamma_t(G), gamma_t(H) not all equal",
                   {"alpha_product": a, "gamma_t": gamma_t})


# -- hypotheses ------------------------------------------------------------------


def _hyp_true(_instance) -> bool:
    return True


def _hyp_connected(g: Graph) -> bool:
    return g.fact(is_connected)


def _hyp_nontrivial_connected(g: Graph) -> bool:
    return g.n >= 2 and g.fact(is_connected)


def _hyp_no_isolated(g: Graph) -> bool:
    return not has_isolated_vertex(g)


def _hyp_tf_connected(g: Graph) -> bool:
    return g.fact(is_connected) and girth(g) >= 4


def _hyp_g5wd(g: Graph) -> bool:
    return g.fact(is_connected) and girth(g) >= 5 and is_well_dominated(g)


def _both(hypothesis: Callable) -> Callable:
    """The pair hypothesis ``hypothesis`` of both factors."""
    def both(pair) -> bool:
        return hypothesis(pair[0]) and hypothesis(pair[1])
    return both


_hyp_pair_nontrivial_connected = _both(_hyp_nontrivial_connected)


def _hyp_pair_girth4(pair) -> bool:
    return all(_hyp_nontrivial_connected(x) and x.fact(girth) >= 4 for x in pair)


def _hyp_t3(pair) -> bool:
    g, h = pair
    return _hyp_pair_nontrivial_connected(pair) and (
        not g.fact(domination.has_isolatable_vertex)
        or not h.fact(domination.has_isolatable_vertex))


def _hyp_dk(pair) -> bool:
    return (_hyp_pair_nontrivial_connected(pair)
            and not pair[1].fact(domination.has_isolatable_vertex))


def _hyp_dne(pair) -> bool:
    g, h = pair
    return (g.fact(is_connected) and not has_isolated_vertex(h)
            and not is_complete(g) and not is_complete(h))


def _hyp_dkn(pair) -> bool:
    return pair[0].n >= 2 and is_complete(pair[0])


def _hyp_e1(pair) -> bool:
    g, h = pair
    return (_hyp_pair_nontrivial_connected(pair)
            and not is_complete(g) and not is_complete(h)
            and g.fact(is_well_covered) and h.fact(is_well_covered)
            and is_well_dominated(disjunctive(g, h).graph))


THEOREMS: dict[str, TheoremEntry] = {
    e.tid: e
    for e in [
        TheoremEntry("T1", 2, "a well-dominated Cartesian product has a "
                     "well-dominated factor", _both(_hyp_connected), _t1, swap_invariant=True),
        TheoremEntry("T2", 2, "a triangle-free Cartesian product is well-dominated "
                     "only for K2 box K2", _hyp_pair_girth4, _t2, swap_invariant=True,
                     triangle_free=True),
        TheoremEntry("T3", 2, "well-dominated direct products with an "
                     "isolatable-free factor are K3xK3 or K2 with a 4-cycle/corona",
                     _hyp_t3, _t3, swap_invariant=True),
        TheoremEntry("T4", 2, "well-dominated disjunctive products pair a complete "
                     "factor with a well-dominated mate of gamma <= 2",
                     _hyp_pair_nontrivial_connected, _t4, swap_invariant=True, orders=(2, 4),
                     settled=lambda pair: (not any(map(is_complete, pair))
                                           and _disjunctive_has_two_sizes(pair))),
        TheoremEntry("P1", 1, "well-dominated implies well-covered", _hyp_true, _p1),
        TheoremEntry("CHAIN", 1, "gamma <= i <= alpha <= Gamma", _hyp_true, _chain),
        TheoremEntry("UB3", 2, "gamma(direct product) <= 3 gamma gamma for isolate-free "
                     "factors", _both(_hyp_no_isolated), _ub3, swap_invariant=True),
        TheoremEntry("WCFACTOR", 2, "a well-covered Cartesian product has a "
                     "well-covered factor", _hyp_true, _wcfactor, swap_invariant=True),
        TheoremEntry("G4CART", 2, "a triangle-free well-covered Cartesian product "
                     "has a K2 factor", _hyp_pair_girth4, _g4cart, swap_invariant=True,
                     triangle_free=True),
        TheoremEntry("PRISM", 1, "a well-dominated prism forces base K2",
                     _hyp_nontrivial_connected, _prism, orders=(2, 8),
                     settled=_prism_has_two_sizes),
        TheoremEntry("BC", 1, "an isolate-free graph has an open irredundant "
                     "minimum dominating set", _hyp_no_isolated, _bc, orders=(1, 7)),
        TheoremEntry("DK", 2, "well-covered direct product: the isolatable-free "
                     "factor is complete", _hyp_dk, _dk),
        TheoremEntry("L3G", 2, "well-dominated direct product: 3 gamma >= order "
                     "for both factors", _both(_hyp_no_isolated), _l3g, swap_invariant=True),
        TheoremEntry("TV", 2, "well-covered direct product: both factors "
                     "well-covered with alpha(G)|V(H)| = alpha(H)|V(G)|",
                     _both(_hyp_no_isolated), _tv, swap_invariant=True),
        TheoremEntry("PX", 1, "gamma = n/2 exactly for the 4-cycle and coronas "
                     "of connected graphs", _hyp_nontrivial_connected, _px,
                     orders=(2, 8)),
        TheoremEntry("LK2", 1, "direct product with K2 well-dominated exactly "
                     "for 4-cycles and coronas of connected graphs",
                     _hyp_nontrivial_connected, _lk2, orders=(2, 8),
                     settled=lambda g: _i_below_alpha(g) and not _c4_or_corona(g)),
        TheoremEntry("L2P", 1, "well-dominated direct product with K3: every "
                     "maximal independent set is a 2-packing", _hyp_connected, _l2p,
                     settled=_i_below_alpha),
        TheoremEntry("LK3", 1, "direct product with K3 well-dominated only "
                     "for base K3", _hyp_nontrivial_connected, _lk3, orders=(2, 8),
                     settled=_i_below_alpha),
        TheoremEntry("LNE", 1, "no connected graph has 2 <= alpha = gamma "
                     "with gamma_t = 2 gamma", _hyp_connected, _lne),
        TheoremEntry("DIND", 2, "products of maximal independent sets are maximal "
                     "independent in the disjunctive product", _hyp_true, _dind,
                     swap_invariant=True, orders=(2, 4)),
        TheoremEntry("DTOT", 2, "fixed-vertex copies of minimal total dominating "
                     "sets are minimal dominating in the disjunctive product",
                     _both(_hyp_no_isolated), _dtot, swap_invariant=True,
                     orders=(2, 4)),
        TheoremEntry("DNE", 2, "disjunctive products of two non-complete factors "
                     "are never well-dominated", _hyp_dne, _dne, orders=(2, 4),
                     settled=_disjunctive_has_two_sizes),
        TheoremEntry("DKN", 2, "complete-factor disjunctive product well-dominated "
                     "exactly when the mate is well-dominated with gamma <= 2",
                     _hyp_dkn, _dkn, orders=(2, 4)),
        TheoremEntry("E1", 2, "a well-dominated disjunctive product of non-complete "
                     "factors would force alpha(G)alpha(H) = gamma_t(G) = gamma_t(H)",
                     _hyp_e1, _e1, swap_invariant=True, orders=(2, 4)),
        TheoremEntry("TF11", 1, "the eleven connected triangle-free well-dominated "
                     "graphs with gamma <= 3", _hyp_tf_connected, _tf11, tagged=True,
                     triangle_free=True),
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
    if entry.settled is not None and entry.settled(instance):
        return HOLDS
    return entry.conclusion(instance)
