"""Constructive decompositions, dual certificates, and the translation link.

A measure's value set at a queried position is rebuilt as the union of the
values of convex acceptance-set members anchored at the vertices of the set:
the anchor for vertex v is Z = X + v, so the member's value at X contains v
and is dominated by the measure; a vertex held in ints
(``UpperSet.vertex_ints``) is added to X in ints.  Dual certificates witness
exclusion of a portfolio from the worst-case measure with a single-scenario
vector probability measure and a violated dual-cone generator.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import reduce

from ._record import frozen
from .cones import dual_cone
from .errors import (
    EmptyValue,
    NotInIntersection,
    OnlyOrthogonalSeparators,
)
from .geometry import convert_rep, separating_point, union_sets
from . import _sampling
from .laws import LawReport, SampleBudget, _witness, check_measure_law
from .measures import (
    AccExpr,
    AccUnion,
    DominanceAt,
    Hull,
    MeasureExpr,
    OfAcceptance,
    OfMeasure,
    Ray,
    Segment,
    Translate,
    _check_shape,
    _record_doc,
    accepts,
    eval_acceptance,
    eval_measure,
)
from .rationals import Vec, dot, over_den
from .scenario import Market, PortfolioVector, RandomVector


_MEMBER_KIND = {
    "monetary": DominanceAt,
    "star_normalized": Segment,
    "coherent": Ray,
}


@frozen
class DecompositionFamily:
    """Finite family of convex acceptance members with their anchors."""

    kind: str
    members: tuple[AccExpr, ...]
    anchors: tuple[RandomVector, ...]
    empty_value: bool = False

    to_doc = _record_doc


def _vertex_anchors(market: Market, r: MeasureExpr, x: RandomVector):
    """The value at x and the anchors X + v at the vertices v of its pieces, in
    piece order: in ints where ``UpperSet.vertex_ints`` holds a piece's
    vertex, else off its ``convert_rep``."""
    value = eval_measure(market, r, x)
    held = value.vertex_ints() or [None] * len(value.pieces)
    return value, [market.add_eligible(x, *v) for i, h in enumerate(held) for v in
                   ([h] if h else [(u, 1) for u in convert_rep(value.pieces[i]).vertices])]


def _sampled_anchors(market: Market, r: MeasureExpr, extra: SampleBudget):
    """Accepted positions of the measure, used as additional anchors."""
    rng = random.Random(extra.seed)
    target = OfMeasure(r)
    anchors = []
    for i in range(extra.count):
        z = _sampling.accepted_position(market, target, rng, i)
        if z is not None:
            anchors.append(z)
    return anchors


def decompose(market: Market, r: MeasureExpr, theorem: str, x: RandomVector,
              extra: SampleBudget | None = None) -> DecompositionFamily:
    """Build the theorem's acceptance family anchored at the value's vertices.

    ``theorem`` picks the member constructor: 'monetary' wraps anchors in
    dominance sets, 'star_normalized' in segments (requires a normalized
    star-shaped measure), 'coherent' in rays (requires positive homogeneity).
    ``extra`` adds seeded accepted-sample anchors.  When the value set is
    empty and no sampled anchor exists, EmptyValue is raised; with sampled
    anchors the family is returned flagged instead.
    """
    if theorem not in _MEMBER_KIND:
        raise ValueError(f"unknown decomposition theorem {theorem!r}")
    value, anchors = _vertex_anchors(market, r, x)
    flagged = value.is_empty()
    if extra is not None:
        anchors.extend(_sampled_anchors(market, r, extra))
    if not anchors:
        raise EmptyValue("value set is empty and no sampled anchors were found")
    wrap = _MEMBER_KIND[theorem]
    members = tuple(wrap(z) for z in anchors)
    family = DecompositionFamily(theorem, members, tuple(anchors),
                                 empty_value=flagged)
    _validate_family(market, family)
    return family


def _validate_family(market: Market, family: DecompositionFamily):
    for member, anchor in zip(family.members, family.anchors):
        if not accepts(market, member, anchor):
            raise AssertionError("family member rejects its own anchor")


def family_union_value(market: Market, family: DecompositionFamily,
                       x: RandomVector):
    return reduce(union_sets, [eval_acceptance(market, member, x) for member in family.members])


def reconstruct_check(market: Market, r: MeasureExpr,
                      family: DecompositionFamily, x: RandomVector,
                      budget: SampleBudget = SampleBudget()) -> LawReport:
    """Union of member values against the measure's value at x.

    The union must always be dominated by the measure; equality is required
    exactly when the family contains every vertex-derived anchor of the value
    set at x.
    """
    value, needed = _vertex_anchors(market, r, x)
    union = family_union_value(market, family, x)
    name = f"reconstruct_{family.kind}"
    checks = [("reconstruct_containment", union, value)]
    if set(needed) <= set(family.anchors):
        # union is inside value, so equality needs only value inside union
        checks.append(("reconstruct_equality", value, union))
    for samples, (relation, inner, outer) in enumerate(checks, start=1):
        w = separating_point(inner, outer)
        if w is not None:
            witness = _witness(relation, {"x": x}, {"separating_point": w})
            return LawReport(name, "fail", samples, witness, budget.seed, budget.count)
    return LawReport(name, "pass", 2, None, budget.seed, budget.count)


# ---------------------------------------------------------------------------
# dual certificates
# ---------------------------------------------------------------------------


@frozen
class DualCertificate:
    """(Q, y) pair excluding a portfolio from the worst-case value.

    ``q_columns[j]`` is the probability vector of component j over scenarios;
    here every component concentrates on one scenario.  y is a dual-cone
    generator outside the orthogonal complement of M.
    """

    q_columns: tuple[Vec, ...]
    y: Vec
    excluded_point: PortfolioVector

    to_doc = _record_doc


def _in_m_perp(market: Market, y: Vec) -> bool:
    return all(dot(y, b) == 0 for b in market.subspace.basis)


def dual_certificate(market: Market, y_vec: RandomVector,
                     u: PortfolioVector) -> DualCertificate | None:
    """Certificate that u is missing from the worst-case value, or None.

    One scan of the dual generators a over the scenarios w decides both
    outcomes: u is in the worst-case value iff no a . (y_vec(w) + u) < 0.
    The first violated a not orthogonal to M gives the certificate, every Q
    component concentrated on its scenario.  Raises OnlyOrthogonalSeparators
    when every violated a is orthogonal to M, where the dual representation
    cannot see the exclusion."""
    market.to_m(u.coords)  # ShapeMismatch unless u is in M
    _check_shape(market, y_vec)
    (uints, uden), orthogonal = over_den(u.coords), False
    dual_gens = dual_cone(market.cone).generators
    for i, row in enumerate(y_vec.ints):
        for a in dual_gens:  # a . (row / den + uints / uden) < 0, in ints
            if dot(a, row) * uden + dot(a, uints) * y_vec.den < 0:
                if _in_m_perp(market, a):
                    orthogonal = True
                    continue
                column = tuple(Fraction(int(k == i)) for k in range(market.n))
                return DualCertificate((column,) * market.d, a, u)
    if orthogonal:
        raise OnlyOrthogonalSeparators(
            "every separating dual generator lies in the orthogonal complement of M")
    return None


def validate_certificate(market: Market, y_vec: RandomVector,
                         cert: DualCertificate) -> bool:
    """Exact re-check of all certificate conditions; False on any failure.

    Raises ShapeMismatch when y_vec does not fit the market."""
    _check_shape(market, y_vec)
    n, d = market.n, market.d
    if len(cert.q_columns) != d or any(len(col) != n for col in cert.q_columns):
        return False
    for col in cert.q_columns:
        if any(q < 0 for q in col) or sum(col) != 1:
            return False
    if len(cert.y) != d or len(cert.excluded_point.coords) != d:
        return False
    # y in K+ vis-a-vis the generators of K, and not orthogonal to M
    if any(dot(cert.y, g) < 0 for g in market.cone.generators):
        return False
    if _in_m_perp(market, cert.y):
        return False
    # diag(y) dQ/dP must land in K+ scenario-wise
    for i in range(n):
        row = tuple(cert.y[j] * cert.q_columns[j][i] / market.space.probs[i]
                    for j in range(d))
        if any(dot(row, g) < 0 for g in market.cone.generators):
            return False
    # exclusion: y . (u - E^Q[-Y]) < 0
    rows = y_vec.values
    expectation = tuple(
        sum((cert.q_columns[j][i] * (-rows[i][j]) for i in range(n)), Fraction(0))
        for j in range(d))
    gap = dot(cert.y, tuple(a - b for a, b in
                            zip(cert.excluded_point.coords, expectation)))
    return gap < 0


# ---------------------------------------------------------------------------
# the monetary <-> star-shaped translation link
# ---------------------------------------------------------------------------


def star_link(market: Market, members, y: RandomVector,
              budget: SampleBudget = SampleBudget()) -> tuple[MeasureExpr, LawReport]:
    """Translate the union measure of convex ``members`` by a position in
    every one of them.

    ``members`` is a sequence of hull acceptance nodes.  Returns the
    translated measure R_y(X) = R_A(X + y) together with the
    star-shapedness report that the construction guarantees to pass.
    Raises NotInIntersection when y is rejected by some member.
    """
    members = tuple(members)
    if not members:
        raise NotInIntersection("the empty family has no intersection")
    for member in members:
        if not isinstance(member, Hull):
            raise ValueError(
                f"star link requires convex member kinds, got {type(member).__name__}")
        if not accepts(market, member, y):
            raise NotInIntersection("y is rejected by a family member")
    translated = Translate(OfAcceptance(AccUnion(members)), y)
    report = check_measure_law(market, translated, "R6", budget)
    return translated, report
