"""Set-valued risk measures and acceptance sets as expression trees.

Evaluation returns canonical upper sets in M-coordinates.  Worst-case and
value-at-risk are built from scenario-wise cone membership.  The convex
acceptance sets are all ``Hull(points, rays)`` nodes, the positions that
dominate a point of conv(points) + cone(rays); one evaluates by exact
projection of its k mixing variables, one per point beyond the first and
one per ray: a Fourier-Motzkin step for k = 1, double description for k >= 2
(``geometry.eliminate``).  ``accepts`` projects the same variables from the
same rows with no coordinate of u, in position space, and builds no set value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from operator import add, mul

from . import geometry
from ._record import frozen
from .errors import BadLevel, DimensionNotOne, MalformedDocument, ShapeMismatch, WorkLimit
from .geometry import (
    Halfspace,
    Polyhedron,
    UpperSet,
    eliminate,
    empty_polyhedron,
    feasible,  # noqa: F401  (bench/spans.py traces it as measures.feasible)
    intersect_sets,
    minkowski_sum,
    scale_set,
    translate_set,
    union_sets,
    upper_set,
)
from .geometry import _minimal_offsets, _offset_piece
from .rationals import coprime, dot, fmt, over_den, rat, vscale, zeros
from .scenario import Market, PortfolioVector, RandomVector


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class MeasureExpr:
    """Base marker for risk-measure expression nodes."""


class AccExpr:
    """Base marker for acceptance-set expression nodes."""


@frozen
class WorstCase(MeasureExpr):
    """All eligible portfolios making the position solvent in every scenario."""


def _check_level(level) -> Fraction:
    level = rat(level)
    if level < 0 or level > 1:
        raise BadLevel(f"level must lie in [0, 1], got {level}")
    return level


@frozen
class VaRWeak(MeasureExpr):
    """u keeping P(X + u in -int K) at most the level."""

    level: Fraction

    def __post_init__(self):
        object.__setattr__(self, "level", _check_level(self.level))


@frozen
class VaRStrong(MeasureExpr):
    """u keeping P(X + u outside K) at most the level."""

    level: Fraction

    def __post_init__(self):
        object.__setattr__(self, "level", _check_level(self.level))


@frozen
class OfAcceptance(MeasureExpr):
    """Measure induced by an acceptance set: u such that X + u is accepted."""

    acceptance: "AccExpr"


@frozen
class Translate(MeasureExpr):
    """Pre-composition with a position shift: evaluates inner at X + y."""

    inner: MeasureExpr
    y: RandomVector


@frozen
class Shift(MeasureExpr):
    """Post-translation of the value set: inner(X) - u."""

    inner: MeasureExpr
    u: PortfolioVector


@frozen
class MeasureUnion(MeasureExpr):
    parts: tuple[MeasureExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@frozen
class MeasureIntersection(MeasureExpr):
    parts: tuple[MeasureExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@frozen
class ConvexCombo(MeasureExpr):
    """Pointwise convex combination: weight*left (+) (1-weight)*right."""

    weight: Fraction
    left: MeasureExpr
    right: MeasureExpr

    def __post_init__(self):
        w = rat(self.weight)
        if w < 0 or w > 1:
            raise BadLevel(f"convex weight must lie in [0, 1], got {w}")
        object.__setattr__(self, "weight", w)


@frozen
class Hull(AccExpr):
    """Positions X with X - (sum_k l_k points[k] + sum_j s_j rays[j]) in K in
    every scenario for some l in the simplex and s >= 0; ``points`` is
    nonempty, and every point and ray has one shape."""

    points: tuple[RandomVector, ...]
    rays: tuple[RandomVector, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(self, "rays", tuple(self.rays))
        if not self.points:
            raise ValueError("a hull needs at least one point")
        if len({(v.n, v.d) for v in self.points + self.rays}) != 1:
            raise ShapeMismatch("hull points and rays differ in shape")


# the four shapes with documents of their own: positions dominating z, t*z
# for t in [0, 1], t*z for t >= 0, and t*z + (1-t)*y for t in [0, 1]
def DominanceAt(z: RandomVector) -> Hull:
    return Hull((z,), ())


def Segment(z: RandomVector) -> Hull:
    return Hull((RandomVector.zero(z.n, z.d), z), ())


def Ray(z: RandomVector) -> Hull:
    return Hull((RandomVector.zero(z.n, z.d),), (z,))


def SegmentHull(y: RandomVector, z: RandomVector) -> Hull:
    return Hull((y, z), ())


@frozen
class OfMeasure(AccExpr):
    """Acceptance set of a measure: positions whose value contains zero."""

    measure: MeasureExpr


@frozen
class AccUnion(AccExpr):
    parts: tuple[AccExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@frozen
class AccIntersection(AccExpr):
    parts: tuple[AccExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@frozen
class ExtendedScalar:
    """Rational number extended with the two infinities."""

    kind: str  # "finite" | "minus_infinity" | "plus_infinity"
    value: Fraction | None = None

    @classmethod
    def finite(cls, v) -> "ExtendedScalar":
        return cls("finite", rat(v))

    @classmethod
    def minus_infinity(cls) -> "ExtendedScalar":
        return cls("minus_infinity")

    @classmethod
    def plus_infinity(cls) -> "ExtendedScalar":
        return cls("plus_infinity")

    def __str__(self):
        if self.kind == "finite":
            return fmt(self.value)
        return "-inf" if self.kind == "minus_infinity" else "+inf"


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _check_shape(market: Market, x: RandomVector, what: str = "position"):
    if (x.n, x.d) != (market.n, market.d):
        raise ShapeMismatch(
            f"{what} is {x.n}x{x.d}, market expects {market.n}x{market.d}")


def _m_normals(market: Market) -> tuple[list[tuple[int, ...]], int]:
    """The cone rows a of K written on M-coordinates, u -> a . (basis u), as
    int rows N over one denominator den: a . b_j = N_j / den.  Computed at
    first use and kept in the market's instance dict, outside its fields."""
    if (got := market.__dict__.get("_m_normals")) is not None:
        return got
    basis = [over_den(b) for b in market.subspace.basis]
    den = math.lcm(*(bden for _, bden in basis))
    got = market.__dict__["_m_normals"] = ([tuple(dot(a, b) * (den // bden) for b, bden in basis)
                                            for a in market.cone.halfspaces], den)
    return got


def _cone_rows(market: Market, normals, nden: int, vectors) -> list[tuple[Halfspace, ...]]:
    """Per scenario i, the int rows (N / nden) . u - sum_k s_k a . v_k,i >=
    -a . v_0,i of the cone rows a with M-normals N / nden, where ``vectors``
    are positions v_0, v_1, ... and s_k are coordinates after u.  Over the
    positions' common denominator den the row times nden * den is in ints;
    divided by its gcd it is the coprime row ``Halfspace.make`` builds.
    """
    den = math.lcm(*(v.den for v in vectors))
    # each position's rows times -nden * den / its den; v_0 last, for the offset
    scaled = [(v.ints, -nden * (den // v.den)) for v in vectors[1:] + vectors[:1]]
    cols = [tuple(c * den for c in normal) for normal in normals]
    rows = [[coprime(col + tuple(sum(map(mul, a, ints[i])) * f for ints, f in scaled))
             for a, col in zip(market.cone.halfspaces, cols)] for i in range(market.n)]
    return [tuple(Halfspace(v[:-1], v[-1]) for v in vs) for vs in rows]


def _threshold_rows(market: Market):
    """(dirs, lcm, groups, zero), kept like ``_m_normals``: the sorted primitive
    directions D_k of the M-normals N = g * D_k, the lcm of the g, per D_k
    the rows -a * nden * lcm / g of its cone rows a, and the zero-normal rows."""
    if (got := market.__dict__.get("_threshold_rows")) is not None:
        return got
    normals, nden = _m_normals(market)
    gs = [math.gcd(*n) for n in normals]
    prims = [coprime(n) if g else None for n, g in zip(normals, gs)]
    dirs = sorted(set(prims) - {None})
    lcm = math.lcm(*filter(None, gs))
    rows = list(zip(market.cone.halfspaces, gs, prims))
    groups = [[tuple(-c * nden * (lcm // g) for c in a) for a, g, p in rows if p == dk]
              for dk in dirs]
    zero = [a for a, _, p in rows if p is None]
    got = market.__dict__["_threshold_rows"] = (dirs, lcm, groups, zero)
    return got


def _thresholds(market: Market, x: RandomVector, strong: bool):
    """(dirs, scale, cols, oks): the primitive directions D_k of the
    M-normals; per D_k the int column of thresholds t_ik over the scenarios
    i: X_i + u meets every (strong) or some (weak) row of direction k iff D_k
    . u >= t_ik / scale; and per scenario ok_i, whether it meets every (some)
    zero-normal row.  With X_i = x_i / den the row a reads D_k . u >= -(a .
    x_i) * nden / (g * den)."""
    dirs, lcm, groups, zero = _threshold_rows(market)
    pick, agg = (max, all) if strong else (min, any)
    assets = list(zip(*x.ints))

    def col(a):  # a . x_i over the scenarios i
        return reduce(partial(map, add), [map(c.__mul__, xj) for c, xj in zip(a, assets)])

    cols = [list(reduce(partial(map, pick), map(col, group))) for group in groups]
    # with no zero-normal row, all(()) holds in every scenario and any(()) in none
    oks = [agg(v >= 0 for v in vs) for vs in zip(*map(col, zero))] if zero else [strong] * x.n
    return dirs, x.den * lcm, cols, oks


def worst_case(market: Market, x: RandomVector) -> UpperSet:
    """Eligible u with X + u solvent in every scenario: one piece D_k . u >=
    max_i t_ik, empty when a zero-normal row fails in a scenario."""
    _check_shape(market, x)
    dirs, scale, cols, oks = _thresholds(market, x, True)
    z = [Fraction(max(col), scale) for col in cols]
    pieces = [_offset_piece(market.m, dirs, z)] if all(oks) else []
    return upper_set(market.m, pieces, market.cone_in_m)


def _var_pieces(market: Market, kind: str, level: Fraction,
                x: RandomVector) -> list[Polyhedron]:
    """Pieces D_k . u >= z_k at the value's minimal offsets z.

    Scenario i is good when D_k . u >= t_ik (``_thresholds``) for every k
    ('strong') or for some k ('weak').  A recursion picks z_k from -inf
    (None) and the sorted t_ik of the scenarios in play: those with t_ik <=
    z_k stay in play ('strong') or turn good and leave it ('weak').  The
    last z_r is the least at which the good weight, in units of the
    probabilities' common denominator, reaches need."""
    strong = kind == "strong"
    dirs, scale, cols, oks = _thresholds(market, x, strong)
    r = len(dirs)
    den = math.lcm(*(p.denominator for p in market.space.probs))
    need = math.ceil((1 - level) * den)
    base, cands = 0, []  # weight good at every u; (t_i, w_i) of the others
    # per scenario its thresholds, an empty tuple when there is no direction
    scens = zip(*cols) if cols else [()] * market.n
    for prob, t, ok in zip(market.space.probs, scens, oks):
        w = prob.numerator * (den // prob.denominator)
        if ok and (not strong or not dirs):
            base += w
        elif dirs and ok == strong:  # the rest are never good
            cands.append((t, w))

    found = []  # offsets at which the good weight reaches need

    def visit(play, good, z):  # play stays sorted by t_ir
        k = len(z)
        if good < need and k == r - 1:  # the least last offset that reaches need
            for t, w in play:
                good += w
                if good >= need:
                    z += (t[k],)
                    break
        if good >= need:
            found.append(z + (None,) * (r - len(z)))
            if len(found) > geometry.VAR_OFFSET_LIMIT:
                raise WorkLimit(f"V@R collects {len(found)} offsets, "
                                f"over {geometry.VAR_OFFSET_LIMIT}")
        elif k < r - 1 and (not strong or good + sum(w for _, w in play) >= need):
            for zk in [None] + sorted({t[k] for t, _ in play}):
                hit, rest = [], []
                for c in play:
                    (hit if zk is not None and c[0][k] <= zk else rest).append(c)
                gain = 0 if strong else sum(w for _, w in hit)
                visit(hit if strong else rest, good + gain, z + (zk,))
                if good + gain >= need:
                    break

    visit(sorted(cands, key=lambda c: c[0][-1]), base, ())
    return [_offset_piece(market.m, dirs, [t if t is None else Fraction(t, scale) for t in z])
            for z in _minimal_offsets(found)]


def value_at_risk(market: Market, kind: str, level, x: RandomVector) -> UpperSet:
    """Set-valued V@R: the u whose good scenarios reach mass 1 - level.

    'strong' keeps X + u inside K on the good scenarios; 'weak' only keeps it
    out of -int K.  The good weight depends only on the D_k . u over the facet
    directions D_k of K cap M and grows with each, so the value is the union
    of the pieces D_k . u >= z_k over its minimal offsets z (``_var_pieces``).
    """
    _check_shape(market, x)
    level = _check_level(level)
    if kind not in ("weak", "strong"):
        raise BadLevel(f"kind must be 'weak' or 'strong', got {kind!r}")
    return upper_set(market.m, _var_pieces(market, kind, level, x), market.cone_in_m)


def _hull_rows(market: Market, h: Hull, x: RandomVector, normals, nden: int, width: int):
    """Rows over (u, t, s): x_i + u - p0_i - sum_k t_k (p_k - p0)_i - sum_j
    s_j r_j,i in K in every scenario i, t >= 0, sum t <= 1 and s >= 0, where
    ``normals`` / ``nden`` write the cone rows on the ``width`` coordinates
    of u."""
    p0 = h.points[0]
    _check_shape(market, p0, "hull")
    offsets = [p.sub(p0) for p in h.points[1:]] + list(h.rays)
    k, mixing, pad = len(offsets), len(h.points) - 1, (0,) * width
    rows = [r for rs in _cone_rows(market, normals, nden, [x.sub(p0)] + offsets) for r in rs]
    rows += [Halfspace(pad + tuple(int(i == j) for i in range(k)), 0) for j in range(k)]
    if mixing:
        rows.append(Halfspace(pad + (-1,) * mixing + (0,) * (k - mixing), -1))
    return tuple(rows)


def eval_acceptance(market: Market, a: AccExpr, x: RandomVector) -> UpperSet:
    """Value of the acceptance-set-induced measure: {u in M : X + u in A}."""
    _check_shape(market, x)
    if isinstance(a, Hull):
        m, k = market.m, len(a.points) - 1 + len(a.rays)
        piece = Polyhedron(m + k, _hull_rows(market, a, x, *_m_normals(market), m))
        if k:  # project out the mixing variables
            piece = eliminate(piece, range(m, m + k))
        if k > 1:  # double description gave the canonical piece; it absorbs K cap M
            pieces = () if piece == empty_polyhedron(m) else (piece,)
            return UpperSet(m, pieces, market.cone_in_m, canonical=True)
        return upper_set(m, (piece,), market.cone_in_m)
    if isinstance(a, OfMeasure):
        # every expressible measure is cash additive, so the acceptance set
        # of the measure induces the measure itself
        return eval_measure(market, a.measure, x)
    if isinstance(a, AccUnion):
        return reduce(union_sets, [eval_acceptance(market, p, x) for p in a.parts])
    if isinstance(a, AccIntersection):
        return reduce(intersect_sets, [eval_acceptance(market, p, x) for p in a.parts])
    raise TypeError(f"not an acceptance expression: {type(a).__name__}")


def eval_measure(market: Market, r: MeasureExpr, x: RandomVector) -> UpperSet:
    """Structural evaluation of a measure expression at a position."""
    _check_shape(market, x)
    if isinstance(r, WorstCase):
        return worst_case(market, x)
    if isinstance(r, VaRWeak):
        return value_at_risk(market, "weak", r.level, x)
    if isinstance(r, VaRStrong):
        return value_at_risk(market, "strong", r.level, x)
    if isinstance(r, OfAcceptance):
        return eval_acceptance(market, r.acceptance, x)
    if isinstance(r, Translate):
        return eval_measure(market, r.inner, x.add(r.y))
    if isinstance(r, Shift):
        u_m = market.to_m(r.u.coords)
        return translate_set(eval_measure(market, r.inner, x),
                             vscale(Fraction(-1), u_m))
    if isinstance(r, MeasureUnion):
        return reduce(union_sets, [eval_measure(market, p, x) for p in r.parts])
    if isinstance(r, MeasureIntersection):
        return reduce(intersect_sets, [eval_measure(market, p, x) for p in r.parts])
    if isinstance(r, ConvexCombo):
        left = scale_set(r.weight, eval_measure(market, r.left, x))
        right = scale_set(1 - r.weight, eval_measure(market, r.right, x))
        return minkowski_sum(left, right)
    raise TypeError(f"not a measure expression: {type(r).__name__}")


def accepts(market: Market, a: AccExpr, x: RandomVector) -> bool:
    """Membership of X in the acceptance set, by direct feasibility.

    A hull is a feasibility problem in its mixing variables alone.  Its rows
    are those of ``eval_acceptance``; tests check both against an oracle.
    """
    _check_shape(market, x)
    if isinstance(a, Hull):
        k = len(a.points) - 1 + len(a.rays)
        rows = _hull_rows(market, a, x, [()] * len(market.cone.halfspaces), 1, 0)
        return eliminate(Polyhedron(k, rows), range(k)).contains_point(())
    if isinstance(a, OfMeasure):
        value = eval_measure(market, a.measure, x)
        return value.contains_point(zeros(market.m))
    if isinstance(a, AccUnion):
        return any(accepts(market, p, x) for p in a.parts)
    if isinstance(a, AccIntersection):
        return all(accepts(market, p, x) for p in a.parts)
    raise TypeError(f"not an acceptance expression: {type(a).__name__}")


def scalarize_1d(market: Market, r: MeasureExpr, x: RandomVector) -> ExtendedScalar:
    """Infimum of the value set in the one-dimensional setting d = m = 1."""
    if market.d != 1 or market.m != 1:
        raise DimensionNotOne(f"scalarization needs d = m = 1, got d={market.d}, m={market.m}")
    value = eval_measure(market, r, x)
    if value.is_empty():
        return ExtendedScalar.plus_infinity()
    # each piece's least point is its tightest lower bound, if it has one
    lows = [max((Fraction(h.offset, h.normal[0]) for h in p.halfspaces if h.normal[0] > 0),
                default=None) for p in value.pieces]
    if None in lows:
        return ExtendedScalar.minus_infinity()
    return ExtendedScalar.finite(min(lows))


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def _position_from_ref(ref, loader):
    if isinstance(ref, dict) and "rows" in ref:
        return RandomVector.of(ref["rows"])
    if isinstance(ref, str) and loader is not None:
        return loader(ref)
    raise MalformedDocument(f"cannot resolve position reference {ref!r}")


def _hull_from_doc(body, loader, at: str) -> Hull:
    points, rays = body["points"], body["rays"]
    if not (isinstance(points, list) and points and isinstance(rays, list)):
        raise MalformedDocument(f"'hull' node at {at} needs a nonempty 'points' list "
                                f"and a 'rays' list, got {body!r}")
    return Hull(tuple(_position_from_ref(p, loader) for p in points),
                tuple(_position_from_ref(r, loader) for r in rays))


def _parts(key: str, body, parse, loader, at: str) -> tuple:
    if not isinstance(body, list) or not body:
        raise MalformedDocument(f"{key!r} node at {at} needs a nonempty list of parts")
    return tuple(parse(p, loader, f"{at}[{i}]") for i, p in enumerate(body))


def _var_from_doc(body, loader, at: str):
    if (kind := _VAR_KINDS.get(body["kind"])) is None:
        raise MalformedDocument(f"{at}.kind must be 'weak' or 'strong', got {body['kind']!r}")
    return kind(rat(body["level"]))


def _node(doc, path: str, parsers: dict, loader):
    """Parse the one-key document node at the JSON ``path`` with the parser
    registered for its key.

    Raises MalformedDocument naming the path of the first node or field that
    does not parse.
    """
    if not isinstance(doc, dict) or len(doc) != 1:
        raise MalformedDocument(f"bad node at {path}: {doc!r}")
    (key, body), = doc.items()
    if key not in parsers:
        raise MalformedDocument(f"unknown node at {path}: {key!r}")
    at = f"{path}.{key}"
    try:
        return parsers[key](body, loader, at)
    except KeyError as exc:  # parsers index a body only by its field names
        raise MalformedDocument(f"{at}.{exc.args[0]} is missing from the {key!r} node") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"bad {key!r} node at {at}: {exc}") from exc


_VAR_KINDS = {"weak": VaRWeak, "strong": VaRStrong}

_MEASURE_PARSERS = {
    "wc": lambda body, load, at: WorstCase(),
    "var": _var_from_doc,
    "of_acceptance": lambda body, load, at: OfAcceptance(acceptance_from_doc(body, load, at)),
    "translate": lambda body, load, at: Translate(
        measure_from_doc(body["inner"], load, f"{at}.inner"), _position_from_ref(body["y"], load)),
    "shift": lambda body, load, at: Shift(measure_from_doc(body["inner"], load, f"{at}.inner"),
                                          PortfolioVector.of(body["u"])),
    "union": lambda body, load, at: MeasureUnion(_parts("union", body, measure_from_doc, load, at)),
    "intersection": lambda body, load, at: MeasureIntersection(
        _parts("intersection", body, measure_from_doc, load, at)),
    "convex_combo": lambda body, load, at: ConvexCombo(
        rat(body["weight"]), measure_from_doc(body["left"], load, f"{at}.left"),
        measure_from_doc(body["right"], load, f"{at}.right")),
}

_ACCEPTANCE_PARSERS = {
    "dominance_at": lambda body, load, at: DominanceAt(_position_from_ref(body["z"], load)),
    "segment": lambda body, load, at: Segment(_position_from_ref(body["z"], load)),
    "ray": lambda body, load, at: Ray(_position_from_ref(body["z"], load)),
    "segment_hull": lambda body, load, at: SegmentHull(_position_from_ref(body["y"], load),
                                                       _position_from_ref(body["z"], load)),
    "hull": _hull_from_doc,
    "of_measure": lambda body, load, at: OfMeasure(measure_from_doc(body, load, at)),
    "union": lambda body, load, at: AccUnion(_parts("union", body, acceptance_from_doc, load, at)),
    "intersection": lambda body, load, at: AccIntersection(
        _parts("intersection", body, acceptance_from_doc, load, at)),
}


def measure_from_doc(doc, loader=None, path: str = "measure") -> MeasureExpr:
    """Parse a measure-expression document (see README for the grammar)."""
    if doc == "wc":
        return WorstCase()
    return _node(doc, path, _MEASURE_PARSERS, loader)


def acceptance_from_doc(doc, loader=None, path: str = "acceptance") -> AccExpr:
    """Parse an acceptance-expression document (see README for the grammar)."""
    return _node(doc, path, _ACCEPTANCE_PARSERS, loader)


def measure_to_doc(r: MeasureExpr) -> dict:
    if isinstance(r, WorstCase):
        return {"wc": {}}
    if isinstance(r, VaRWeak):
        return {"var": {"kind": "weak", "level": fmt(r.level)}}
    if isinstance(r, VaRStrong):
        return {"var": {"kind": "strong", "level": fmt(r.level)}}
    if isinstance(r, OfAcceptance):
        return {"of_acceptance": acceptance_to_doc(r.acceptance)}
    if isinstance(r, Translate):
        return {"translate": {"inner": measure_to_doc(r.inner), "y": r.y.to_doc()}}
    if isinstance(r, Shift):
        return {"shift": {"inner": measure_to_doc(r.inner), "u": r.u.to_doc()}}
    if isinstance(r, MeasureUnion):
        return {"union": [measure_to_doc(p) for p in r.parts]}
    if isinstance(r, MeasureIntersection):
        return {"intersection": [measure_to_doc(p) for p in r.parts]}
    if isinstance(r, ConvexCombo):
        return {"convex_combo": {"weight": fmt(r.weight),
                                 "left": measure_to_doc(r.left),
                                 "right": measure_to_doc(r.right)}}
    raise TypeError(f"not a measure expression: {type(r).__name__}")


def acceptance_to_doc(a: AccExpr) -> dict:
    if isinstance(a, Hull):
        # the four shapes with documents of their own print under their keys
        (p0, *rest), rays = a.points, a.rays
        if not rest and not rays:
            return {"dominance_at": {"z": p0.to_doc()}}
        if len(rest) + len(rays) == 1 and p0 == RandomVector.zero(p0.n, p0.d):
            return {"segment" if rest else "ray": {"z": (rest or rays)[0].to_doc()}}
        if len(rest) == 1 and not rays:
            return {"segment_hull": {"y": p0.to_doc(), "z": rest[0].to_doc()}}
        return {"hull": {"points": [p.to_doc() for p in a.points],
                         "rays": [r.to_doc() for r in rays]}}
    if isinstance(a, OfMeasure):
        return {"of_measure": measure_to_doc(a.measure)}
    if isinstance(a, AccUnion):
        return {"union": [acceptance_to_doc(p) for p in a.parts]}
    if isinstance(a, AccIntersection):
        return {"intersection": [acceptance_to_doc(p) for p in a.parts]}
    raise TypeError(f"not an acceptance expression: {type(a).__name__}")
