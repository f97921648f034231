"""Set-valued risk measures and acceptance sets as expression trees.

Evaluation returns canonical upper sets in M-coordinates.  Worst-case and
value-at-risk are built from scenario-wise cone membership.  The convex
acceptance sets are all ``Hull(points, rays)`` nodes, the positions that
dominate a point of conv(points) + cone(rays), with k mixing variables, one
per point beyond the first and one per ray.  One int table serves every
hull (``_weight_columns``): per scenario i and cone row a, the ints a . d_j,i
of the k weights and a . (X_i - p0_i), read off the positions' own int
matrices; ``_bound_rows`` bounds the weights.  With k = 0 (``DominanceAt``)
the value is the worst case at X - p0.  For k <= 1, every shape with a
document of its own, ``accepts`` takes the one interval the table leaves for
the weight (``geometry._interval``), and the value is one Fourier-Motzkin
step on it, the last coordinate, in the table's int rows, then dropped
(``geometry._project_rows``), when the rows left lie on facets of K cap M:
they go to ``upper_set`` as offsets.  Otherwise, and for k >= 2, the value
is the projection of the weak rows, laid out as ``Halfspace``s, by double
description (``geometry.eliminate``); ``accepts`` takes them at u = 0, a
pointed polyhedron in the weights, and asks whether it has a vertex.

The node tables ``_MEASURE_PARSERS`` and ``_ACCEPTANCE_PARSERS`` are the
document grammar: per key, the record a node builds and the readers of its
body.  ``_node`` parses any node by its row and ``_to_doc`` prints it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import partial, reduce
from operator import add, le, mul, neg, sub

from . import _record, geometry
from ._record import frozen
from .errors import BadLevel, MalformedDocument, ShapeMismatch, WorkLimit
from .geometry import (
    Polyhedron,
    UpperSet,
    convert_rep,
    eliminate,
    empty_polyhedron,
    feasible,  # not called here; the benchmark's tracer reads measures.feasible
    intersect_sets,
    minkowski_sum,
    scale_set,
    translate_set,
    union_sets,
    upper_set,
)
from .geometry import _halfspace, _minimal_offsets, _offset_piece
from .rationals import coprime, fmt, rat, vscale, zeros
from .scenario import Market, PortfolioVector, RandomVector, _position_doc


# ---------------------------------------------------------------------------
# expression nodes
# ---------------------------------------------------------------------------


class MeasureExpr:
    """Base marker for risk-measure expression nodes."""


class AccExpr:
    """Base marker for acceptance-set expression nodes."""


class _Parts:
    """A union or intersection: ``parts`` is a nonempty tuple."""

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if not self.parts:
            raise ValueError(f"{type(self).__name__} needs at least one part")


@frozen
class WorstCase(MeasureExpr):
    """All eligible portfolios making the position solvent in every scenario."""


def _check_var(kind: str, level) -> Fraction:
    """The level as a Fraction; BadLevel unless kind and level are valid."""
    if kind not in ("weak", "strong"):
        raise BadLevel(f"kind must be 'weak' or 'strong', got {kind!r}")
    level = rat(level)
    if level < 0 or level > 1:
        raise BadLevel(f"level must lie in [0, 1], got {level}")
    return level


@frozen
class VaR(MeasureExpr):
    """u keeping P(X + u outside K) ('strong' kind) or P(X + u in -int K)
    ('weak' kind) at most the level."""

    kind: str
    level: Fraction

    def __post_init__(self):
        object.__setattr__(self, "level", _check_var(self.kind, self.level))


# V@R of one kind, by the names the kinds had as classes
def VaRWeak(level) -> VaR:
    return VaR("weak", level)


def VaRStrong(level) -> VaR:
    return VaR("strong", level)


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
class MeasureUnion(_Parts, MeasureExpr):
    parts: tuple[MeasureExpr, ...]


@frozen
class MeasureIntersection(_Parts, MeasureExpr):
    parts: tuple[MeasureExpr, ...]


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
class AccUnion(_Parts, AccExpr):
    parts: tuple[AccExpr, ...]


@frozen
class AccIntersection(_Parts, AccExpr):
    parts: tuple[AccExpr, ...]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------


def _check_shape(market: Market, x: RandomVector, what: str = "position"):
    if (x.n, x.d) != (market.n, market.d):
        raise ShapeMismatch(
            f"{what} is {x.n}x{x.d}, market expects {market.n}x{market.d}")


class _Table:
    """K's rows on M, built once per market (``_table``): the cone rows a as
    int rows N over ``nden``, a . b_j = N_j / nden (``EligibleSubspace.rows_on_m``);
    the sorted primitive directions D_k of the N = g * D_k,
    the ``lcm`` of the g, per D_k the rows -a * nden * lcm / g of its a, the
    zero-normal rows, whether every D_k is a facet normal of K cap M, the lcm
    ``den`` of the probabilities and the int ``weights`` p_i * den."""

    def __init__(self, market: Market):
        self.nden = market.subspace._columns[1]
        self.normals = market.subspace.rows_on_m(market.cone.halfspaces)
        gs = [math.gcd(*n) for n in self.normals]
        prims = [coprime(n) if g else None for n, g in zip(self.normals, gs)]
        self.dirs = sorted(set(prims) - {None})
        self.lcm = math.lcm(*filter(None, gs))
        rows = list(zip(market.cone.halfspaces, gs, prims))
        self.groups = [[tuple(-c * self.nden * (self.lcm // g) for c in a)
                        for a, g, p in rows if p == dk] for dk in self.dirs]
        self.zero = [a for a, _, p in rows if p is None]
        self.facets = tuple(self.dirs) == market.cone_in_m.halfspaces
        self.den = math.lcm(*(p.denominator for p in market.space.probs))
        self.weights = [p.numerator * (self.den // p.denominator) for p in market.space.probs]


def _table(market: Market) -> _Table:
    """The market's ``_Table``, kept in its instance dict, outside its fields."""
    return market.__dict__.get("_table") or market.__dict__.setdefault("_table", _Table(market))


def _thresholds(market: Market, x: RandomVector, strong: bool):
    """(dirs, scale, cols, oks): the primitive directions D_k of the
    M-normals; per D_k the int column of thresholds t_ik over the scenarios
    i: X_i + u meets every (strong) or some (weak) row of direction k iff D_k
    . u >= t_ik / scale; and per scenario ok_i, whether it meets every (some)
    zero-normal row.  With X_i = x_i / den the row a reads D_k . u >= -(a .
    x_i) * nden / (g * den)."""
    t = _table(market)
    pick, agg = (max, all) if strong else (min, any)
    assets = list(zip(*x.ints))

    def col(a):  # a . x_i over the scenarios i
        return reduce(partial(map, add), [map(c.__mul__, xj) for c, xj in zip(a, assets)])

    cols = [list(reduce(partial(map, pick), map(col, group))) for group in t.groups]
    # with no zero-normal row, all(()) holds in every scenario and any(()) in none
    oks = [agg(v >= 0 for v in vs) for vs in zip(*map(col, t.zero))] if t.zero else [strong] * x.n
    return t.dirs, x.den * t.lcm, cols, oks


def _offset_args(market: Market, zs, scale: int):
    """``upper_set``'s pieces, cone and offsets for the int offsets ``zs`` over
    ``scale``: the offsets alone where every D_k is a facet normal of K cap
    M, else the pieces D_k . u >= z_k / scale alone."""
    t = _table(market)
    pieces = None if t.facets else [_offset_piece(market.m, t.dirs, z, scale) for z in zs]
    return pieces, market.cone_in_m, (zs, scale) if t.facets else None


def worst_case(market: Market, x: RandomVector) -> UpperSet:
    """Eligible u with X + u solvent in every scenario: the piece of the int
    offsets max_i t_ik, empty when a zero-normal row fails in a scenario."""
    _check_shape(market, x)
    _, scale, cols, oks = _thresholds(market, x, True)
    zs = [tuple(map(max, cols))] if all(oks) else []
    return upper_set(market.m, *_offset_args(market, zs, scale))


def _var_offsets(market: Market, kind: str, level: Fraction, x: RandomVector):
    """(zs, scale): the value's minimal offsets zs, int over ``scale``, of its
    pieces D_k . u >= z_k / scale (None: no row k).

    Scenario i is good when D_k . u >= t_ik (``_thresholds``) for every k
    ('strong') or some k ('weak').  A depth-first search picks z_k from the
    sorted t_ik in play, or None (-inf, 'weak' only): those with t_ik <= z_k
    stay in play ('strong') or turn good and leave it ('weak').  The last z_r
    is the least at which the good weight (in units of the probabilities'
    common denominator) reaches need.  It cuts branches with no minimal
    offset.  Strong: z_k >= q_k, the least z_k at which the weight in play
    reaches need; each z_j is some t_ij in play (else the next lower z_j
    covers the branch); no offset found lies below (z_1..z_k, q_k+1..q_r).
    Weak: each z_j is t_ij of a scenario good through j alone (else the next
    lower z_j gives the same good set), tracked for r > 2 only."""
    strong, table = kind == "strong", _table(market)
    dirs, scale, cols, oks = _thresholds(market, x, strong)
    r, (p, q) = len(dirs), (level.numerator, level.denominator)
    need = -((p - q) * table.den // q)  # ceil((1 - level) * den)
    base, cands = 0, []  # weight good at every u; (t_i, w_i) of the others
    # per scenario its thresholds, an empty tuple when there is no direction
    scens = zip(*cols) if cols else [()] * market.n
    for w, t, ok in zip(table.weights, scens, oks):
        if ok and (not strong or not dirs):
            base += w
        elif dirs and ok == strong:  # the rest are never good
            cands.append((t, w))
    found = []  # offsets at which the good weight reaches need

    def collect(z):
        found.append(z)
        if len(found) > geometry.VAR_OFFSET_LIMIT:
            raise WorkLimit(f"V@R collects {len(found)} offsets, over {geometry.VAR_OFFSET_LIMIT}")

    def least(play, k, good=0):  # the least z_k with good + weight{t_ik <= z_k in play} >= need
        for t, w in play if k == r - 1 else sorted(play, key=lambda c: c[0][k]):
            good += w
            if good >= need:
                return t[k]

    def strong_visit(play, low, k):  # play meets low[:k]; low[k:] are its q_l
        if k == r - 1:
            return collect(low)
        for zk in sorted({t[k] for t, _ in play if t[k] >= low[k]}):
            hit = [c for c in play if c[0][k] <= zk]
            if all(any(t[j] == low[j] for t, _ in hit) for j in range(k)):
                bound = (*low[:k], zk, *(least(hit, j) for j in range(k + 1, r)))
                if not any(all(map(le, f, bound)) for f in found):
                    strong_visit(hit, bound, k + 1)

    def weak_visit(play, good, z, ties):  # ties: per z_j, the t_j = z_j good through j alone
        k = len(z)
        if good >= need:
            return collect(z + (None,) * (r - k))
        if k == r - 1:
            zk = least(play, k, good)
            if zk is not None and (ties is None or all(any(t[k] > zk for t in tie)
                                                       for tie in ties)):
                collect(z + (zk,))
            return
        weak_visit(play, good, z + (None,), ties)  # z_k = -inf turns no scenario good
        for zk in sorted({t[k] for t, _ in play}):
            hit, rest, keep = [], [], ties
            for c in play:
                (hit if c[0][k] <= zk else rest).append(c)
            if ties is not None:
                keep = [[t for t in tie if t[k] > zk] for tie in ties]
                if not all(keep):
                    break
                keep.append([t for t, _ in hit if t[k] == zk])
            weak_visit(rest, good + (gain := sum(w for _, w in hit)), z + (zk,), keep)
            if good + gain >= need:
                break

    cands.sort(key=lambda c: c[0][-1])
    if base >= need:
        collect((None,) * r)
    elif strong and sum(w for _, w in cands) >= need:  # no cands without directions
        strong_visit(cands, tuple(least(cands, j) for j in range(r)), 0)
    elif dirs and not strong:
        weak_visit(cands, base, (), [] if r > 2 else None)
    return _minimal_offsets(found), scale


def value_at_risk(market: Market, kind: str, level, x: RandomVector) -> UpperSet:
    """Set-valued V@R: the u whose good scenarios reach mass 1 - level.

    'strong' keeps X + u inside K on the good scenarios; 'weak' only keeps it
    out of -int K.  The good weight depends only on the D_k . u over the facet
    directions D_k of K cap M and grows with each, so the value is the union
    of the pieces D_k . u >= z_k over its minimal int offsets z (``_var_offsets``).
    """
    _check_shape(market, x)
    level = _check_var(kind, level)
    return upper_set(market.m, *_offset_args(market, *_var_offsets(market, kind, level, x)))


def _weight_columns(market: Market, h: Hull, x: RandomVector):
    """(scale, cols) of a hull with k mixing weights t: per scenario i and
    cone row a, the ints (a . d_1,i, ..., a . d_k,i, a . (X_i - p0_i)) times
    ``scale``, the lcm of the positions' dens, where the d_j are the points
    after p0 less p0, then the rays, and d_1 is 0 when k = 0.  X + u lies in
    the hull when a . u >= (sum_j t_j e_j - c) / scale for every (e, c) at
    some t of ``_bound_rows``.  Each a . v_i is read off v's own int rows."""
    p0, cone = h.points[0], market.cone.halfspaces
    _check_shape(market, p0, "hull")
    vs = h.points[1:] + h.rays + (x,)
    scale = math.lcm(p0.den, *(v.den for v in vs))
    # a . v_i over the cells (i, a), times scale
    cols = [[sum(map(mul, a, row)) * (scale // v.den) for row in v.ints for a in cone] for v in vs]
    if any(map(any, p0.ints)):  # a zero p0 (Segment, Ray) is subtracted from none
        base = [sum(map(mul, a, row)) * (scale // p0.den) for row in p0.ints for a in cone]
        for j in [*range(len(h.points) - 1), -1]:  # the points after p0 and x, less p0
            cols[j] = list(map(sub, cols[j], base))
    return scale, list(zip(*cols) if len(cols) > 1 else zip([0] * len(cols[0]), *cols))


def _bound_rows(h: Hull, width: int) -> list[tuple[int, ...]]:
    """The rows t_j >= 0 of a hull's k weights and, with points after p0, the
    sum of their weights at most 1, over (u, t) with ``width`` coordinates
    of u: each row's int normal, its offset and False, a ``Halfspace`` row."""
    k, mixing, pad = len(h.points) - 1 + len(h.rays), len(h.points) - 1, (0,) * width
    rows = [pad + tuple(int(i == j) for i in range(k)) + (0, False) for j in range(k)]
    return rows + [pad + (-1,) * mixing + (0,) * (k - mixing) + (-1, False)] if mixing else rows


def eval_acceptance(market: Market, a: AccExpr, x: RandomVector) -> UpperSet:
    """Value of the acceptance-set-induced measure: {u in M : X + u in A}.

    X + u dominates the point p0 of a hull with no mixing variable exactly
    when u lies in ``worst_case`` at X - p0.  Other hulls write their rows
    over (u, t) from ``_weight_columns`` and ``_bound_rows``: one weight takes
    one int Fourier-Motzkin step on it, and more are projected by ``eliminate``.
    """
    _check_shape(market, x)
    if isinstance(a, Hull):
        m, k = market.m, len(a.points) - 1 + len(a.rays)
        if not k:
            _check_shape(market, a.points[0], "hull")
            return worst_case(market, x.sub(a.points[0]))
        (scale, cols), t = _weight_columns(market, a, x), _table(market)
        ns, f = [tuple(c * scale for c in n) for n in t.normals] * market.n, (-t.nden).__mul__
        rows = [coprime(n + tuple(map(f, col))) + (False,) for n, col in zip(ns, cols)] + _bound_rows(a, m)
        if k == 1:  # one Fourier-Motzkin step on t; rows on facets of K cap M pass as offsets
            stepped = geometry._prune_ints(rows, m + 1)
            stepped = stepped and geometry._project_rows(stepped, m + 1)
            held = geometry._parse_offsets([] if stepped is None else [stepped], market.cone_in_m.halfspaces)
            if held is not None:
                return upper_set(m, None, market.cone_in_m, held)
        # the projection is the canonical piece; it absorbs K cap M
        piece = eliminate(Polyhedron(m + k, tuple(map(_halfspace, rows))), range(m, m + k))
        pieces = () if piece == empty_polyhedron(m) else (piece,)
        return UpperSet(m, pieces, market.cone_in_m, canonical=True)
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
    if isinstance(r, VaR):
        return value_at_risk(market, r.kind, r.level, x)
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

    A hull is a feasibility problem in its k mixing variables alone, at u =
    0: for k <= 1 the exact interval that its scenario columns leave for the
    weight, for k >= 2 whether its rows, which bound every weight below by
    0, have a vertex.  Tests check both routes against an oracle.
    """
    _check_shape(market, x)
    if isinstance(a, Hull):
        k, cols = len(a.points) - 1 + len(a.rays), _weight_columns(market, a, x)[1]
        if k < 2:  # the interval left for t at u = 0
            return geometry._interval([(-e, -c, False) for e, c in cols] + _bound_rows(a, 0)) is not None
        rows = [coprime(tuple(map(neg, col))) + (False,) for col in cols] + _bound_rows(a, 0)
        return bool(convert_rep(Polyhedron(k, tuple(map(_halfspace, rows)))).vertices)
    if isinstance(a, OfMeasure):
        value = eval_measure(market, a.measure, x)
        return value.contains_point(zeros(market.m))
    if isinstance(a, AccUnion):
        return any(accepts(market, p, x) for p in a.parts)
    if isinstance(a, AccIntersection):
        return all(accepts(market, p, x) for p in a.parts)
    raise TypeError(f"not an acceptance expression: {type(a).__name__}")


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


def _position(ref, load, at: str) -> RandomVector:
    """The position at the JSON path ``at``: a position document, or a name
    that ``load(name, at)`` resolves."""
    if isinstance(ref, dict):
        return _position_doc(ref, at)
    if isinstance(ref, str) and load is not None:
        return load(ref, at)
    raise MalformedDocument(f"{at} must be a position document or a position name")


def _positions(refs, load, at: str) -> tuple:
    if not isinstance(refs, list):
        raise TypeError(f"{at} must be a list")
    return tuple(_position(r, load, f"{at}[{i}]") for i, r in enumerate(refs))


def _parts(parse, body, load, at: str) -> tuple:
    if not isinstance(body, list) or not body:
        key = at.rpartition(".")[2]
        raise MalformedDocument(f"{key!r} node at {at} needs a nonempty list of parts")
    return tuple(parse(p, load, f"{at}[{i}]") for i, p in enumerate(body))


def _kind(kind, load, at: str) -> str:
    if kind not in ("weak", "strong"):
        raise MalformedDocument(f"{at} must be 'weak' or 'strong', got {kind!r}")
    return kind


def _plain(convert):
    """The reader of a value that ``convert`` alone parses."""
    return lambda value, load, at: convert(value)


def _node(doc, path: str, table: dict, loader):
    """Parse the one-key document node at the JSON ``path`` by its row
    (record, fields) in ``table``: the record of the values that ``fields``
    reads, either one reader of the whole body or, for an object body, one
    (name, reader) pair per field in the record's order.

    Raises MalformedDocument naming the path of the first missing field, else
    of the first field that the node does not have, else of the first node or
    field that does not parse; a BadLevel of the record names its path too.
    """
    if not isinstance(doc, dict) or len(doc) != 1:
        raise MalformedDocument(f"bad node at {path}: {doc!r}")
    (key, body), = doc.items()
    if key not in table:
        raise MalformedDocument(f"unknown node at {path}: {key!r}")
    (record, fields), at = table[key], f"{path}.{key}"
    try:
        if callable(fields):
            values = [fields(body, loader, at)]
        elif not isinstance(body, dict):
            raise MalformedDocument(f"bad {key!r} node at {at}: the body is not an object: {body!r}")
        elif missing := [name for name, _ in fields if name not in body]:
            raise MalformedDocument(f"{at}.{missing[0]} is missing from the {key!r} node")
        elif extra := [name for name in body if name not in dict(fields)]:
            raise MalformedDocument(f"{at}.{extra[0]} is not a field of the {key!r} node")
        else:
            values = [read(body[name], loader, f"{at}.{name}") for name, read in fields]
        try:  # around the record alone: a nested node's BadLevel names its own path
            return record(*values)
        except BadLevel as exc:
            raise BadLevel(f"bad {key!r} node at {at}: {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise MalformedDocument(f"bad {key!r} node at {at}: {exc}") from exc


def measure_from_doc(doc, loader=None, path: str = "measure") -> MeasureExpr:
    """Parse a measure-expression document (see README for the grammar)."""
    if doc == "wc":
        return WorstCase()
    return _node(doc, path, _MEASURE_PARSERS, loader)


def acceptance_from_doc(doc, loader=None, path: str = "acceptance") -> AccExpr:
    """Parse an acceptance-expression document (see README for the grammar)."""
    return _node(doc, path, _ACCEPTANCE_PARSERS, loader)


_MEASURE_PARSERS = {
    "wc": (WorstCase, ()),
    "var": (VaR, (("kind", _kind), ("level", _plain(rat)))),
    "of_acceptance": (OfAcceptance, acceptance_from_doc),
    "translate": (Translate, (("inner", measure_from_doc), ("y", _position))),
    "shift": (Shift, (("inner", measure_from_doc), ("u", _plain(PortfolioVector.of)))),
    "union": (MeasureUnion, partial(_parts, measure_from_doc)),
    "intersection": (MeasureIntersection, partial(_parts, measure_from_doc)),
    "convex_combo": (ConvexCombo, (("weight", _plain(rat)), ("left", measure_from_doc),
                                   ("right", measure_from_doc))),
}

_ACCEPTANCE_PARSERS = {
    "hull": (Hull, (("points", _positions), ("rays", _positions))),
    "dominance_at": (DominanceAt, (("z", _position),)),
    "segment": (Segment, (("z", _position),)),
    "ray": (Ray, (("z", _position),)),
    "segment_hull": (SegmentHull, (("y", _position), ("z", _position))),
    "of_measure": (OfMeasure, measure_from_doc),
    "union": (AccUnion, partial(_parts, acceptance_from_doc)),
    "intersection": (AccIntersection, partial(_parts, acceptance_from_doc)),
}


def _print(value):
    """The document of a value: a rational by ``fmt``, alone or inside a tuple
    (where an int is a rational too); an int, bool, str, None or dict as it
    is; any other value by its own ``to_doc``."""
    if isinstance(value, Fraction):
        return fmt(value)
    if isinstance(value, tuple):
        return [fmt(v) if isinstance(v, int) else _print(v) for v in value]
    if value is None or isinstance(value, (int, str, dict)):
        return value
    return value.to_doc()


def _record_doc(record) -> dict:
    """Each field of ``record`` under its own name."""
    return {name: _print(getattr(record, name)) for name in _record.fields(record)}


def _to_doc(node, table: dict, what: str) -> dict:
    """The document of ``node`` under the key of its record in ``table``: each
    field under its own name, or the one field of a wrapper or parts record
    as the whole body."""
    for key, (record, fields) in table.items():
        if type(node) is record:
            if callable(fields):
                return {key: _print(getattr(node, _record.fields(node)[0]))}
            return {key: _record_doc(node)}
    raise TypeError(f"not {what}: {type(node).__name__}")


def measure_to_doc(r: MeasureExpr) -> dict:
    return _to_doc(r, _MEASURE_PARSERS, "a measure expression")


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
    return _to_doc(a, _ACCEPTANCE_PARSERS, "an acceptance expression")


# an expression prints by its own to_doc, as every other record does
MeasureExpr.to_doc, AccExpr.to_doc = measure_to_doc, acceptance_to_doc
