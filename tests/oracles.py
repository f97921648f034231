"""Independent oracles used to derive and freeze expected values.

Nothing here goes through the package's elimination / double-description /
subtraction machinery: membership is decided by direct dot products, interval
logic in one variable, 2-D cross-product hulls, or a Fraction-only reference
Fourier-Motzkin elimination.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from hypothesis import strategies as st


def frac_grid(lo, hi, step):
    """Rational grid from lo to hi inclusive."""
    lo, hi, step = Fraction(lo), Fraction(hi), Fraction(step)
    out = []
    v = lo
    while v <= hi:
        out.append(v)
        v += step
    return out


def grid_points(m, lo=-3, hi=3, step=Fraction(1, 2)):
    line = frac_grid(lo, hi, step)
    if m == 1:
        return [(v,) for v in line]
    if m == 2:
        return [(a, b) for a in line for b in line]
    raise ValueError("grid oracle supports m <= 2")


def interval_feasible(bounds, lo=None, hi=None, lo_strict=False, hi_strict=False):
    """Feasibility of {t : c*t >= b (or >)} for each (c, b, strict) in bounds,
    intersected with an optional [lo, hi] window.  Pure interval logic.
    """
    lower, lower_s = (Fraction(lo), lo_strict) if lo is not None else (None, False)
    upper, upper_s = (Fraction(hi), hi_strict) if hi is not None else (None, False)
    for c, b, strict in bounds:
        c, b = Fraction(c), Fraction(b)
        if c == 0:
            if b > 0 or (strict and b == 0):
                return False
            continue
        bound = b / c
        if c > 0:
            if lower is None or (bound, strict) > (lower, lower_s):
                lower, lower_s = bound, strict
        else:
            if upper is None or (bound, not strict) < (upper, not upper_s):
                upper, upper_s = bound, strict
    if lower is None or upper is None:
        return True
    if lower < upper:
        return True
    return lower == upper and not lower_s and not upper_s


def exists_t_member(rows, u, lo=None, hi=None):
    """Does some rational t satisfy every row (a..., c_t, b, strict) at u?

    Rows constrain a.u + c_t * t >= b; independent check of one-variable
    elimination.
    """
    bounds = []
    for row in rows:
        *a, c_t, b, strict = row
        lhs = sum(Fraction(ai) * ui for ai, ui in zip(a, u))
        bounds.append((Fraction(c_t), Fraction(b) - lhs, strict))
    return interval_feasible(bounds, lo=lo, hi=hi)


def in_cone(halfspace_rows, x):
    return all(sum(Fraction(c) * Fraction(v) for c, v in zip(a, x)) >= 0
               for a in halfspace_rows)


def cone2d_hull(generators):
    """Minimal-ish halfspace rows of a 2-D conic hull, via perpendiculars.

    Candidates are the two perpendiculars of each generator plus the
    generator itself; a candidate survives iff all generators lie weakly on
    its nonnegative side.  Exact for every 2-D cone.
    """
    gens = [(Fraction(a), Fraction(b)) for a, b in generators]
    cands = []
    for g in gens:
        cands.extend([(-g[1], g[0]), (g[1], -g[0]), g])
    kept = []
    for n in cands:
        if n == (0, 0):
            continue
        if all(n[0] * g[0] + n[1] * g[1] >= 0 for g in gens):
            if not any(_parallel_same_dir(n, k) for k in kept):
                kept.append(n)
    return kept


def _parallel_same_dir(a, b):
    return a[0] * b[1] == a[1] * b[0] and a[0] * b[0] + a[1] * b[1] > 0


def _rows_met(market, x):
    """u_m -> per scenario i, for each cone row a, whether a . (X_i + u) >= 0
    at M-coordinates u: a . u by the M-normals a . b_j, against -a . X_i.
    Both are plain Fraction sums; the -a . X_i are computed here, once."""
    cone = [tuple(map(Fraction, a)) for a in market.cone.halfspaces]
    normals = [tuple(sum(c * Fraction(v) for c, v in zip(a, b)) for b in market.subspace.basis)
               for a in cone]
    offsets = [tuple(-sum(c * Fraction(v) for c, v in zip(a, row)) for a in cone)
               for row in x.values]

    def met(u_m):
        au = [sum(c * Fraction(v) for c, v in zip(n, u_m, strict=True)) for n in normals]
        return [[v >= t for v, t in zip(au, ts)] for ts in offsets]
    return met


def wc_predicate(market, x, u_m):
    """Defining predicate of the worst-case measure at M-coordinates u."""
    return all(all(met) for met in _rows_met(market, x)(u_m))


def var_predicate(market, x, kind, level):
    """u_m -> whether the scenarios with X_i + u outside K ('strong') or in
    -int K (no row met, 'weak') weigh at most ``level``."""
    rows_met, good = _rows_met(market, x), all if kind == "strong" else any
    return lambda u_m: sum(p for p, met in zip(market.space.probs, rows_met(u_m))
                           if not good(met)) <= level


def var_strong_predicate(market, x, u_m, level):
    return var_predicate(market, x, "strong", level)(u_m)


def var_weak_predicate(market, x, u_m, level):
    return var_predicate(market, x, "weak", level)(u_m)


def polyhedra_equal_via_vrep(a, b) -> bool:
    """Exact equality of two weak polyhedra through mutual V-rep containment.

    conv(V_a) + cone(R_a) lies in b iff every vertex satisfies b's rows and
    every ray is in b's recession cone; symmetrically for the converse.
    """
    from svrisk.geometry import convert_rep

    va, vb = convert_rep(a), convert_rep(b)
    if bool(va.vertices) != bool(vb.vertices):
        return False

    def inside(v, poly):
        return all(h.holds_at(v) for h in poly.halfspaces)

    def recedes(r, poly):
        return all(sum(c * x for c, x in zip(h.normal, r)) >= 0
                   for h in poly.halfspaces)

    return (all(inside(v, b) for v in va.vertices)
            and all(recedes(r, b) for r in va.rays)
            and all(inside(v, a) for v in vb.vertices)
            and all(recedes(r, a) for r in vb.rays))


# ---------------------------------------------------------------------------
# reference Fourier-Motzkin feasibility on Fractions
# ---------------------------------------------------------------------------
#
# The elimination as it ran when every row entry was a Fraction: a row is
# (normal, offset, strict), meaning normal . x >= offset (> when strict),
# scaled to coprime integer-valued Fractions.  Self-contained on purpose, so
# the package's integer kernel is judged against arithmetic it does not share.


def ref_row(normal, offset=0, strict=False):
    """A reference row scaled by a positive rational to coprime integers."""
    vals = [Fraction(v) for v in normal] + [Fraction(offset)]
    if all(v == 0 for v in vals):
        return tuple(vals[:-1]), vals[-1], strict
    den = math.lcm(*(v.denominator for v in vals))
    ints = [v.numerator * (den // v.denominator) for v in vals]
    g = math.gcd(*(abs(v) for v in ints))
    vals = [Fraction(v // g) for v in ints]
    return tuple(vals[:-1]), vals[-1], strict


def ref_complement(row):
    normal, offset, strict = row
    return tuple(-c for c in normal), -offset, not strict


def ref_prune_rows(rows):
    """Drop trivial and dominated rows; None when trivially infeasible."""
    by_normal = {}
    for normal, offset, strict in rows:
        if all(c == 0 for c in normal):
            if (offset < 0) if strict else (offset <= 0):
                continue
            return None
        cur = by_normal.get(normal)
        if cur is None or (offset, strict) > (cur[1], cur[2]):
            by_normal[normal] = (normal, offset, strict)
    return sorted(by_normal.values())


def ref_eliminate_var(rows, j):
    """One Fourier-Motzkin step on coordinate j (width preserved)."""
    pos = [r for r in rows if r[0][j] > 0]
    neg = [r for r in rows if r[0][j] < 0]
    out = [r for r in rows if r[0][j] == 0]
    for pn, pb, ps in pos:
        for nn, nb, ns in neg:
            cp, cn = -nn[j], pn[j]
            normal = tuple(cp * a + cn * b for a, b in zip(pn, nn))
            out.append(ref_row(normal, cp * pb + cn * nb, ps or ns))
    return ref_prune_rows(out)


def ref_feasible(rows, dim):
    """Exact feasibility of (normal, offset, strict) rows in R^dim."""
    cur = ref_prune_rows([ref_row(*r) for r in rows])
    for j in range(dim):
        if cur is None:
            return False
        cur = ref_eliminate_var(cur, j)
    return cur is not None


def subtract_ref(piece, others, dim):
    """The full-dimensional residuals of ``piece`` minus the union of
    ``others``, each a list of (normal, offset, strict) rows, breadth first.
    A residual less the next piece q splits over the rows h_i of q into the
    residual with not h_i and h_0 .. h_i-1; an infeasible one is dropped,
    and at the end so is each whose all-strict system is infeasible."""
    residuals = [list(piece)]
    for q in others:
        residuals = [cand for r in residuals for i, h in enumerate(q)
                     if ref_feasible(cand := r + [ref_complement(h)] + list(q[:i]), dim)]
    return [r for r in residuals if ref_feasible([(a, b, True) for a, b, _ in r], dim)]


def _prune_sourced(rows):
    """Drop trivial rows, and each row that another with its normal, an offset
    at least as tight and a subset of its sources implies; None when a row
    0 >= b with b > 0 is left."""
    by_normal = {}
    for row in sorted(rows, key=lambda r: (-r[1], len(r[2]))):
        normal, offset, sources = row
        if all(c == 0 for c in normal):
            if offset > 0:
                return None
            continue
        kept = by_normal.setdefault(normal, [])
        if not any(k[2] <= sources for k in kept):
            kept.append(row)
    return [r for kept in by_normal.values() for r in kept]


def chernikov_feasible(rows, dim):
    """ref_feasible for weak rows, with Chernikov's rule: a row carries the set
    of input rows it is a positive sum of, and after s steps one built from
    more than s + 1 of them is dropped.  Exact for weak rows: an extreme ray
    of {l >= 0 : l.A_E = 0} over s eliminated columns E has at most s + 1
    nonzeros, and every such ray keeps a row at least as tight whose sources
    lie in its support (Chernikov 1965)."""
    cur = [(normal, offset, frozenset([i]))
           for i, (normal, offset, _) in enumerate(ref_row(*r) for r in rows)]
    for j in range(dim):
        cur = _prune_sourced(cur)
        if cur is None:
            return False
        pos = [r for r in cur if r[0][j] > 0]
        neg = [r for r in cur if r[0][j] < 0]
        nxt = [r for r in cur if r[0][j] == 0]
        for pn, pb, psrc in pos:
            for nn, nb, nsrc in neg:
                sources = psrc | nsrc
                if len(sources) <= j + 2:
                    cp, cn = -nn[j], pn[j]
                    normal, offset, _ = ref_row(tuple(cp * a + cn * b for a, b in zip(pn, nn)),
                                                cp * pb + cn * nb)
                    nxt.append((normal, offset, sources))
        cur = nxt
    return _prune_sourced(cur) is not None


def hull_accepts_ref(cone_rows, x, points, rays, decide=chernikov_feasible):
    """X dominates some sum_k l_k points[k] + sum_j s_j rays[j] with l in the
    simplex and s >= 0, by reference FM over the weights (l, s).

    The simplex is written with l_0 = 1 - sum_{k>0} l_k, so the system has no
    equality row, and every row is weak.  Positions are lists of scenario
    rows; a cone row a means a.v >= 0.  ``decide`` runs the elimination;
    ``ref_feasible``, with no pruning, judges the default.
    """
    def along(a, v):
        return sum(Fraction(c) * Fraction(w) for c, w in zip(a, v))

    p0, free = points[0], len(points) - 1
    gens = [[[a - b for a, b in zip(row, row0)] for row, row0 in zip(p, p0)]
            for p in points[1:]] + list(rays)
    width = len(gens)
    rows = [([-along(a, g[i]) for g in gens], along(a, p0[i]) - along(a, xrow), False)
            for i, xrow in enumerate(x) for a in cone_rows]
    rows += [([int(j == k) for j in range(width)], 0, False) for k in range(width)]
    rows.append(([-int(j < free) for j in range(width)], -1, False))
    # weights with the fewest sign pairs first keep the reference FM small
    order = sorted(range(width), key=lambda j: sum(r[0][j] > 0 for r in rows)
                   * sum(r[0][j] < 0 for r in rows))
    return decide([([r[0][j] for j in order], r[1], r[2]) for r in rows], width)


def good_scenario_sets_ref(probs, level):
    """Inclusion-minimal scenario sets of mass >= 1 - level, by Fraction sums,
    listed by size and then lexicographically.

    Probabilities are positive, so a set t of mass >= 1 - level is minimal
    exactly when t less its lightest member falls short: every proper subset
    lies in some t - {i}, and t - {i} is heaviest for the lightest i.  The
    mass and lightest member of t extend those of t[:-1], listed before it.
    """
    n = len(probs)
    need = 1 - Fraction(level)
    probs = [Fraction(p) for p in probs]
    mass, light, valid = {(): Fraction(0)}, {(): None}, []
    for size in range(n + 1):
        for t in itertools.combinations(range(n), size):
            if t:
                p, head = probs[t[-1]], t[:-1]
                mass[t] = mass[head] + p
                light[t] = p if light[head] is None else min(light[head], p)
            if mass[t] >= need and (not t or mass[t] - light[t] < need):
                valid.append(t)
    return valid


def scenario_rows_ref(market, x):
    """Per scenario i, the rows on M-coordinates forcing x_i + u into K, built
    from Fraction dot products and scaled by ``Halfspace.make``: a cone row a
    gives the normal (a . b for b in the basis of M) and the offset -a . x_i."""
    from svrisk.geometry import Halfspace

    def along(a, v):
        return sum((Fraction(c) * Fraction(w) for c, w in zip(a, v)), Fraction(0))

    return [tuple(Halfspace.make([along(a, b) for b in market.subspace.basis], -along(a, row))
                  for a in market.cone.halfspaces)
            for row in x.values]


def hull_rows_ref(market, hull, x, width):
    """The rows over (u, t) of a hull with k weights t, built from Fraction
    dot products and scaled by ``Halfspace.make``: per scenario i and cone
    row a, a . (X_i + u - p0_i - sum_j t_j d_j,i) >= 0, where the d_j are
    the points after p0 less p0, then the rays; then t_j >= 0, and the
    points' weights summing to at most 1.  ``width`` is m, or 0 for the rows
    at u = 0 in the weights alone."""
    from svrisk.geometry import Halfspace

    def along(a, v):
        return sum((Fraction(c) * Fraction(w) for c, w in zip(a, v)), Fraction(0))

    p0 = hull.points[0].values
    dirs = [[[a - b for a, b in zip(row, row0)] for row, row0 in zip(p.values, p0)]
            for p in hull.points[1:]] + [r.values for r in hull.rays]
    k, mixing = len(dirs), len(hull.points) - 1
    normals = [[along(a, b) for b in market.subspace.basis][:width] for a in market.cone.halfspaces]
    rows = [Halfspace.make(normal + [-along(a, d[i]) for d in dirs], along(a, p0[i]) - along(a, xrow))
            for i, xrow in enumerate(x.values)
            for a, normal in zip(market.cone.halfspaces, normals)]
    rows += [Halfspace.make([0] * width + [int(i == j) for i in range(k)], 0) for j in range(k)]
    if mixing:
        rows.append(Halfspace.make([0] * width + [-int(i < mixing) for i in range(k)], -1))
    return tuple(rows)


def project_rows_ref(rows, dim):
    """The one Fourier-Motzkin step on the last of ``dim`` coordinates as the
    package took it on ``Halfspace`` rows, strict ones too: ``_prune_rows``,
    ``_eliminate_var`` on that coordinate, and the coordinate dropped from
    every row left; None when they are infeasible.  It judges the int step
    ``geometry._project_rows``."""
    from svrisk.geometry import Halfspace, _eliminate_var, _prune_rows

    rows = _prune_rows(rows)
    rows = None if rows is None else _eliminate_var(rows, dim - 1)
    # the last coordinate is 0 in every row, so rows stay coprime
    return None if rows is None else tuple(Halfspace(h.normal[:-1], h.offset, h.strict) for h in rows)


def enumerated_pieces_ref(market, kind, level, x):
    """V@R candidate pieces by the 2^n enumeration: one piece per minimal
    good scenario set of ``good_scenario_sets_ref``, holding every row of
    its scenarios ('strong'), or one per choice of one row in each of its
    scenarios ('weak': X_i + u stays out of -int K when some row holds)."""
    from svrisk.geometry import Polyhedron

    rows = scenario_rows_ref(market, x)
    pieces = []
    for t in good_scenario_sets_ref(market.space.probs, level):
        if kind == "strong":
            pieces.append(Polyhedron(market.m, tuple(h for i in t for h in rows[i])))
        else:
            pieces += [Polyhedron(market.m, choice)
                       for choice in itertools.product(*(rows[i] for i in t))]
    return pieces


def worst_case_ref(market, x):
    """The worst case as one piece holding every scenario row of
    ``scenario_rows_ref``, n times the rows of K, canonicalized."""
    from svrisk.geometry import Polyhedron, upper_set

    piece = Polyhedron(market.m, tuple(h for r in scenario_rows_ref(market, x) for h in r))
    return upper_set(market.m, (piece,), market.cone_in_m)


def thresholds_ref(market, x, strong):
    """(dirs, [(T_i, ok_i)]) by Fraction dot products, one cone row at a
    time.  The row a has the M-normal N = (a . b for b in the basis of M);
    N = c D with D a primitive int vector and c > 0 turns a . (X_i + u) >= 0
    into D . u >= -a . X_i / c.  dirs are the sorted D; T_ik is the largest
    ('strong') or least ('weak') of these bounds over the rows of direction
    dirs[k], and ok_i says whether every ('strong') or some ('weak') row with
    N = 0 has a . X_i >= 0."""
    def along(a, v):
        return sum((Fraction(c) * Fraction(w) for c, w in zip(a, v)), Fraction(0))

    rows = []  # (D, c, a), with D None for a zero normal
    for a in market.cone.halfspaces:
        normal = [along(a, b) for b in market.subspace.basis]
        if not any(normal):
            rows.append((None, None, a))
            continue
        den = math.lcm(*(v.denominator for v in normal))
        ints = [v.numerator * (den // v.denominator) for v in normal]
        g = math.gcd(*ints)
        rows.append((tuple(v // g for v in ints), Fraction(g, den), a))
    dirs = sorted({d for d, _, _ in rows if d is not None})
    pick, agg = (max, all) if strong else (min, any)
    return dirs, [([pick(-along(a, xi) / c for d, c, a in rows if d == dk) for dk in dirs],
                   agg(along(a, xi) >= 0 for d, _, a in rows if d is None))
                  for xi in x.values]


# ---------------------------------------------------------------------------
# positions as rows of Fractions
# ---------------------------------------------------------------------------
#
# Position arithmetic as it ran when a position was a tuple of Fraction rows,
# to judge the int matrix of ``RandomVector`` against.


def rows_ref(rows):
    """The rows as tuples of Fractions; ValueError unless all have one length."""
    out = tuple(tuple(Fraction(v) for v in row) for row in rows)
    if len({len(row) for row in out}) > 1:
        raise ValueError("rows of different lengths")
    return out


def rows_plus_ref(x, y, sign=1):
    """x + sign * y entry by entry; ValueError when the shapes differ."""
    return tuple(tuple(a + sign * b for a, b in zip(r, s, strict=True))
                 for r, s in zip(x, y, strict=True))


def rows_scale_ref(t, x):
    return tuple(tuple(Fraction(t) * v for v in row) for row in x)


def rows_sup_ref(x):
    """The largest entry of each column."""
    return tuple(max(row[j] for row in x) for j in range(len(x[0])))


def var_offsets_ref(market, kind, level, x):
    """(dirs, offsets): every offset z the unpruned V@R recursion collects,
    with Fraction thresholds from ``thresholds_ref``; the value's pieces are
    {D_k . u >= z_k} at the minimal ones (None: no row k).

    Scenario i is good when D_k . u >= T_ik for every k ('strong') or some k
    ('weak').  The recursion picks z_k from -inf (None) and the sorted T_ik
    of the scenarios in play: those with T_ik <= z_k stay in play ('strong')
    or turn good and leave it ('weak').  The last z_r is the least at which
    the good mass reaches 1 - level."""
    strong = kind == "strong"
    dirs, scens = thresholds_ref(market, x, strong)
    r, need = len(dirs), 1 - Fraction(level)
    base, cands = Fraction(0), []  # mass good at every u; (T_i, p_i) of the others
    for p, (t, ok) in zip(market.space.probs, scens):
        if ok and (not strong or not dirs):
            base += p
        elif dirs and ok == strong:  # the rest are never good
            cands.append((tuple(t), p))
    found = []

    def visit(play, good, z):  # play stays sorted by T_ir
        k = len(z)
        if good < need and k == r - 1:
            for t, p in play:
                good += p
                if good >= need:
                    z += (t[k],)
                    break
        if good >= need:
            found.append(z + (None,) * (r - len(z)))
        elif k < r - 1 and (not strong or good + sum(p for _, p in play) >= need):
            for zk in [None] + sorted({t[k] for t, _ in play}):
                hit, rest = [], []
                for c in play:
                    (hit if zk is not None and c[0][k] <= zk else rest).append(c)
                gain = 0 if strong else sum(p for _, p in hit)
                visit(hit if strong else rest, good + gain, z + (zk,))
                if good + gain >= need:
                    break

    visit(sorted(cands, key=lambda c: c[0][-1]), base, ())
    return dirs, found


def gauss_jordan_ref(a, b):
    """(rank of a, whether A x = b has a solution) by Gauss-Jordan elimination
    in Fractions, one column at a time."""
    rows = [[Fraction(v) for v in r] + [Fraction(bv)] for r, bv in zip(a, b)]
    ncols, r = len(a[0]) if a else 0, 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        rows[r] = [v / rows[r][c] for v in rows[r]]
        for i in range(len(rows)):
            if i != r:
                rows[i] = [v - rows[i][c] * y for v, y in zip(rows[i], rows[r])]
        r += 1
    return r, all(row[ncols] == 0 for row in rows[r:])


# ---------------------------------------------------------------------------
# seeded draws
# ---------------------------------------------------------------------------
#
# The law checkers' samplers as they drew with ``rng.choice``, ``rng.randint``
# and Fraction arithmetic, to judge the int draws of ``svrisk._sampling``
# against: the same values from the same stream, leaving it in the same state.

DENOMS_REF = (1, 1, 2, 2, 3, 4)


def draw_ref(rng, bound, low=None):
    """(p, q): q drawn from DENOMS_REF, then p in [low, bound*q] (default low: -bound*q)."""
    bound = Fraction(bound)
    den = rng.choice(DENOMS_REF)
    top = max(1, bound.numerator * den // bound.denominator)
    return rng.randint(-top if low is None else low, top), den


def fraction_ref(rng, bound, low=None):
    return Fraction(*draw_ref(rng, bound, low))


def _combination_ref(gens, dim, coeff):
    point = (Fraction(0),) * dim
    for g in gens:
        c = coeff()
        point = tuple(a + c * b for a, b in zip(point, g))
    return point


def position_ref(market, rng, i):
    """The Fraction rows of draw i: zero, each unit position and its
    negative, a lone loss of one unit, then entries drawn in [-3, 3]."""
    n, d = market.n, market.d
    if i <= 2 * d:
        return (tuple(Fraction(int(i == 2 * k + 1) - int(i == 2 * k + 2)) for k in range(d)),) * n
    if i == 2 * d + 1:
        return ((Fraction(-1),) + (Fraction(0),) * (d - 1),) + ((Fraction(0),) * d,) * (n - 1)
    return tuple(tuple(fraction_ref(rng, 3) for _ in range(d)) for _ in range(n))


def eligible_ref(market, rng):
    return tuple(fraction_ref(rng, 3) for _ in range(market.m))


def cone_position_ref(market, rng):
    """Fraction rows: per scenario a combination of the generators of K."""
    gens = market.cone.generators
    return tuple(_combination_ref(gens, market.d, lambda: fraction_ref(rng, 1, 0))
                 for _ in range(market.n))


def km_point_ref(market, rng, bound):
    gens = market.cone_in_m.generators
    return _combination_ref(gens, market.m, lambda: fraction_ref(rng, bound, 0))


def neg_interior_point_ref(market, rng):
    gens = market.cone_in_m.generators
    return tuple(-c for c in _combination_ref(gens, market.m, lambda: fraction_ref(rng, 3, 1)))


def dyadic_in_01_ref(rng):
    k = rng.randint(1, 3)
    return Fraction(rng.randint(1, 2 ** k - 1), 2 ** k)


def dyadic_gt1_ref(rng):
    if rng.randint(0, 1):
        return Fraction(2 ** rng.randint(1, 3))
    return 1 + dyadic_in_01_ref(rng)


def drift_ref(point, gens, rng):
    """``point`` moved along each generator, one fresh coefficient in [0, 1]
    per coordinate of each generator, as ``_sampling.pick_point`` drifts."""
    for g in gens:
        point = tuple(a + fraction_ref(rng, 1, 0) * b for a, b in zip(point, g))
    return point


@st.composite
def bidask_3_cases(draw):
    """A three-asset bid-ask market with spreads from {5/4, 3/2, 2}, 2-5
    equally likely scenarios, a half-integer payoff and a level: a hypothesis
    strategy shared by the geometry, measure and representation tests."""
    from svrisk.scenario import RandomVector, load_market

    spreads = st.sampled_from(("5/4", "3/2", "2"))
    n = draw(st.integers(2, 5))
    mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1, 2]},
                       "cone": {"bidask": [[1 if i == j else draw(spreads) for j in range(3)]
                                           for i in range(3)]}})
    half = st.integers(-8, 8).map(lambda v: f"{v}/2")
    x = RandomVector.of(draw(st.lists(st.lists(half, min_size=3, max_size=3),
                                      min_size=n, max_size=n)))
    return mkt, x, draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))))
