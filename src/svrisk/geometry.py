"""Exact polyhedral kernel in the coordinates of the eligible subspace.

Sets handled here are finite unions of closed convex polyhedra in R^m, each
absorbing a fixed full-dimensional recession cone.  All arithmetic is exact.
Every halfspace row, and every cone row and generator, is a tuple of coprime
Python ints, so elimination, pruning and subtraction never leave integer
arithmetic; Fractions appear only where a value is divided (vertices,
explicit points) and in documents.  Three primitives carry the module:

* Fourier-Motzkin elimination (feasibility, interior tests, and projections
  of one coordinate or of systems with a strict row),
* the double description method (H-rep <-> V-rep, cones and their duals, and
  projections of a weak system onto all but two or more coordinates),
* polyhedral subtraction (witness points, and coverage among pieces whose
  rows are not all on facets of the recession cone).

A set whose rows all lie on facets D_k of its recession cone is a union of
pieces {D u >= z}, with int offsets z over one scale.  No such piece has a
redundant row, so no Fourier-Motzkin pass builds it.  ``UpperSet._cache`` is
the one carrier of offsets, set only when a set is built, and ``_offsets``
the one reader, which parses rows into them and stores nothing.  On every
cone a set that ``canonicalize`` or an affine image builds holds its
offsets when it has them, and canonical forms, the affine images behind
``translate_set`` and ``scale_set``, containment and membership work on
them in ints; so do Minkowski sums on a simplicial cone.  There the
minimal offsets are the canonical form, and rows are built only when read.
Elsewhere a piece is covered by others exactly when no box at the local
upper bounds of their offsets meets it (``_covered``).

A ``Polyhedron`` is its H-representation alone; ``convert_rep`` computes a
``VRep`` (vertices and rays) on demand by double description;
``UpperSet.vreps`` reads those of a set's pieces held as offsets on a
simplicial cone in closed form, off the cone's inverse.  The affine maps
u -> t u + w (t > 0) fix the recession cone and keep pieces irredundant and
uncovered, so they map a canonical set to a canonical set with no call to
``canonicalize``.

Strict inequalities are supported internally (interior and complement
computations); canonical upper sets expose weak halfspaces only.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import le, lt

from ._record import frozen, setfield
from .errors import DimensionMismatch, NegativeScale, StrictUnsupported, WorkLimit
from .rationals import (
    ONE,
    ZERO,
    Vec,
    _echelon,
    coprime,
    dot,
    fmt,
    over_den,
    rat,
    scale_to_coprime,
    vadd,
    vec,
)

_IntVec = tuple[int, ...]

# rows one Fourier-Motzkin step may build, rays one double description step or
# residuals one depth of a subtraction may keep, and offsets one V@R evaluation
# may collect, before it raises WorkLimit
FM_ROW_LIMIT = 10_000
DD_RAY_LIMIT = 5_000
SUBTRACT_RESIDUAL_LIMIT = 1_000
VAR_OFFSET_LIMIT = 500_000


# ---------------------------------------------------------------------------
# halfspaces
# ---------------------------------------------------------------------------


@frozen
class Halfspace:
    """The set {x : normal . x >= offset}, or > when strict.

    ``normal`` and ``offset`` are ints, coprime as one row.
    """

    __slots__ = ("normal", "offset", "strict")

    def __init__(self, normal: _IntVec, offset: int = 0, strict: bool = False):
        setfield(self, "normal", normal)
        setfield(self, "offset", offset)
        setfield(self, "strict", strict)

    @classmethod
    def make(cls, normal, offset=0, strict: bool = False) -> "Halfspace":
        """Build a halfspace from rationals, scaled to coprime ints."""
        row = scale_to_coprime(tuple(rat(v) for v in normal) + (rat(offset),))
        return cls(row[:-1], row[-1], strict)

    def holds_at(self, point: Vec, den: int = 1) -> bool:
        """Whether point / den lies in the halfspace; in ints for int points."""
        v, b = dot(self.normal, point), self.offset * den
        return v > b if self.strict else v >= b

    def complement(self) -> "Halfspace":
        """The complementary halfspace (weak <-> strict, normal flipped)."""
        return Halfspace(tuple(-c for c in self.normal), -self.offset,
                         not self.strict)

    def sort_key(self):
        return (self.normal, self.offset, self.strict)

    def as_row(self) -> list[str]:
        return [fmt(v) for v in self.normal] + [fmt(self.offset)]

    def __str__(self):
        op = ">" if self.strict else ">="
        terms = " + ".join(f"{fmt(c)}*u{i}" for i, c in enumerate(self.normal))
        return f"{terms} {op} {fmt(self.offset)}"


hs = Halfspace.make  # shorthand used heavily in tests and fixtures


def _prune_rows(rows) -> list[Halfspace] | None:
    """Drop trivial and dominated rows; None when trivially infeasible.

    Rows whose normals are positive multiples g D of one direction D keep only
    the tightest, g D.u >= b read as D.u >= b / g (ties: strict wins).
    """
    by_dir: dict[tuple, tuple[Halfspace, int]] = {}
    for h in rows:
        if not any(h.normal):
            # 0 >= b (0 > b when strict) holds everywhere or nowhere
            if h.offset > 0 or (h.strict and h.offset == 0):
                return None
            continue
        g = math.gcd(*h.normal)
        key = h.normal if g == 1 else tuple(c // g for c in h.normal)
        cur = by_dir.get(key)
        if cur is None or (h.offset * cur[1], h.strict) > (cur[0].offset * g, cur[0].strict):
            by_dir[key] = h, g
    return sorted((h for h, _ in by_dir.values()), key=Halfspace.sort_key)


def _eliminate_var(rows: list[Halfspace], j: int) -> list[Halfspace] | None:
    """One Fourier-Motzkin step on coordinate j (width preserved)."""
    pos, neg, zero = [], [], []
    for h in rows:
        c = h.normal[j]
        (pos if c > 0 else neg if c < 0 else zero).append(h)
    if (size := len(zero) + len(pos) * len(neg)) > FM_ROW_LIMIT:
        raise WorkLimit(f"eliminating coordinate {j} builds {size} rows, over {FM_ROW_LIMIT}")
    out = list(zero)
    for p in pos:
        for n in neg:
            cp, cn = -n.normal[j], p.normal[j]
            row = [cp * a + cn * b for a, b in zip(p.normal, n.normal)]
            row.append(cp * p.offset + cn * n.offset)
            row = coprime(row)
            out.append(Halfspace(row[:-1], row[-1], p.strict or n.strict))
    return _prune_rows(out)


def _interval(rows) -> tuple | None:
    """The tightest lower and upper bounds (value, strict; None: none) on x of
    the rows (c, b, strict) read as c x >= b (> if strict); None if no x meets
    all, as when a row with c = 0 fails.  Bounds are held as (b, c) with c > 0
    and compared by cross products."""
    lo = hi = None
    for c, b, strict in rows:
        if not c and (b > 0 or strict and b == 0):
            return None
        if c > 0 and (lo is None or (b * lo[1], strict) > (lo[0] * c, lo[2])):
            lo = (b, c, strict)
        elif c < 0 and (hi is None or (-b * hi[1], not strict) < (hi[0] * -c, not hi[2])):
            hi = (-b, -c, strict)
    if lo and hi and (lo[0] * hi[1], lo[2] or hi[2]) >= (hi[0] * lo[1], True):
        return None
    return tuple(r and (Fraction(r[0], r[1]), r[2]) for r in (lo, hi))


def _check_rows(rows, dim: int):
    if any(len(h.normal) != dim for h in rows):
        raise DimensionMismatch(f"a row of a polyhedron of dim {dim} has another length")


def feasible(rows, dim: int) -> bool:
    """Exact feasibility of a mixed weak/strict system by elimination."""
    _check_rows(rows, dim)
    cur = _prune_rows(rows)
    if cur is None:
        return False
    for j in range(dim - 1):
        cur = _eliminate_var(cur, j)
        if cur is None:
            return False
    # a last step would pair all bounds on the last coordinate; its tightest two decide
    return _interval((h.normal[-1], h.offset, h.strict) for h in cur) is not None


def feasible_point(rows, dim: int) -> Vec | None:
    """An explicit rational point satisfying the system, or None.

    Found by eliminating the last coordinate, solving the projection
    recursively, then back-substituting a value inside the induced interval.
    """
    _check_rows(rows, dim)
    cur = _prune_rows(rows)
    if cur is None:
        return None
    if dim == 0:
        return ()
    proj = _project_rows(cur, [dim - 1], range(dim - 1)) if dim > 1 else ()  # one: its bounds decide
    base = None if proj is None else feasible_point(proj, dim - 1)
    if base is None or (bounds := _interval(
            (h.normal[-1], h.offset - dot(h.normal[:-1], base), h.strict) for h in cur)) is None:
        return None
    lo, hi = bounds
    if lo and hi:  # equal only when both weak, as elimination vouched
        val = (lo[0] + hi[0]) / 2
    elif lo or hi:
        (v, strict), step = lo or hi, 1 if lo else -1
        val = v + step if strict else v
    else:
        val = ZERO
    return base + (val,)


# ---------------------------------------------------------------------------
# polyhedra
# ---------------------------------------------------------------------------


@frozen
class Polyhedron:
    """The set cut out by ``halfspaces`` in R^dim."""

    __slots__ = ("dim", "halfspaces")

    def __init__(self, dim: int, halfspaces: tuple[Halfspace, ...]):
        setfield(self, "dim", dim)
        setfield(self, "halfspaces", halfspaces)

    def contains_point(self, point: Vec) -> bool:
        if len(point) != self.dim:
            raise DimensionMismatch(f"point has length {len(point)}, dim {self.dim}")
        _check_rows(self.halfspaces, self.dim)
        ints, den = over_den(point)
        return all(h.holds_at(ints, den) for h in self.halfspaces)

    def has_strict(self) -> bool:
        return any(h.strict for h in self.halfspaces)

    def strictified_rows(self) -> list[Halfspace]:
        return [h if h.strict else Halfspace(h.normal, h.offset, True) for h in self.halfspaces]

    def sort_key(self):
        return tuple(h.sort_key() for h in self.halfspaces)


def empty_polyhedron(dim: int) -> Polyhedron:
    return Polyhedron(dim, (Halfspace((0,) * dim, 1),))


def canonical_piece(p: Polyhedron) -> Polyhedron | None:
    """Irredundant sorted H-rep of the same set; None when empty."""
    _check_rows(p.halfspaces, p.dim)
    rows = _prune_rows(p.halfspaces)
    if rows is None or not feasible(rows, p.dim):
        return None
    kept = list(rows)
    i = 0
    while i < len(kept):
        trial = kept[:i] + kept[i + 1:]
        if not feasible(trial + [kept[i].complement()], p.dim):
            kept = trial
        else:
            i += 1
    return Polyhedron(p.dim, tuple(sorted(kept, key=Halfspace.sort_key)))


def eliminate(p: Polyhedron, drop) -> Polyhedron:
    """Exact projection discarding the coordinates in ``drop``; canonical.

    One dropped coordinate, or any strict row, takes Fourier-Motzkin steps in
    index order, and strictness propagates through row combinations (strict
    o weak -> strict).  A weak system losing two or more coordinates is
    projected by double description: conv(vertices) + cone(rays) of ``p``,
    less those coordinates, generates the projection.  An infeasible input
    projects to the canonical empty polyhedron.
    """
    _check_rows(p.halfspaces, p.dim)
    drop = sorted(set(drop))
    if any(j < 0 or j >= p.dim for j in drop):
        raise DimensionMismatch(f"drop indices {drop} out of range for dim {p.dim}")
    keep = [i for i in range(p.dim) if i not in drop]
    if len(drop) > 1 and not p.has_strict():
        q = convert_rep(p)
        # a ray along dropped coordinates alone projects to zero, which adds nothing
        rays = sorted({tuple(r[i] for i in keep) for r in q.rays})
        return hrep_from_vrep(len(keep), [tuple(v[i] for i in keep) for v in q.vertices], rays)
    rows = _project_rows(p.halfspaces, drop, keep)
    result = None if rows is None else canonical_piece(Polyhedron(len(keep), rows))
    return result if result is not None else empty_polyhedron(len(keep))


def _project_rows(rows, drop, keep) -> tuple[Halfspace, ...] | None:
    """The pruned rows left by Fourier-Motzkin steps on the coordinates in
    ``drop``, on the coordinates in ``keep``; None when they are infeasible."""
    rows = _prune_rows(rows)
    for j in drop:
        if rows is None:
            return None
        rows = _eliminate_var(rows, j)
    # dropped coordinates are 0 in every row, so rows stay coprime
    return None if rows is None else tuple(
        Halfspace(tuple(h.normal[i] for i in keep), h.offset, h.strict) for h in rows)


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------


def cone_vrep(rows, dim: int) -> tuple[tuple[_IntVec, ...], tuple[_IntVec, ...]]:
    """Generators of {x : a.x >= 0 for each row a}.

    Returns (lineality basis, extreme rays); the cone is span(lineality) +
    cone(rays).  Incremental double description with the combinatorial
    adjacency test, on coprime int vectors throughout; a step that would keep
    more than ``DD_RAY_LIMIT`` rays raises ``WorkLimit``.
    """
    lin: list[_IntVec] = [tuple(int(j == i) for j in range(dim)) for i in range(dim)]
    rays: list[_IntVec] = []
    # per ray, the indices of the rows so far that vanish on it; a.r >= 0 for
    # every ray r and row a so far, so a positive combination of two rays
    # vanishes exactly on the rows both vanish on
    active: list[set[int]] = []
    seen: dict[_IntVec, int] = {}
    for a in rows:
        if len(a) != dim:
            raise DimensionMismatch(f"a row has length {len(a)}, the cone has dim {dim}")
        a = scale_to_coprime(a)
        if not any(a) or a in seen:
            continue
        k = seen[a] = len(seen)
        cut = next((l for l in lin if dot(a, l) != 0), None)
        if cut is not None:
            ac = dot(a, cut)
            if ac < 0:
                cut, ac = tuple(-c for c in cut), -ac

            def project(v):
                # ac * (v - (a.v / a.cut) cut): a positive multiple, in ints
                av = dot(a, v)
                return coprime([ac * x - av * y for x, y in zip(v, cut)])

            # the remnant of the cut itself is zero; the others stay independent.
            # Earlier rows vanish on the lineality, so the cut lies on them all
            # and a projected ray keeps its rows and gains a.
            lin = [r for r in map(project, lin) if any(r)]
            moved = [(r, s | {k}) for r, s in zip(map(project, rays), active) if any(r)]
            rays = [r for r, _ in moved] + [cut]
            active = [s for _, s in moved] + [set(range(k))]
        else:
            vals = [dot(a, r) for r in rays]
            active = [s | {k} if v == 0 else s for s, v in zip(active, vals)]
            keep = [i for i, v in enumerate(vals) if v >= 0]
            new_rays, new_active = [rays[i] for i in keep], [active[i] for i in keep]
            pos = [i for i in keep if vals[i] > 0]
            neg = [i for i, v in enumerate(vals) if v < 0]
            for ip in pos:
                for im in neg:
                    z = active[ip] & active[im]
                    if any(j not in (ip, im) and z <= active[j] for j in range(len(rays))):
                        continue
                    w = coprime([vals[ip] * x - vals[im] * y for x, y in zip(rays[im], rays[ip])])
                    if any(w) and w not in new_rays:
                        new_rays.append(w)
                        new_active.append(z | {k})
            rays, active = new_rays, new_active
        if len(rays) > DD_RAY_LIMIT:
            raise WorkLimit(f"a double description step keeps {len(rays)} rays, over {DD_RAY_LIMIT}")
    lin = [l for l in lin if any(l)]
    return tuple(sorted(lin)), tuple(sorted(rays))


def cone_generators(rows, dim: int) -> tuple[_IntVec, ...]:
    """Spanning rays of {x : a.x >= 0}; lineality emitted as +/- pairs."""
    lin, rays = cone_vrep(rows, dim)
    gens = set(rays)
    for l in lin:
        gens.add(l)
        gens.add(tuple(-c for c in l))
    return tuple(sorted(gens))


@frozen
class VRep:
    """Sorted vertices (Fractions) and recession rays (coprime ints)."""

    vertices: tuple[Vec, ...]
    rays: tuple[_IntVec, ...]


def _inverse(rows) -> tuple[list[_IntVec], int] | None:
    """(B, den), B an int matrix with B / den the inverse of the square matrix
    A of int ``rows``; None when they are dependent.  One fraction-free
    echelon of [A | I]: its pivot row r of column c reads r[c] (row c of
    A^-1) = r[dim:], and a pivot past A shows dependent rows."""
    dim = len(rows)
    pivots = _echelon([tuple(a) + tuple(int(i == j) for j in range(dim)) for i, a in enumerate(rows)])
    if any(c >= dim for c, _ in pivots):
        return None
    rows = [r for _, r in sorted(pivots)]
    den = math.lcm(*(r[c] for c, r in enumerate(rows)))
    return [tuple(v * (den // r[c]) for v in r[dim:]) for c, r in enumerate(rows)], den


def convert_rep(p: Polyhedron) -> VRep:
    """The exact V-representation (vertices + rays) of ``p``, by double
    description of the homogenized cone {(x, t) : Ax >= bt, t >= 0}: its
    generators with positive last coordinate scale to vertices, the rest are
    recession rays (lineality contributes a +/- pair).
    """
    _check_rows(p.halfspaces, p.dim)
    if p.has_strict():
        raise StrictUnsupported("V-representation requires weak halfspaces only")
    rows = [h.normal + (-h.offset,) for h in p.halfspaces]
    rows.append((0,) * p.dim + (1,))
    verts, rec = set(), set()
    for r in cone_generators(rows, p.dim + 1):
        if r[p.dim] > 0:
            verts.add(tuple(Fraction(v, r[p.dim]) for v in r[: p.dim]))
        elif any(r[: p.dim]):
            rec.add(r[: p.dim])  # a coprime (x, 0) has a coprime x
    return VRep(tuple(sorted(verts)), tuple(sorted(rec)))


def hrep_from_vrep(dim: int, vertices, rays) -> Polyhedron:
    """The canonical piece conv(vertices) + cone(rays): a minimal sorted weak H-rep."""
    if any(len(v) != dim for v in (*vertices, *rays)):
        raise DimensionMismatch(f"vertices and rays must have length {dim}")
    if not vertices:
        return empty_polyhedron(dim)
    gens = [vec(v) + (ONE,) for v in vertices] + [vec(r) + (ZERO,) for r in rays]
    lin, facets = cone_vrep(gens, dim + 1)
    facets += tuple(tuple(s * c for c in l) for l in lin for s in (1, -1))
    # a coprime facet (n, -b) is the row n.x >= b; the t >= 0 facet has n = 0.
    # A dual without lineality (a full-dimensional piece) has the facets as its
    # extreme rays, irredundant and sorted as their rows sort: distinct n.
    piece = Polyhedron(dim, tuple(Halfspace(f[:dim], -f[dim]) for f in facets if any(f[:dim])))
    piece = canonical_piece(piece) if lin else piece
    if piece is None:
        raise AssertionError("V-rep with a vertex cannot be empty")
    return piece


# ---------------------------------------------------------------------------
# recession cones and upper sets
# ---------------------------------------------------------------------------


@frozen
class Cone:
    """A polyhedral cone {x : a.x >= 0 for each row a} given both ways.

    ``halfspaces`` are the irredundant rows a; ``generators`` span the cone,
    lineality as +/- pairs.  Both are coprime int vectors, and double
    description alone builds them: by bipolarity the irredundant rows of a
    cone are the generators of its dual.  One record serves as the solvency
    cone K, its positive dual and K cap M in M-coordinates, the recession
    cone of every upper set of a market.
    """

    dim: int
    halfspaces: tuple[_IntVec, ...]
    generators: tuple[_IntVec, ...]

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Cone":
        gens = cone_generators(rows, dim)
        return cls(dim, cone_generators(gens, dim), gens)

    @classmethod
    def from_generators(cls, gens, dim: int) -> "Cone":
        rows = cone_generators(gens, dim)
        return cls(dim, rows, cone_generators(rows, dim))

    def contains_orthant(self) -> bool:
        # every unit vector e_i satisfies a.e_i = a_i >= 0
        return all(c >= 0 for a in self.halfspaces for c in a)

    def neg_interior(self) -> tuple[Halfspace, ...]:
        """Strict system describing -int of the cone, e.g. -int(K cap M) in M."""
        return tuple(Halfspace(tuple(-c for c in a), 0, True)
                     for a in self.halfspaces)


@frozen
class UpperSet:
    """Finite union of closed polyhedral pieces absorbing a recession cone.

    The empty union denotes the empty set.  ``canonical`` marks the output of
    :func:`canonicalize`; operations canonicalize lazily when needed.  A set of
    pieces {D_k . u >= z_k / scale} on the facets D_k of its cone may hold
    (zs, scale) in ``_cache``, the only carrier of offsets, set only when the
    set is built, and build its sorted ``pieces`` when first read.  A set
    from ``canonicalize`` or an affine image holds them whenever it has them.
    """

    __slots__ = ("dim", "pieces", "recession", "canonical", "_cache")

    def __init__(self, dim: int, pieces, recession: Cone, canonical: bool = False, cache=None):
        setfield(self, "dim", dim)
        if pieces is not None:
            setfield(self, "pieces", pieces)
        setfield(self, "recession", recession)
        setfield(self, "canonical", canonical)
        setfield(self, "_cache", cache)

    def __getattr__(self, name):  # an unset slot: the pieces of a set held as offsets
        if name != "pieces":
            raise AttributeError(name)
        zs, scale = self._cache
        setfield(self, "pieces", tuple(sorted((_offset_piece(
            self.dim, self.recession.halfspaces, z, scale) for z in zs), key=Polyhedron.sort_key)))
        return self.pieces

    def vreps(self) -> list[VRep]:
        """The V-representations of ``pieces``, in their order.  On a
        simplicial cone D with inverse B / den (``_cone_inverse``) a piece
        held as offsets {D u >= z / scale}, none missing, has the one vertex
        B z / (den scale) and the cone's generators as rays, read with no row
        built; every other piece takes ``convert_rep``."""
        if self._cache is None or (inv := _cone_inverse(self.recession)) is None:
            return [convert_rep(p) for p in self.pieces]
        (b, den), (zs, scale) = inv, self._cache
        if len(zs) > 1:  # distinct offsets, so distinct keys: the order of the pieces
            dirs = self.recession.halfspaces
            zs = sorted(zs, key=lambda z: _piece_key(dirs, z, scale))
        rays = self.recession.generators
        return [convert_rep(self.pieces[i]) if None in z else
                VRep((tuple(Fraction(dot(r, z), den * scale) for r in b),), rays)
                for i, z in enumerate(zs)]

    def is_empty(self) -> bool:
        return not (self.pieces if self._cache is None else self._cache[0])

    def contains_point(self, u: Vec) -> bool:
        if len(u) != self.dim:
            raise DimensionMismatch(f"point has length {len(u)}, dim {self.dim}")
        ints, den = over_den(u)
        if self._cache is not None:  # D_k . u >= z_k / scale
            zs, scale = self._cache
            ys = [dot(d, ints) * scale for d in self.recession.halfspaces]
            return any(all(t is None or y >= t * den for y, t in zip(ys, z)) for z in zs)
        return any(all(h.holds_at(ints, den) for h in p.halfspaces) for p in self.pieces)

    def to_doc(self, with_vrep: bool = True) -> dict:
        pieces = [{"halfspaces": [h.as_row() for h in p.halfspaces]} for p in self.pieces]
        for entry, q in zip(pieces, self.vreps() if with_vrep else ()):
            entry["vertices"] = [[fmt(c) for c in v] for v in q.vertices]
            entry["rays"] = [[fmt(c) for c in r] for r in q.rays]
        return {"pieces": pieces}


def upper_set(dim: int, pieces, recession: Cone, offsets=None) -> UpperSet:
    """The canonical union of ``pieces``, or, when ``pieces`` is None, of the
    pieces of ``offsets`` (zs, scale), held as ``canonicalize`` trusts them."""
    return canonicalize(UpperSet(dim, None if pieces is None else tuple(pieces), recession,
                                 cache=offsets))


def recession_upper_set(recession: Cone) -> UpperSet:
    rows = tuple(Halfspace(a) for a in recession.halfspaces)
    return upper_set(recession.dim, (Polyhedron(recession.dim, rows),), recession)


def _absorbs(p: Polyhedron, recession: Cone) -> bool:
    return all(dot(h.normal, g) >= 0
               for h in p.halfspaces for g in recession.generators)


def _absorb(p: Polyhedron, recession: Cone) -> Polyhedron:
    """Minkowski-add the recession cone via the V-representation; canonical."""
    q = convert_rep(p)
    rays = set(q.rays) | set(recession.generators)
    return hrep_from_vrep(p.dim, q.vertices, sorted(rays))


def _uncovered_residual(piece: Polyhedron, others) -> Polyhedron | None:
    """The first full-dimensional residual of ``piece`` minus union(others),
    if any.  A residual r less the next piece q splits into r cap {not h_i}
    cap {h_0 .. h_i-1} over the rows h_i of q.  Depth first, each residual's
    children are built and counted at their depth before the first is
    entered, so leaves come in breadth-first order; a child whose strict
    system is infeasible is dropped with all below it."""
    others = tuple(others)
    if not others:
        return piece if feasible(piece.strictified_rows(), piece.dim) else None
    built, stack = [0] * len(others), [[piece]]  # per depth, residuals to enter, last first
    while stack:
        if not stack[-1]:
            stack.pop()
            continue
        r, depth = stack[-1].pop(), len(stack) - 1
        if depth == len(others):
            return r
        q, kids = others[depth], []
        for i, h in enumerate(q.halfspaces):
            kid = Polyhedron(r.dim, r.halfspaces + (h.complement(),) + q.halfspaces[:i])
            if feasible(kid.strictified_rows(), r.dim):
                kids.append(kid)
        built[depth] += len(kids)
        if built[depth] > SUBTRACT_RESIDUAL_LIMIT:
            raise WorkLimit(f"a subtraction step keeps {built[depth]} residuals, "
                            f"over {SUBTRACT_RESIDUAL_LIMIT}")
        stack.append(kids[::-1])
    return None


def covered_by_union(piece: Polyhedron, others) -> bool:
    """piece subset of union(others), up to sets with empty interior.

    Valid for pieces equal to the closure of their interior, which holds for
    every canonical piece because it absorbs a full-dimensional cone.
    """
    return _uncovered_residual(piece, others) is None


def uncovered_point(piece: Polyhedron, others) -> Vec | None:
    """A rational point of ``piece`` outside union(others), if one exists."""
    r = _uncovered_residual(piece, others)
    return None if r is None else feasible_point(r.strictified_rows(), r.dim)


def _offset_rows(dirs, z, scale: int = 1, sign: int = 1, strict: bool = False) -> list[tuple]:
    """The coprime rows sign (scale / g) D_k . u >= sign z_k / g (> when strict),
    g = gcd(z_k, scale), of int z_k and primitive D_k, as the (normal, offset,
    strict) of their ``Halfspace``; none for a None z_k."""
    return [(tuple(sign * c * (scale // g) for c in d), sign * (t // g), strict)
            for d, t in zip(dirs, z) if t is not None for g in [math.gcd(t, scale)]]


def _piece_key(dirs, z, scale: int) -> tuple:
    """The ``sort_key`` of the piece {D_k . u >= z_k / scale}, with no row built."""
    return tuple(sorted(_offset_rows(dirs, z, scale)))


def _offset_piece(dim: int, dirs, z, scale: int = 1) -> Polyhedron:
    """{D_k . u >= z_k / scale}, its rows sorted."""
    return Polyhedron(dim, tuple(Halfspace(*r) for r in _piece_key(dirs, z, scale)))


def _minimal_offsets(zs) -> list[tuple]:
    """The int offsets z in ``zs`` with no other z' <= z (None is -inf, an
    int below them all), each once and sorted: the maxima filter of Kung,
    Luccio and Preparata, reversed."""
    zs = list(zs)
    if len(zs) < 2:
        return zs
    low = min((t for z in zs for t in z if t is not None), default=0) - 1
    keys = [z if None not in z else tuple([low if t is None else t for t in z]) for z in zs]
    out, kept = [], []
    for i in sorted(range(len(zs)), key=keys.__getitem__):
        if not any(all(map(le, c, keys[i])) for c in kept):
            kept.append(keys[i])
            out.append(zs[i])
    return out


def _simplicial(cone: Cone) -> bool:
    """dim facets and generators (no lineality): u -> Du is onto, so a piece
    {D u >= z} is irredundant and lies in a union of others iff one z' <= z."""
    return len(cone.halfspaces) == len(cone.generators) == cone.dim


def _cone_inverse(cone: Cone) -> tuple[list[_IntVec], int] | None:
    """The ``_inverse`` of the facet rows D of a simplicial cone, None on any
    other; built at first use and kept in its instance dict, outside its fields."""
    if "_inverse" not in cone.__dict__:
        cone.__dict__["_inverse"] = _inverse(cone.halfspaces) if _simplicial(cone) else None
    return cone.__dict__["_inverse"]


def _offsets(a: UpperSet) -> tuple[list[tuple], int] | None:
    """(zs, scale): the int offsets z of the nonempty pieces {D_k . u >= z_k /
    scale} of ``a`` (None: no row k), as held in ``a._cache``, else parsed in
    piece order; None unless every row is weak and a positive multiple of a
    facet normal D_k of the recession cone.  Such a piece is nonempty, absorbs
    the cone and has no redundant row: the D_k are the extreme rays of the
    dual cone(D), so by LP duality D_k . u is unbounded below on the other
    rows.  A pure reader: a parse is returned, never stored."""
    if a._cache is not None:
        return a._cache
    index = {d: k for k, d in enumerate(a.recession.halfspaces)}
    parsed = []  # per piece and k, its one row g D_k . u >= b as (b, g)
    for p in a.pieces:
        if (rows := _prune_rows(p.halfspaces)) is None:
            continue
        z = [None] * len(index)
        for h in rows:
            if h.strict or (k := index.get(coprime(h.normal))) is None:
                return None
            z[k] = (h.offset, math.gcd(*h.normal))
        parsed.append(z)
    scale = math.lcm(*(t[1] for z in parsed for t in z if t is not None))
    return [tuple(t and t[0] * (scale // t[1]) for t in z) for z in parsed], scale


def _one_scale(*parsed) -> tuple[list, int]:
    """The offset lists of the (zs, scale) in ``parsed`` over their lcm scale."""
    lcm = math.lcm(*(s for _, s in parsed))
    return [zs if s == lcm else [tuple(t and t * (lcm // s) for t in z) for z in zs]
            for zs, s in parsed], lcm


def _offset_set(dim: int, recession: Cone, zs, scale: int) -> UpperSet:
    """The canonical set held as the int offsets ``zs`` over ``scale``, both
    divided by their gcd; its pieces are built when first read."""
    g = math.gcd(scale, *(t for z in zs for t in z if t is not None))
    if g > 1:
        zs, scale = [tuple(t and t // g for t in z) for z in zs], scale // g
    return UpperSet(dim, None, recession, True, (zs, scale))


def _covered(z, others, cone: Cone, scale: int) -> bool:
    """{D u >= z} inside the union of the {D u >= z'} over ``others`` (None:
    -inf) on the facets D of ``cone``, all int offsets over ``scale``.  Off
    a simplicial cone: in y = D u, the y >= z outside the union are the
    boxes y < w at the local upper bounds w of the clipped max(z, z')
    (Klamroth, Lacour & Vanderpooten 2015); each offset c splits a box w > c
    into the w with one w_k lowered to c_k > z_k, and boxes inside others
    drop.  Covered iff no strict system {D u > z, D u < w} is feasible.
    +-inf are ints past the offsets."""
    if _simplicial(cone):  # some c <= z, None read as -inf
        return z in others or any(all(p is None or q is not None and p <= q for p, q in zip(c, z))
                                  for c in others)
    ints = [t for o in (z, *others) for t in o if t is not None]
    low, high = min(ints, default=0) - 1, max(ints, default=0) + 1
    z, *others = [tuple(low if t is None else t for t in o) for o in (z, *others)]
    boxes = [(high,) * len(z)]
    for c in _minimal_offsets({tuple(map(max, z, o)) for o in others}):
        if split := [w for w in boxes if all(map(lt, c, w))]:
            kept = [w for w in boxes if not all(map(lt, c, w))]
            new = [w[:k] + (c[k],) + w[k + 1:] for w in split for k in range(len(z)) if c[k] > z[k]]
            # boxes stay pairwise incomparable, so no two are equal
            pool = kept + new
            boxes = kept + [b for b in new if not any(w is not b and all(map(le, b, w)) for w in pool)]

    def rows(v, sign, inf):  # the rows sign D_k . u > sign v_k / scale
        return [Halfspace(*r) for r in _offset_rows(
            cone.halfspaces, [None if t == inf else t for t in v], scale, sign, True)]
    interior = rows(z, 1, low)
    return not any(feasible(interior + rows(w, -1, high), cone.dim) for w in boxes)


def canonicalize(a: UpperSet) -> UpperSet:
    """Deterministic canonical form: irredundant absorbing sorted pieces.
    Offsets that ``a`` holds are trusted: distinct, and minimal if its cone
    is simplicial.  Offsets parsed by ``_offsets`` are reduced to those.  The
    canonical form of a set with offsets holds its kept offsets, alone on a
    simplicial cone and beside its pieces elsewhere."""
    if a.canonical:
        return a
    if a.recession.dim != a.dim or a._cache is None and any(
            p.dim != a.dim or any(len(h.normal) != a.dim for h in p.halfspaces) for p in a.pieces):
        raise DimensionMismatch(f"a cone, piece or row of an upper set of dim {a.dim} has another")
    simplicial = _simplicial(a.recession)
    zs, scale = _offsets(a) or (None, 1)
    if zs is not None and a._cache is None:  # parsed: each offset once, the minimal ones
        zs = (_minimal_offsets if simplicial else set)(zs)
    if zs is not None:
        # offset pieces are nonempty, irredundant and absorb the cone (``_offsets``);
        # on a simplicial cone those of minimal offsets are canonical
        if simplicial:
            return _offset_set(a.dim, a.recession, zs, scale)
        pairs = sorted(((_offset_piece(a.dim, a.recession.halfspaces, z, scale), z) for z in zs),
                       key=lambda pz: pz[0].sort_key())
        pieces, zs = [p for p, _ in pairs], [z for _, z in pairs]
    else:
        pieces = sorted({c if _absorbs(c, a.recession) else _absorb(c, a.recession)
                         for c in map(canonical_piece, a.pieces) if c is not None},
                        key=Polyhedron.sort_key)
    # drop pieces covered by the others, by their offsets when they parse
    i = 0
    while i < len(pieces):
        rest = pieces[:i] + pieces[i + 1:]
        if rest and (covered_by_union(pieces[i], rest) if zs is None
                     else _covered(zs[i], zs[:i] + zs[i + 1:], a.recession, scale)):
            pieces, zs = rest, zs and zs[:i] + zs[i + 1:]
        else:
            i += 1
    return UpperSet(a.dim, tuple(pieces), a.recession, True, None if zs is None else (zs, scale))


def _check_compatible(a: UpperSet, b: UpperSet):
    if a.dim != b.dim:
        raise DimensionMismatch(f"upper sets of dim {a.dim} and {b.dim}")
    if a.recession != b.recession:
        raise DimensionMismatch("upper sets with different recession cones")


def _image(a: UpperSet, p: int, q: int, big_w=None, wden: int = 1) -> UpperSet:
    """{t u + w : u in a} for t = p/q > 0 and w = W/wden (W None: w = 0).  The
    map fixes the recession cone and keeps pieces irredundant and uncovered, so
    canonical pieces map to canonical ones.  Row n.u >= b becomes the coprime
    (q wden n, p wden b + q n.W), and held offsets z_k / scale become
    (p wden z_k + q scale D_k.W) / (q scale wden): minimal ones stay so."""
    if not a.canonical:
        a = canonicalize(a)
    if a._cache is not None:
        zs, scale = a._cache
        shift = [0 if big_w is None else q * scale * dot(d, big_w) for d in a.recession.halfspaces]
        zs = [tuple(c if c is None else p * wden * c + s for c, s in zip(z, shift)) for z in zs]
        return _offset_set(a.dim, a.recession, zs, q * scale * wden)

    def row(h):
        b = p * wden * h.offset + (0 if big_w is None else q * dot(h.normal, big_w))
        r = coprime([q * wden * c for c in h.normal] + [b])
        return Halfspace(r[:-1], r[-1], h.strict)
    pieces = sorted((Polyhedron(a.dim, tuple(sorted(map(row, piece.halfspaces), key=Halfspace.sort_key)))
                     for piece in a.pieces), key=Polyhedron.sort_key)
    return UpperSet(a.dim, tuple(pieces), a.recession, canonical=True)


def translate_set(a: UpperSet, w: Vec) -> UpperSet:
    """The set {u + w : u in a}, in canonical form."""
    w = vec(w)
    if len(w) != a.dim:
        raise DimensionMismatch(f"translation has length {len(w)}, dim {a.dim}")
    return _image(a, 1, 1, *over_den(w))


def intersect_sets(a: UpperSet, b: UpperSet) -> UpperSet:
    _check_compatible(a, b)
    pieces = [Polyhedron(a.dim, p.halfspaces + q.halfspaces)
              for p in a.pieces for q in b.pieces]
    return upper_set(a.dim, pieces, a.recession)


def union_sets(a: UpperSet, b: UpperSet) -> UpperSet:
    """a u b; by offsets, with no rows built, when both sets have them."""
    _check_compatible(a, b)
    if (ga := _offsets(a)) is not None and (gb := _offsets(b)) is not None:
        (za, zb), scale = _one_scale(ga, gb)
        zs = (_minimal_offsets if _simplicial(a.recession) else set)(za + zb)
        return upper_set(a.dim, None, a.recession, (list(zs), scale))
    return upper_set(a.dim, a.pieces + b.pieces, a.recession)


def minkowski_sum(a: UpperSet, b: UpperSet) -> UpperSet:
    _check_compatible(a, b)
    if (_simplicial(a.recession) and (ga := _offsets(a)) is not None
            and (gb := _offsets(b)) is not None):
        # {Du >= z} + {Du >= z'} = {Du >= z + z'}, a missing row staying missing; the
        # minimal sums are the canonical offsets
        (za, zb), scale = _one_scale(ga, gb)
        zs = _minimal_offsets({tuple(None if p is None or q is None else p + q
                                     for p, q in zip(c, z)) for c in za for z in zb})
        return _offset_set(a.dim, a.recession, zs, scale)
    pieces = []
    vbs = b.vreps()
    for vp in a.vreps():
        for vq in vbs:
            verts = {vadd(x, y) for x in vp.vertices for y in vq.vertices}
            rays = set(vp.rays) | set(vq.rays)
            pieces.append(hrep_from_vrep(a.dim, sorted(verts), sorted(rays)))
    return upper_set(a.dim, pieces, a.recession)


def scale_set(t, a: UpperSet) -> UpperSet:
    """t * a for t > 0, in ints: held offsets z over scale become p z over
    q scale for t = p/q.  By convention 0 * D is the recession cone itself."""
    t = rat(t)
    if t.numerator < 0:
        raise NegativeScale(f"cannot scale an upper set by {t}")
    if not t.numerator:
        return recession_upper_set(a.recession)
    return _image(a, t.numerator, t.denominator)


def is_subset(b: UpperSet, a: UpperSet) -> bool:
    """b subset of a, decided by offsets or exact polyhedral subtraction."""
    return separating_point(b, a) is None


def sets_equal(a: UpperSet, b: UpperSet) -> bool:
    """a = b, at once when both sets hold the same offsets (``_offsets``)."""
    return distinguishing_point(a, b) is None


def distinguishing_point(a: UpperSet, b: UpperSet) -> Vec | None:
    """A point of a outside b, else one of b outside a; None when a = b, at
    once when both sets have offsets (``_offsets``) and hold the same ones."""
    _check_compatible(a, b)
    if (ga := _offsets(a)) is not None and (gb := _offsets(b)) is not None:
        if len(set(map(frozenset, _one_scale(ga, gb)[0]))) == 1:  # the same pieces
            return None
    w = separating_point(a, b)
    return w if w is not None else separating_point(b, a)


def separating_point(b: UpperSet, a: UpperSet) -> Vec | None:
    """A point of b outside a; None when b is a subset of a.  When both sets
    have offsets (``_offsets``), b lies in a iff each offset of b is covered."""
    _check_compatible(a, b)
    if (zb := _offsets(b)) is not None and (za := _offsets(a)) is not None:
        (zb, za), scale = _one_scale(zb, za)
        if all(_covered(z, za, a.recession, scale) for z in zb):
            return None
    b, a = canonicalize(b), canonicalize(a)
    for p in b.pieces:
        w = uncovered_point(p, a.pieces)
        if w is not None:
            return w
    return None
