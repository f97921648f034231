"""Exact polyhedral kernel in the coordinates of the eligible subspace.

Sets handled here are finite unions of closed convex polyhedra in R^m, each
absorbing a fixed full-dimensional recession cone.  All arithmetic is exact.
Every halfspace row, and every cone row and generator, is a tuple of coprime
Python ints, so elimination, pruning and subtraction never leave integer
arithmetic; Fractions appear only where a value is divided (vertices,
explicit points) and in documents.  Three primitives carry the module:

* Fourier-Motzkin elimination (feasibility, interior tests, and projections
  of one coordinate or of systems with a strict row),
* the double description method (H-rep <-> V-rep, dual cones, and
  projections of a weak system onto all but two or more coordinates),
* polyhedral subtraction (witness points, and coverage among pieces whose
  rows are not all on facets of the recession cone).

A set whose rows all lie on facets D_k of its recession cone is a union of
pieces {D u >= z}, read as offset vectors z by ``_offsets``.  Such a piece
has no redundant row on any cone, so ``canonicalize`` builds it from z with
no Fourier-Motzkin pass.  On a simplicial cone canonical forms, containment
and Minkowski sums compare and add the offsets alone; on other cones a piece
is covered by others exactly when no box at the local upper bounds of their
offsets meets it (``_covered``).

A ``Polyhedron`` is its H-representation alone; ``convert_rep`` computes a
``VRep`` (vertices and rays) on demand.  The affine maps u -> t u + w (t > 0)
behind ``translate_set`` and ``scale_set`` fix the recession cone and keep
pieces irredundant and uncovered, so they map a canonical set to a canonical
set with rows built in ints and no call to ``canonicalize``.

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
    coprime,
    dot,
    fmt,
    over_den,
    rat,
    scale_to_coprime,
    vadd,
    vec,
    zeros,
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


def hs(coeffs, offset=0, strict: bool = False) -> Halfspace:
    """Shorthand constructor used heavily in tests and fixtures."""
    return Halfspace.make(coeffs, offset, strict)


def _prune_rows(rows) -> list[Halfspace] | None:
    """Drop trivial and dominated rows; None when trivially infeasible.

    Rows sharing a normal keep only the tightest offset (ties: strict wins).
    """
    by_normal: dict[tuple, Halfspace] = {}
    for h in rows:
        if not any(h.normal):
            # 0 >= b (0 > b when strict) holds everywhere or nowhere
            if h.offset > 0 or (h.strict and h.offset == 0):
                return None
            continue
        cur = by_normal.get(h.normal)
        if cur is None or (h.offset, h.strict) > (cur.offset, cur.strict):
            by_normal[h.normal] = h
    return sorted(by_normal.values(), key=Halfspace.sort_key)


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


def feasible(rows, dim: int) -> bool:
    """Exact feasibility of a mixed weak/strict system by elimination."""
    cur = _prune_rows(rows)
    if cur is None:
        return False
    for j in range(dim):
        cur = _eliminate_var(cur, j)
        if cur is None:
            return False
    return True


def feasible_point(rows, dim: int) -> Vec | None:
    """An explicit rational point satisfying the system, or None.

    Found by eliminating the last coordinate, solving the projection
    recursively, then back-substituting a value inside the induced interval.
    """
    cur = _prune_rows(rows)
    if cur is None:
        return None
    if dim == 0:
        return ()
    proj = _eliminate_var(cur, dim - 1)
    if proj is None:
        return None
    # the eliminated coordinate is 0 in every row, so rows stay coprime
    stripped = [Halfspace(h.normal[: dim - 1], h.offset, h.strict) for h in proj]
    base = feasible_point(stripped, dim - 1)
    if base is None:
        return None
    lower = upper = None
    lower_strict = upper_strict = False
    for h in cur:
        c = h.normal[dim - 1]
        if c == 0:
            continue
        bound = Fraction(h.offset - dot(h.normal[: dim - 1], base), c)
        if c > 0:
            if lower is None or (bound, h.strict) > (lower, lower_strict):
                lower, lower_strict = bound, h.strict
        else:
            if upper is None or (bound, not h.strict) < (upper, not upper_strict):
                upper, upper_strict = bound, h.strict
    if lower is None and upper is None:
        val = ZERO
    elif lower is None:
        val = upper - 1 if upper_strict else upper
    elif upper is None:
        val = lower + 1 if lower_strict else lower
    elif lower == upper:
        val = lower  # compatible only when both weak; elimination vouched
    else:
        val = (lower + upper) / 2
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
        ints, den = over_den(point)
        return all(h.holds_at(ints, den) for h in self.halfspaces)

    def has_strict(self) -> bool:
        return any(h.strict for h in self.halfspaces)

    def strictified_rows(self) -> list[Halfspace]:
        return [h if h.strict else Halfspace(h.normal, h.offset, True) for h in self.halfspaces]

    def image(self, t: Fraction, w: Vec) -> "Polyhedron":
        """{t x + w : x in self} for t > 0, its rows sorted.

        The row n.x >= b becomes n.y >= t b + n.w.  With t = p/q and
        w = W/wden that is the int row (q wden n, p wden b + q n.W), divided
        by its gcd: the coprime row ``Halfspace.make`` would build.
        """
        if t <= 0:
            raise NegativeScale(f"cannot scale a polyhedron by {t}")
        p, q = t.numerator, t.denominator
        big_w, wden = over_den(w)
        rows = []
        for h in self.halfspaces:
            row = coprime([q * wden * c for c in h.normal]
                          + [p * wden * h.offset + q * dot(h.normal, big_w)])
            rows.append(Halfspace(row[:-1], row[-1], h.strict))
        return Polyhedron(self.dim, tuple(sorted(rows, key=Halfspace.sort_key)))

    def sort_key(self):
        return tuple(h.sort_key() for h in self.halfspaces)


def empty_polyhedron(dim: int) -> Polyhedron:
    return Polyhedron(dim, (Halfspace((0,) * dim, 1),))


def canonical_piece(p: Polyhedron) -> Polyhedron | None:
    """Irredundant sorted H-rep of the same set; None when empty."""
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
    drop = sorted(set(drop))
    if any(j < 0 or j >= p.dim for j in drop):
        raise DimensionMismatch(f"drop indices {drop} out of range for dim {p.dim}")
    keep = [i for i in range(p.dim) if i not in drop]
    if len(drop) > 1 and not p.has_strict():
        q = convert_rep(p)
        # a ray along dropped coordinates alone projects to zero, which adds nothing
        rays = sorted({tuple(r[i] for i in keep) for r in q.rays})
        return hrep_from_vrep(len(keep), [tuple(v[i] for i in keep) for v in q.vertices], rays)
    rows = _prune_rows(p.halfspaces)
    for j in drop:
        if rows is None:
            break
        rows = _eliminate_var(rows, j)
    if rows is None:
        return empty_polyhedron(len(keep))
    # dropped coordinates are 0 in every row, so rows stay coprime
    out = [Halfspace(tuple(h.normal[i] for i in keep), h.offset, h.strict)
           for h in rows]
    result = canonical_piece(Polyhedron(len(keep), tuple(out)))
    return result if result is not None else empty_polyhedron(len(keep))


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


def convert_rep(p: Polyhedron) -> VRep:
    """The exact V-representation (vertices + rays) of ``p``.

    The polyhedron is homogenized to the cone {(x, t) : Ax >= bt, t >= 0};
    its generators with positive last coordinate scale to vertices, the rest
    are recession rays (lineality contributes a +/- pair).
    """
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
    lineality as +/- pairs.  Both are coprime int vectors.  One record serves
    as the solvency cone K, its positive dual and K cap M in M-coordinates,
    the recession cone of every upper set of a market.
    """

    dim: int
    halfspaces: tuple[_IntVec, ...]
    generators: tuple[_IntVec, ...]

    @classmethod
    def from_rows(cls, dim: int, rows) -> "Cone":
        piece = canonical_piece(Polyhedron(dim, tuple(hs(r) for r in rows)))
        clean = tuple(h.normal for h in piece.halfspaces)
        return cls(dim, clean, cone_generators(clean, dim))

    @classmethod
    def from_generators(cls, gens, dim: int) -> "Cone":
        # by bipolarity the rows of cone(gens) generate its dual {y : g.y >= 0}
        return cls.from_rows(dim, cone_generators(gens, dim))

    def contains_point(self, x: Vec) -> bool:
        if len(x) != self.dim:
            raise DimensionMismatch(f"point has length {len(x)}, dim {self.dim}")
        return all(dot(a, x) >= 0 for a in self.halfspaces)

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
    :func:`canonicalize`; operations canonicalize lazily when needed.
    """

    __slots__ = ("dim", "pieces", "recession", "canonical")

    def __init__(self, dim: int, pieces: tuple, recession: Cone, canonical: bool = False):
        setfield(self, "dim", dim)
        setfield(self, "pieces", pieces)
        setfield(self, "recession", recession)
        setfield(self, "canonical", canonical)

    def is_empty(self) -> bool:
        return not self.pieces

    def contains_point(self, u: Vec) -> bool:
        if len(u) != self.dim:
            raise DimensionMismatch(f"point has length {len(u)}, dim {self.dim}")
        ints, den = over_den(u)
        return any(all(h.holds_at(ints, den) for h in p.halfspaces) for p in self.pieces)

    def to_doc(self, with_vrep: bool = True) -> dict:
        pieces = []
        for p in self.pieces:
            entry = {"halfspaces": [h.as_row() for h in p.halfspaces]}
            if with_vrep:
                q = convert_rep(p)
                entry["vertices"] = [[fmt(c) for c in v] for v in q.vertices]
                entry["rays"] = [[fmt(c) for c in r] for r in q.rays]
            pieces.append(entry)
        return {"pieces": pieces}


def upper_set(dim: int, pieces, recession: Cone) -> UpperSet:
    return canonicalize(UpperSet(dim, tuple(pieces), recession))


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


def _offset_rows(dirs, z, sign: int = 1, strict: bool = False) -> list[Halfspace]:
    """The coprime rows sign q D_k . u >= sign p (> when strict) of the z_k =
    p/q for primitive D_k, none for a None z_k."""
    return [Halfspace(tuple(sign * c * t.denominator for c in d), sign * t.numerator, strict)
            for d, t in zip(dirs, z) if t is not None]


def _offset_piece(dim: int, dirs, z) -> Polyhedron:
    """{D_k . u >= z_k}, its rows sorted."""
    return Polyhedron(dim, tuple(sorted(_offset_rows(dirs, z), key=Halfspace.sort_key)))


def _below(c, z) -> bool:
    """c <= z in every coordinate, None read as -inf."""
    return all(p is None or q is not None and p <= q for p, q in zip(c, z))


def _minimal_offsets(zs) -> list[tuple]:
    """The z in ``zs`` with no other z' <= z (None is -inf, a number below
    them all), each once and sorted: the maxima filter of Kung, Luccio and
    Preparata, reversed."""
    zs = list(zs)
    if len(zs) < 2:
        return zs
    low = min((t.numerator // t.denominator for z in zs for t in z if t is not None), default=0) - 1
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


def _offsets(a: UpperSet) -> list[tuple] | None:
    """The offsets z of the nonempty pieces {D_k . u >= z_k} of ``a`` in order
    (None: no row k), or None unless every row is weak and a positive
    multiple of a facet normal D_k of the recession cone.  Such a piece is
    nonempty, absorbs the cone and has no redundant row: the D_k are the
    extreme rays of the dual cone(D), so by LP duality D_k . u is unbounded
    below on the other rows."""
    index = {d: k for k, d in enumerate(a.recession.halfspaces)}
    offsets = []
    for p in a.pieces:
        # canonical pieces are nonempty and their rows pruned already
        rows, z = p.halfspaces if a.canonical else _prune_rows(p.halfspaces), [None] * len(index)
        if rows is None:
            continue
        for h in rows:
            k, g = index.get(coprime(h.normal)), math.gcd(*h.normal)
            if h.strict or k is None:
                return None
            t = Fraction(h.offset, g) if g > 1 else h.offset
            if z[k] is None or t > z[k]:
                z[k] = t
        offsets.append(tuple(z))
    return offsets


def _covered(z, others, cone: Cone) -> bool:
    """{D u >= z} inside the union of the {D u >= z'} over ``others`` (None:
    -inf) on the facets D of ``cone``.  Off a simplicial cone: in y = D u,
    the y >= z outside the union are the boxes y < w at the local upper
    bounds w of the clipped max(z, z') (Klamroth, Lacour & Vanderpooten
    2015); each offset c splits a box w > c into the w with one w_k lowered
    to c_k > z_k, and boxes inside others drop.  Covered iff no strict
    system {D u > z, D u < w} is feasible.  Offsets compare as ints over one
    denominator, +-inf as ints past them."""
    if _simplicial(cone):
        return any(_below(c, z) for c in others)
    den = math.lcm(*(t.denominator for o in (z, *others) for t in o if t is not None))
    scaled = [[t if t is None else t.numerator * (den // t.denominator) for t in o]
              for o in (z, *others)]
    ints = [t for o in scaled for t in o if t is not None]
    low, high = min(ints, default=0) - 1, max(ints, default=0) + 1
    z, *others = [tuple(low if t is None else t for t in o) for o in scaled]
    boxes = [(high,) * len(z)]
    for c in _minimal_offsets({tuple(map(max, z, o)) for o in others}):
        if split := [w for w in boxes if all(map(lt, c, w))]:
            kept = [w for w in boxes if not all(map(lt, c, w))]
            new = [w[:k] + (c[k],) + w[k + 1:] for w in split for k in range(len(z)) if c[k] > z[k]]
            # boxes stay pairwise incomparable, so no two are equal
            pool = kept + new
            boxes = kept + [b for b in new if not any(w is not b and all(map(le, b, w)) for w in pool)]

    def rows(v, sign, inf):  # the rows sign D_k . u > sign v_k / den
        return _offset_rows(cone.halfspaces, [None if t == inf else Fraction(t, den) for t in v],
                            sign, True)
    interior = rows(z, 1, low)
    return not any(feasible(interior + rows(w, -1, high), cone.dim) for w in boxes)


def _offset_set(a: UpperSet, zs) -> UpperSet:
    """The canonical set of the minimal offsets ``zs`` on ``a``'s simplicial cone."""
    pieces = sorted((_offset_piece(a.dim, a.recession.halfspaces, z) for z in _minimal_offsets(zs)),
                    key=Polyhedron.sort_key)
    return UpperSet(a.dim, tuple(pieces), a.recession, canonical=True)


def canonicalize(a: UpperSet) -> UpperSet:
    """Deterministic canonical form: irredundant absorbing sorted pieces."""
    if a.canonical:
        return a
    zs = _offsets(a)
    if zs is not None and _simplicial(a.recession):
        return _offset_set(a, zs)
    if zs is not None:
        # offset pieces are nonempty, irredundant and absorb the cone (``_offsets``)
        pairs = sorted(((_offset_piece(a.dim, a.recession.halfspaces, z), z) for z in set(zs)),
                       key=lambda pz: pz[0].sort_key())
        pieces, zs = [p for p, _ in pairs], [z for _, z in pairs]
    else:
        # equal pruned rows give equal canonical pieces: reduce each row set once
        pieces, seen = set(), set()
        for p in a.pieces:
            rows = _prune_rows(p.halfspaces)
            if rows is None or (key := tuple(rows)) in seen:
                continue
            seen.add(key)
            c = canonical_piece(Polyhedron(p.dim, key))
            if c is not None:
                pieces.add(c if _absorbs(c, a.recession) else _absorb(c, a.recession))
        pieces = sorted(pieces, key=Polyhedron.sort_key)
    # drop pieces covered by the others, by their offsets when they parse
    i = 0
    while i < len(pieces):
        rest = pieces[:i] + pieces[i + 1:]
        if rest and (covered_by_union(pieces[i], rest) if zs is None
                     else _covered(zs[i], zs[:i] + zs[i + 1:], a.recession)):
            pieces, zs = rest, zs if zs is None else zs[:i] + zs[i + 1:]
        else:
            i += 1
    return UpperSet(a.dim, tuple(pieces), a.recession, canonical=True)


def _check_compatible(a: UpperSet, b: UpperSet):
    if a.dim != b.dim:
        raise DimensionMismatch(f"upper sets of dim {a.dim} and {b.dim}")
    if a.recession != b.recession:
        raise DimensionMismatch("upper sets with different recession cones")


def _image(a: UpperSet, t: Fraction, w: Vec) -> UpperSet:
    """{t u + w : u in a} for t > 0.  The map fixes the recession cone and keeps
    pieces irredundant and uncovered: canonical pieces, mapped and sorted, are canonical."""
    if not a.canonical:
        a = canonicalize(a)
    pieces = sorted((p.image(t, w) for p in a.pieces), key=Polyhedron.sort_key)
    return UpperSet(a.dim, tuple(pieces), a.recession, canonical=True)


def translate_set(a: UpperSet, w: Vec) -> UpperSet:
    """The set {u + w : u in a}, in canonical form."""
    w = vec(w)
    if len(w) != a.dim:
        raise DimensionMismatch(f"translation has length {len(w)}, dim {a.dim}")
    return _image(a, ONE, w)


def intersect_sets(a: UpperSet, b: UpperSet) -> UpperSet:
    _check_compatible(a, b)
    pieces = [Polyhedron(a.dim, p.halfspaces + q.halfspaces)
              for p in a.pieces for q in b.pieces]
    return upper_set(a.dim, pieces, a.recession)


def union_sets(a: UpperSet, b: UpperSet) -> UpperSet:
    _check_compatible(a, b)
    return upper_set(a.dim, a.pieces + b.pieces, a.recession)


def minkowski_sum(a: UpperSet, b: UpperSet) -> UpperSet:
    _check_compatible(a, b)
    if (_simplicial(a.recession) and (za := _offsets(a)) is not None
            and (zb := _offsets(b)) is not None):
        # {Du >= z} + {Du >= z'} = {Du >= z + z'}; a missing row stays missing
        return _offset_set(a, {tuple(None if p is None or q is None else p + q
                                     for p, q in zip(c, z)) for c in za for z in zb})
    pieces = []
    vbs = [convert_rep(q) for q in b.pieces]
    for p in a.pieces:
        vp = convert_rep(p)
        for vq in vbs:
            verts = {vadd(x, y) for x in vp.vertices for y in vq.vertices}
            rays = set(vp.rays) | set(vq.rays)
            pieces.append(hrep_from_vrep(a.dim, sorted(verts), sorted(rays)))
    return upper_set(a.dim, pieces, a.recession)


def scale_set(t, a: UpperSet) -> UpperSet:
    """t * a for t > 0; by convention 0 * D is the recession cone itself."""
    t = rat(t)
    if t < 0:
        raise NegativeScale(f"cannot scale an upper set by {t}")
    if t == 0:
        return recession_upper_set(a.recession)
    return _image(a, t, zeros(a.dim))


def is_subset(b: UpperSet, a: UpperSet) -> bool:
    """b subset of a, decided by offsets or exact polyhedral subtraction."""
    return separating_point(b, a) is None


def sets_equal(a: UpperSet, b: UpperSet) -> bool:
    """a = b, with each operand parsed by ``_offsets`` once."""
    return distinguishing_point(a, b) is None


def distinguishing_point(a: UpperSet, b: UpperSet) -> Vec | None:
    """A point of a outside b, else one of b outside a; None when a = b.
    Each set is parsed by ``_offsets`` once."""
    za, zb = _offsets(a), _offsets(b)
    w = _separating_point(a, za, b, zb)
    return w if w is not None else _separating_point(b, zb, a, za)


def separating_point(b: UpperSet, a: UpperSet) -> Vec | None:
    """A point of b outside a; None when b is a subset of a."""
    return _separating_point(b, _offsets(b), a, _offsets(a))


def _separating_point(b: UpperSet, zb, a: UpperSet, za) -> Vec | None:
    """``separating_point`` on b, a already parsed by ``_offsets`` into zb,
    za; when both parse, b lies in a iff each offset of b is covered."""
    _check_compatible(a, b)
    if zb is not None and za is not None and all(_covered(z, za, a.recession) for z in zb):
        return None
    b, a = canonicalize(b), canonicalize(a)
    for p in b.pieces:
        w = uncovered_point(p, a.pieces)
        if w is not None:
            return w
    return None
