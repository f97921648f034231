"""Polyhedral kernel tests: elimination, double description, set algebra.

Expected values for the derived cases were computed with the interval and
cross-product oracles in oracles.py and frozen here.
"""

import itertools
import json
import math
import pickle
import random
from fractions import Fraction

from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from svrisk import geometry
from svrisk.cones import bidask_cone

from svrisk.errors import DimensionMismatch, NegativeScale, StrictUnsupported, WorkLimit
from svrisk.fixtures import market
from svrisk.geometry import (
    Cone,
    Halfspace,
    Polyhedron,
    UpperSet,
    canonical_piece,
    canonicalize,
    cone_generators,
    convert_rep,
    covered_by_union,
    distinguishing_point,
    eliminate,
    feasible,
    feasible_point,
    hrep_from_vrep,
    hs,
    intersect_sets,
    is_subset,
    minkowski_sum,
    recession_upper_set,
    scale_set,
    separating_point,
    sets_equal,
    sum_separating_point,
    translate_set,
    uncovered_point,
    union_sets,
    upper_set,
)
from svrisk.laws import SampleBudget, check_measure_law
from svrisk.rationals import coprime, rank, solve_linear
from svrisk.measures import (
    VaRStrong,
    VaRWeak,
    WorstCase,
    eval_measure,
    value_at_risk,
    worst_case,
)
from svrisk.represent import decompose, family_union_value, reconstruct_check
from svrisk.scenario import RandomVector, load_market

from oracles import (
    bidask_3_cases,
    exists_t_member,
    grid_points,
    polyhedra_equal_via_vrep,
    project_rows_ref,
    ref_complement,
    ref_eliminate_var,
    ref_feasible,
    ref_prune_rows,
    ref_row,
    subtract_ref,
)

HALF_LINE = Cone.from_rows(1, [[1]])  # K cap M = [0, inf)
QUADRANT = Cone.from_rows(2, [[1, 0], [0, 1]])


def half_line_at(c):
    return upper_set(1, (Polyhedron(1, (hs([1], c),)),), HALF_LINE)


def quadrant_at(a, b):
    return upper_set(2, (Polyhedron(2, (hs([1, 0], a), hs([0, 1], b))),), QUADRANT)


# ---------------------------------------------------------------------------
# Fourier-Motzkin elimination
# ---------------------------------------------------------------------------


class TestCoprime:
    @pytest.mark.parametrize("ints, out", [
        ((0, 0, 0), (0, 0, 0)),  # the zero vector stays zeros
        ([4, -6, 0, 10], (2, -3, 0, 5)),  # signs kept, a list gives a tuple
        ((-3, 0), (-1, 0)),
        ((0, -7), (0, -1)),
        ((3, -5, 7), (3, -5, 7)),  # already coprime
        ((-1,), (-1,)),
    ])
    def test_divides_by_the_gcd(self, ints, out):
        assert coprime(ints) == out


class TestEliminate:
    def test_coupled_projection(self):
        # {(u1,t): 0<=t<=1, u1+2t>=0} drop t -> {u1 >= -2}
        p = Polyhedron(2, (hs([0, 1], 0), hs([0, -1], -1), hs([1, 2], 0)))
        out = eliminate(p, (1,))
        assert out.halfspaces == (hs([1], -2),)

    def test_unconstrained_coupling(self):
        p = Polyhedron(2, (hs([1, 0], 0), hs([0, 1], 0)))
        out = eliminate(p, (1,))
        assert out.halfspaces == (hs([1], 0),)

    def test_infeasible_projects_to_empty(self):
        p = Polyhedron(2, (hs([0, 1], 1), hs([0, -1], 0)))
        out = eliminate(p, (1,))
        assert not feasible(out.halfspaces, out.dim)

    def test_strictness_propagates(self):
        # u1 + t > 0 combined with t <= 1 forces u1 > -1 strictly; the
        # double description projection takes no strict row
        rows = (hs([1, 1], 0, strict=True), hs([0, -1], -1))
        assert project_rows_ref(rows, 2) == (hs([1], -1, strict=True),)
        with pytest.raises(StrictUnsupported):
            eliminate(Polyhedron(2, rows), (1,))

    def test_bad_index(self):
        with pytest.raises(DimensionMismatch):
            eliminate(Polyhedron(1, (hs([1], 0),)), (3,))

    def test_steps_past_the_row_limit_raise(self, monkeypatch):
        # |u1| + |u2| <= 2: each coordinate pairs two positive with two negative rows
        rows = [hs([1, 1], -2), hs([1, -1], -2), hs([-1, 1], -2), hs([-1, -1], -2)]
        monkeypatch.setattr(geometry, "FM_ROW_LIMIT", 3)
        for step in (lambda: feasible(rows, 2), lambda: feasible_point(rows, 2)):
            with pytest.raises(WorkLimit, match="builds 4 rows, over 3"):
                step()
        monkeypatch.setattr(geometry, "FM_ROW_LIMIT", 4)
        assert feasible(rows, 2) and feasible_point(rows, 2) == (0, 0)

    def test_the_last_coordinate_pairs_no_bounds(self):
        # x >= (k - 1)/k and x <= (k + 1)/k for k = 1..150: as pairs, 22,500 rows
        rows = [hs([k], k - 1) for k in range(1, 151)] + [hs([-k], -k - 1) for k in range(1, 151)]
        assert feasible(rows, 1) and feasible_point(rows, 1) == (1,)
        assert feasible(rows + [hs([1], 1)], 1) and not feasible(rows + [hs([1], 2)], 1)
        assert feasible([hs([1], 1), hs([-1], -1)], 1)
        assert not feasible([hs([1], 1, strict=True), hs([-1], -1)], 1)

    @pytest.mark.parametrize("rows, point", [
        ([], ()), ([Halfspace((), 1)], None), ([Halfspace((), 0, True)], None),
        ([Halfspace((), 0)], ()),
    ], ids=["none", "0>=1", "0>0", "0>=0"])
    def test_dim_zero_systems(self, rows, point):
        # R^0 is one point, which a row 0 >= b (0 > b) holds exactly when b <= 0 (b < 0)
        assert feasible(rows, 0) == (point is not None)
        assert feasible_point(rows, 0) == point

    F, T = False, True

    @pytest.mark.parametrize("dim, raw, point", [
        # x0 in [0, 2] and x1 in [x0, 3]: midpoints
        (2, [([1, 0], 0, F), ([-1, 0], -2, F), ([-1, 1], 0, F), ([0, -1], -3, F)], (1, 2)),
        # lone weak lower bounds, x0 >= 1 and then x1 >= 3 - x0
        (2, [([1, 0], 1, F), ([1, 1], 3, F)], (1, 2)),
        # lone strict bounds: one past x0 > 1 and one below x1 < 2
        (2, [([1, 0], 1, T), ([0, -1], -2, T)], (2, 1)),
        # x0 unbounded takes 0
        (2, [([0, 1], 1, F)], (0, 1)),
        # x1 out leaves x0 >= 1 and x0 <= 0: empty on coordinate 0 alone
        (2, [([1, -1], 1, F), ([0, 1], 0, F), ([-1, 0], 0, F)], None),
        # x0 in (1/2, 2/3], then x1 > -x0
        (2, [([2, 0], 1, T), ([-3, 0], -2, F), ([1, 1], 0, T)], (Fraction(7, 12), Fraction(5, 12))),
        # the simplex u >= 0, sum u <= 3
        (3, [([1, 0, 0], 0, F), ([0, 1, 0], 0, F), ([0, 0, 1], 0, F), ([-1, -1, -1], -3, F)],
         (Fraction(3, 2), Fraction(3, 4), Fraction(3, 8))),
        # lone strict upper bounds: x0 < 1, x1 <= x0, x2 < x1
        (3, [([-1, 0, 0], -1, T), ([1, -1, 0], 0, F), ([0, 1, -1], 0, T)], (0, 0, -1)),
        # x2, x1 out leave x0 > 0 and x0 <= 0
        (3, [([1, 1, 0], 0, T), ([-1, 0, 0], 0, F), ([0, -1, 1], 0, F), ([0, 0, -1], 0, F)], None),
        # x1 unbounded between bounded x0 and x2
        (3, [([1, 0, 0], 2, F), ([-1, 0, 0], -4, F), ([0, 0, 1], 1, T)], (3, 0, 2)),
        # 0 < x1 < x0 <= 1, x2 >= -1 alone, then x3 between the equal bounds 2 and 2
        (4, [([1, 0, 0, 0], 0, F), ([-1, 0, 0, 0], -1, F), ([1, -1, 0, 0], 0, T),
             ([0, 1, 0, 0], 0, T), ([0, 0, 1, 1], 1, F), ([0, 0, 0, -1], -2, F)],
         (Fraction(1, 2), Fraction(1, 4), -1, 2)),
        # two rows on one direction, 2 x0 >= 3 the tighter; x1 unbounded, x2 >= |x1|
        (4, [([2, 0, 0, 0], 3, F), ([1, 0, 0, 0], 1, F), ([0, 1, 1, 0], 0, F),
             ([0, -1, 1, 0], 0, F), ([0, 0, 0, -2], -1, T)], (Fraction(3, 2), 0, 0, Fraction(-1, 2))),
    ])
    def test_feasible_point_choices(self, dim, raw, point):
        # each coordinate takes the midpoint of its interval, a lone weak bound,
        # one past a lone strict bound, or 0 when unbounded; the two empty
        # systems pass every step and fail on coordinate 0 only
        rows = [hs(a, b, s) for a, b, s in raw]
        assert feasible(rows, dim) == (point is not None)
        assert feasible_point(rows, dim) == point
        assert geometry._descent(rows, dim) is not None

    @pytest.mark.parametrize("rows", [
        [([0, 1], 0, False), ([0, -1], -1, False), ([1, 2], 0, False)],
        [([1, -1], 0, False), ([-1, -1], -4, False), ([0, 1], 0, False)],
        [([2, 3], 1, False), ([0, -3], -2, False), ([-1, 1], -5, False)],
        [([1, 1], 0, True), ([0, -1], -2, False)],
    ])
    def test_projection_matches_interval_oracle(self, rows):
        # one Fourier-Motzkin step keeps strict rows; double description
        # projects the weak systems alone
        p = Polyhedron(2, tuple(hs(a, b, s) for a, b, s in rows))
        out = Polyhedron(1, project_rows_ref(p.halfspaces, 2))
        if p.has_strict():
            with pytest.raises(StrictUnsupported):
                eliminate(p, (1,))
        else:
            assert eliminate(p, (1,)) == canonical_piece(out)
            # the int step of one-weight hulls takes weak rows alone
            assert geometry._project_rows([h.normal + (h.offset,) for h in p.halfspaces], 2) == \
                [h.normal + (h.offset,) for h in out.halfspaces]
        oracle_rows = [tuple(a) + (b, s) for a, b, s in rows]
        for u in grid_points(1, -4, 4, Fraction(1, 3)):
            direct = out.contains_point(u)
            via_t = exists_t_member(oracle_rows, u)
            assert direct == via_t, f"mismatch at {u}"


@st.composite
def small_system(draw):
    nrows = draw(st.integers(2, 5))
    rows = []
    for _ in range(nrows):
        a = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        b = Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from((1, 2))))
        rows.append((a, b))
    return rows


class TestEliminateProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_system())
    def test_projection_sound_on_grid(self, rows):
        p = Polyhedron(2, tuple(hs(a, b) for a, b in rows))
        out = eliminate(p, (1,))
        oracle_rows = [tuple(a) + (b, False) for a, b in rows]
        for u in grid_points(1, -3, 3, Fraction(1, 2)):
            assert out.contains_point(u) == exists_t_member(oracle_rows, u)

    @settings(max_examples=60, deadline=None)
    @given(small_system())
    def test_feasible_point_satisfies_system(self, rows):
        rows = [hs(a, b) for a, b in rows]
        point = feasible_point(rows, 2)
        if point is None:
            assert not feasible(rows, 2)
        else:
            assert all(h.holds_at(point) for h in rows)


rationals = st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 4)))


@st.composite
def mixed_system(draw):
    """Up to 8 weak or strict rows with rational coefficients in R^0..R^4."""
    dim = draw(st.integers(0, 4))
    rows = draw(st.lists(st.tuples(st.tuples(*[rationals] * dim), rationals,
                                   st.booleans()), max_size=8))
    return dim, rows


def as_ref(h):
    return h.normal, h.offset, h.strict


def prune(rows, dim=2):
    """``geometry._prune_ints`` of ``Halfspace`` rows, the rows it keeps as
    ``Halfspace``s; None when it finds them infeasible."""
    kept = geometry._prune_ints([h.normal + (h.offset, h.strict) for h in rows], dim)
    return None if kept is None else [Halfspace(r[:dim], r[dim], r[dim + 1]) for r in kept]


class TestRowOrder:
    """Documents list rows, and pieces, in the order of their plain tuples
    (c_0, .., c_{d-1}, b, strict): a ``Halfspace`` is that tuple, and among
    rows of one dim it is the order of (normal, offset, strict)."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_system(), st.integers(1, 3))
    def test_rows_and_pieces_sort_as_their_fields(self, system, width):
        dim, raw = system
        rows = [hs(a, b, s) for a, b, s in raw]
        assume(any(h.strict for h in rows) and not all(h.strict for h in rows))

        def by_fields(h):
            return h.normal, h.offset, h.strict

        assert sorted(rows, key=geometry._plain) == sorted(rows, key=by_fields)
        kept = geometry._prune_ints(rows, dim)
        assert kept is None or kept == sorted(kept, key=by_fields)
        pieces = [Polyhedron(dim, tuple(rows[i:i + width])) for i in range(len(rows))]
        assert sorted(pieces, key=Polyhedron.sort_key) == \
            sorted(pieces, key=lambda p: tuple(map(by_fields, p.halfspaces)))


class TestReferenceKernel:
    """The integer kernel against the Fraction reference in oracles.py."""

    @settings(max_examples=150, deadline=None)
    @given(mixed_system())
    def test_feasible_agrees_with_reference(self, system):
        dim, raw = system
        rows = [hs(a, b, s) for a, b, s in raw]
        assert all(type(c) is int for h in rows for c in h.normal + (h.offset,))
        assert [as_ref(h) for h in rows] == [ref_row(a, b, s) for a, b, s in raw]
        assert feasible(rows, dim) == ref_feasible(raw, dim)

    @settings(max_examples=150, deadline=None)
    @given(mixed_system())
    def test_feasible_point_satisfies_every_row(self, system):
        dim, raw = system
        rows = [hs(a, b, s) for a, b, s in raw]
        point = feasible_point(rows, dim)
        assert (point is not None) == ref_feasible(raw, dim)
        if point is not None:
            assert all(type(v) is Fraction for v in point)
            assert all(h.holds_at(point) for h in rows)

    @settings(max_examples=100, deadline=None)
    @given(mixed_system())
    def test_canonical_piece_keeps_the_set(self, system):
        dim, raw = system
        piece = canonical_piece(Polyhedron(dim, tuple(hs(a, b, s) for a, b, s in raw)))
        if piece is None:
            assert not ref_feasible(raw, dim)
            return
        kept = [as_ref(h) for h in piece.halfspaces]
        original = [ref_row(a, b, s) for a, b, s in raw]
        # each side lies in every row of the other: no point escapes a row
        for row in original:
            assert not ref_feasible(kept + [ref_complement(row)], dim)
        for row in kept:
            assert not ref_feasible(original + [ref_complement(row)], dim)


    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * 4), st.integers(-3, 3),
                              st.booleans()), min_size=3, max_size=10),
           st.sampled_from([(1, 2), (0, 2, 3), (1, 2, 3)]))
    def test_multi_step_projection_matches_reference(self, raw, drop):
        # weak systems take double description and a strict row raises: a
        # point u is in the projection iff the system with u fixed is feasible
        # in the rest
        p = Polyhedron(4, tuple(hs(a, b, s) for a, b, s in raw))
        if p.has_strict():
            with pytest.raises(StrictUnsupported):
                eliminate(p, drop)
            return
        out = eliminate(p, drop)
        keep = [i for i in range(4) if i not in drop]
        for u in itertools.product(range(-2, 3), repeat=len(keep)):
            fixed = [([a[j] for j in drop], b - sum(a[i] * v for i, v in zip(keep, u)), s)
                     for a, b, s in raw]
            assert out.contains_point(u) == ref_feasible(fixed, len(drop)), u

    def test_rows_on_one_direction_keep_the_tightest(self):
        # (2,4).u >= 3 is (1,2).u >= 3/2, tighter than (1,2).u >= 1
        assert prune([hs([2, 4], 3), hs([1, 2], 1)]) == [hs([2, 4], 3)]
        assert prune([hs([1, 2], 2), hs([2, 4], 3)]) == [hs([1, 2], 2)]
        # at an equal boundary the strict row wins, in either order
        weak, strict = Halfspace((2, 4), 2), Halfspace((1, 2), 1, True)
        for rows in ([weak, strict], [strict, weak]):
            assert prune(rows) == [strict]
        # opposite directions are not merged
        assert len(prune([hs([2, 4], 3), hs([-1, -2], -5)])) == 2

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-6, 6), st.booleans()), max_size=6),
           st.integers(1, 3))
    def test_interval_bounds_are_the_points_meeting_every_row(self, raw, den):
        # int offsets, or Fractions as feasible_point passes them; the x
        # meeting every row form an interval with ends among the cuts b / c,
        # so the cuts, their midpoints and one step beyond them decide it
        rows = [(c, b if den == 1 else Fraction(b, den), s) for c, b, s in raw]
        cuts = sorted({Fraction(b) / c for c, b, _ in rows if c})
        probes = [Fraction(0)] + cuts + [(p + q) / 2 for p, q in zip(cuts, cuts[1:])]
        probes += [cuts[0] - 1, cuts[-1] + 1] if cuts else []

        def meets(x):
            return all(c * x > b if s else c * x >= b for c, b, s in rows)

        got = geometry._interval(rows)
        assert (got is None) == (not any(map(meets, probes)))
        if got is not None:
            lo, hi = got
            for x in probes:
                above = lo is None or x > lo[0] or x == lo[0] and not lo[1]
                below = hi is None or x < hi[0] or x == hi[0] and not hi[1]
                assert meets(x) == (above and below), x

    @settings(max_examples=150, deadline=None)
    @given(mixed_system(), st.lists(st.integers(2, 3), min_size=1, max_size=3))
    def test_pruned_rows_are_the_set_with_one_row_per_direction(self, system, factors):
        # each row also appears scaled by a factor with its offset moved, so
        # many rows share a direction
        dim, raw = system
        raw = raw + [(tuple(f * c for c in a), f * b + k, s)
                     for (a, b, s), f in zip(raw, factors) for k in (-1, 0, 1)]
        pruned = prune([hs(a, b, s) for a, b, s in raw], dim)
        if pruned is None:
            assert not ref_feasible(raw, dim)
            return
        assert len({coprime(h.normal) for h in pruned}) == len(pruned)
        kept, original = [as_ref(h) for h in pruned], [ref_row(a, b, s) for a, b, s in raw]
        for row in original:
            assert not ref_feasible(kept + [ref_complement(row)], dim)
        for row in kept:
            assert not ref_feasible(original + [ref_complement(row)], dim)

    def test_redundancy_rules_keep_a_looser_row_with_fewer_origins(self):
        # an empty system: stepwise elimination with Chernikov's rule once
        # kept only the looser of two rows on one normal, dropped it, and
        # returned x1 <= -3/5; the double description route must give the
        # empty projection
        raw = [((0, 0, 2, -1), 0), ((0, -1, -1, 2), 0), ((-1, 0, 1, 0), 0),
               ((-1, -1, -2, 1), 0), ((2, 1, 0, -1), 1)]
        assert not ref_feasible([(a, b, False) for a, b in raw], 4)
        out = eliminate(Polyhedron(4, tuple(hs(a, b) for a, b in raw)), (0, 2, 3))
        assert not any(out.contains_point((Fraction(v),)) for v in range(-5, 6))


@st.composite
def weak_projection_case(draw):
    """A weak system in R^3..R^5 and two or three coordinates to drop.  One
    row may repeat (scaled), pair with its negation (a lower-dimensional
    set) or with a contradicting row (an empty set); few rows leave the set
    unbounded."""
    dim = draw(st.integers(3, 5))
    drop = tuple(sorted(draw(st.sets(st.integers(0, dim - 1), min_size=2, max_size=3))))
    raw = draw(st.lists(st.tuples(st.tuples(*[st.integers(-2, 2)] * dim), st.integers(-3, 3)),
                        min_size=1, max_size=7))
    a, b = raw[0]
    extra = draw(st.sampled_from(("none", "duplicate", "equality", "contradiction")))
    if extra == "duplicate":
        raw.append((tuple(2 * c for c in a), 2 * b))
    elif extra == "equality":
        raw.append((tuple(-c for c in a), -b))
    elif extra == "contradiction":
        raw.append((tuple(-c for c in a), 1 - b))
    return dim, drop, raw


class TestDoubleDescriptionProjection:
    @settings(max_examples=120, deadline=None)
    @given(weak_projection_case())
    def test_matches_reference_elimination(self, case):
        dim, drop, raw = case
        out = eliminate(Polyhedron(dim, tuple(hs(a, b) for a, b in raw)), drop)
        keep = [i for i in range(dim) if i not in drop]
        if not ref_feasible([(a, b, False) for a, b in raw], dim):
            assert out == geometry.empty_polyhedron(len(keep))
            return
        ref = ref_prune_rows([ref_row(a, b) for a, b in raw])
        for j in drop:
            ref = ref_eliminate_var(ref, j)
        for u in itertools.product(range(-2, 3), repeat=len(keep)):
            x = dict(zip(keep, u))
            inside = all(sum(c * x.get(i, 0) for i, c in enumerate(n)) >= b for n, b, _ in ref)
            assert out.contains_point(u) == inside, u

    def test_route_by_dropped_count_and_strictness(self):
        # one route for any number of dropped coordinates; strict rows raise
        rows = (hs([1, 1, 1], 0), hs([1, -1, 0], -2), hs([0, 1, -1], -2), hs([-1, 0, 0], -3))
        strict = rows + (hs([0, 0, 1], -5, strict=True),)
        with mock.patch.object(geometry, "convert_rep", wraps=geometry.convert_rep) as spy, \
                mock.patch.object(geometry, "_project_rows") as step, \
                mock.patch.object(geometry, "canonical_piece", wraps=geometry.canonical_piece) as piece:
            for drop in ((1,), (1, 2)):
                eliminate(Polyhedron(3, rows), drop)
        assert spy.call_count == 2 and not step.called and not piece.called
        for drop in ((1,), (1, 2)):
            with pytest.raises(StrictUnsupported):
                eliminate(Polyhedron(3, strict), drop)

    def test_steps_past_the_ray_limit_raise(self, monkeypatch):
        # the homogenized unit cube keeps 8 rays after its last step
        cube = Polyhedron(3, tuple(hs([int(i == j) for j in range(3)], 0) for i in range(3))
                          + tuple(hs([-int(i == j) for j in range(3)], -1) for i in range(3)))
        monkeypatch.setattr(geometry, "DD_RAY_LIMIT", 7)
        for step in (lambda: convert_rep(cube), lambda: eliminate(cube, (0, 1))):
            with pytest.raises(WorkLimit, match="keeps 8 rays, over 7"):
                step()
        monkeypatch.setattr(geometry, "DD_RAY_LIMIT", 8)
        assert len(convert_rep(cube).vertices) == 8
        assert eliminate(cube, (0, 1)).halfspaces == (hs([-1], -1), hs([1], 0))


# ---------------------------------------------------------------------------
# double description
# ---------------------------------------------------------------------------


def homogenized_vrep(p: Polyhedron) -> geometry.VRep:
    """The V-representation of ``p`` from the generators of its homogenized
    cone {(x, t) : Ax >= bt, t >= 0}: those with t > 0 scale to vertices."""
    rows = [h.normal + (-h.offset,) for h in p.halfspaces] + [(0,) * p.dim + (1,)]
    gens = cone_generators(rows, p.dim + 1)
    vertices = {tuple(Fraction(c, g[-1]) for c in g[:-1]) for g in gens if g[-1] > 0}
    rays = {g[:-1] for g in gens if g[-1] == 0 and any(g[:-1])}
    return geometry.VRep(tuple(sorted(vertices)), tuple(sorted(rays)))


class TestMalformedPolyhedra:
    """Rows whose length is not the polyhedron's dim are rejected before any
    route is picked, so no projection reads them, membership does not zip
    them with a point and feasibility reads no last coordinate off them."""

    @pytest.mark.parametrize("normals", [
        ((1, 0, 0), (0, 1, 0)), ((1, 0, 0),), ((1, 0), (0, 1, 1)), ((1,), (0, 1)), ((1,),)],
        ids=["two-long", "one-long", "one-of-two-long", "one-short", "short"])
    @pytest.mark.parametrize("call", [
        convert_rep, canonical_piece, lambda p: eliminate(p, (0,)), lambda p: eliminate(p, (0, 1)),
        lambda p: p.contains_point((0, 0)), lambda p: feasible(p.halfspaces, p.dim),
        lambda p: feasible_point(p.halfspaces, p.dim)],
        ids=["convert_rep", "canonical_piece", "eliminate-one", "eliminate-two", "contains_point",
             "feasible", "feasible_point"])
    def test_rows_of_another_length_raise(self, normals, call):
        p = Polyhedron(2, tuple(Halfspace(n, 0) for n in normals))
        with pytest.raises(DimensionMismatch, match="a row of a polyhedron of dim 2 has another length"):
            call(p)


class TestConvertRep:
    def test_orthant(self):
        p = convert_rep(Polyhedron(2, (hs([1, 0], 0), hs([0, 1], 0))))
        assert p.vertices == ((Fraction(0), Fraction(0)),)
        assert set(p.rays) == {(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))}

    def test_frictional_cone_rays(self):
        # K = {x1+x2>=0, x2>=0}: rays (1,0) and (-1,1), from the 2-D hull oracle
        p = convert_rep(Polyhedron(2, (hs([1, 1], 0), hs([0, 1], 0))))
        assert set(p.rays) == {(Fraction(1), Fraction(0)), (Fraction(-1), Fraction(1))}

    def test_half_line(self):
        p = convert_rep(Polyhedron(1, (hs([1], 1),)))
        assert p.vertices == ((Fraction(1),),)
        assert p.rays == ((Fraction(1),),)

    def test_strict_rejected(self):
        with pytest.raises(StrictUnsupported):
            convert_rep(Polyhedron(1, (hs([1], 0, strict=True),)))

    def test_empty_has_no_vertices(self):
        p = convert_rep(Polyhedron(1, (hs([1], 1), hs([-1], 0))))
        assert p.vertices == ()

    def test_lineality_emitted_both_ways(self):
        # half-plane {u2 >= 0}: lineality e1 shows up as a +/- ray pair
        p = convert_rep(Polyhedron(2, (hs([0, 1], 0),)))
        assert (Fraction(1), Fraction(0)) in p.rays
        assert (Fraction(-1), Fraction(0)) in p.rays

    @pytest.mark.parametrize("rows", [
        [([1, 0], 0), ([0, 1], 0)],
        [([1, 1], 0), ([0, 1], 0)],
        [([1, 0], 1), ([0, 1], -1), ([1, 1], 1)],
        [([1, 2], -3), ([2, -1], -4), ([0, 1], -2)],
        [([0, 1], 0)],
        [([1, 0], 2)],
    ])
    def test_round_trip(self, rows):
        p = Polyhedron(2, tuple(hs(a, b) for a, b in rows))
        v = convert_rep(p)
        back = hrep_from_vrep(2, v.vertices, v.rays)
        assert polyhedra_equal_via_vrep(p, back)

    @pytest.mark.parametrize("vertices, rays", [
        ([(1,)], []), ([(1, 2)], [(1,)]), ([], [(1, 2, 3)])])
    def test_wrong_length_vectors_are_rejected(self, vertices, rays):
        with pytest.raises(DimensionMismatch):
            hrep_from_vrep(2, vertices, rays)

    def test_vrep_generates_same_set_on_grid(self):
        p = Polyhedron(2, (hs([1, 1], 1), hs([0, 1], 0)))
        v = convert_rep(p)
        back = hrep_from_vrep(2, v.vertices, v.rays)
        for u in grid_points(2, -3, 3, Fraction(1, 2)):
            assert p.contains_point(u) == back.contains_point(u)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 3).flatmap(lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim), min_size=1, max_size=4),
        st.lists(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim), max_size=3))))
    def test_facets_are_the_redundancy_pass_result(self, case):
        # the slow path: every generator of the dual, lineality as +/- pairs,
        # through canonical_piece; points, segments and flat hulls take it too
        dim, vertices, rays = case
        gens = [tuple(v) + (1,) for v in vertices] + [tuple(r) + (0,) for r in rays]
        rows = [Halfspace(f[:dim], -f[dim])
                for f in cone_generators(gens, dim + 1) if any(f[:dim])]
        assert hrep_from_vrep(dim, vertices, rays) == canonical_piece(Polyhedron(dim, tuple(rows)))

    def test_full_dimensional_hulls_skip_the_redundancy_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(geometry, "canonical_piece", lambda p: (
            calls.append(p.dim), canonical_piece(p))[1])
        square = hrep_from_vrep(2, [(0, 0), (1, 0), (0, 1), (1, 1)], [])
        assert square.halfspaces == (hs([-1, 0], -1), hs([0, -1], -1), hs([0, 1], 0),
                                     hs([1, 0], 0)) and not calls
        segment = hrep_from_vrep(2, [(0, 0), (1, 1)], [])
        assert segment.halfspaces == (hs([-1, 0], -1), hs([-1, 1], 0), hs([1, -1], 0),
                                      hs([1, 0], 0)) and calls == [2]

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4).flatmap(lambda dim: st.tuples(
        st.just(dim),
        st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=dim, max_size=dim),
                           st.integers(-5, 5)), min_size=dim, max_size=dim),
        st.booleans())))
    def test_simplicial_pieces_have_the_solved_vertex(self, case):
        # dim rows with independent normals: a translated simplicial cone, whose
        # one vertex solves A v = b with no double description
        dim, raw, dependent = case
        if dependent and dim:  # the last normal the sum of the others
            raw[-1] = ([sum(col) for col in zip(*(a for a, _ in raw[:-1]))] or [0], raw[-1][1])
        p = Polyhedron(dim, tuple(hs(a, b) for a, b in raw))
        got = convert_rep(p)
        assert got == homogenized_vrep(p)
        if rank([a for a, _ in raw]) == dim:
            assert got.vertices == (solve_linear(tuple(h.normal for h in p.halfspaces),
                                                 tuple(h.offset for h in p.halfspaces)),)

    def test_three_dimensional_round_trips(self):
        import random
        rng = random.Random(3)
        done = 0
        while done < 40:
            rows = []
            for _ in range(rng.randint(2, 6)):
                a = tuple(rng.randint(-2, 2) for _ in range(3))
                if any(a):
                    rows.append(hs(a, Fraction(rng.randint(-3, 3))))
            p = Polyhedron(3, tuple(rows))
            if not feasible(p.halfspaces, p.dim):
                continue
            v = convert_rep(p)
            back = hrep_from_vrep(3, v.vertices, v.rays)
            assert polyhedra_equal_via_vrep(p, back), rows
            done += 1


# ---------------------------------------------------------------------------
# upper-set algebra
# ---------------------------------------------------------------------------


class TestCombine:
    def test_minkowski_absorption(self):
        a = half_line_at(1)
        km = recession_upper_set(HALF_LINE)
        assert sets_equal(minkowski_sum(a, km), a)

    def test_scale_zero_returns_cone(self):
        a = half_line_at(5)
        assert sets_equal(scale_set(0, a), recession_upper_set(HALF_LINE))
        # the convention holds for the empty set too
        assert sets_equal(scale_set(0, upper_set(HALF_LINE.dim, (), HALF_LINE)),
                          recession_upper_set(HALF_LINE))

    def test_union_nested(self):
        out = union_sets(half_line_at(1), half_line_at(2))
        assert sets_equal(out, half_line_at(1))
        assert len(out.pieces) == 1

    def test_intersect_distributes(self):
        a = union_sets(quadrant_at(0, 3), quadrant_at(3, 0))
        b = quadrant_at(1, 1)
        out = intersect_sets(a, b)
        expected = union_sets(quadrant_at(1, 3), quadrant_at(3, 1))
        assert sets_equal(out, expected)

    def test_minkowski_convex_combination(self):
        # midpoint of {u>=0} and {u>=2} is {u>=1}
        out = minkowski_sum(scale_set(Fraction(1, 2), half_line_at(0)),
                            scale_set(Fraction(1, 2), half_line_at(2)))
        assert sets_equal(out, half_line_at(1))

    def test_negative_scale_rejected(self):
        with pytest.raises(NegativeScale):
            scale_set(-1, half_line_at(0))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch, match="upper sets of dim 1 and 2"):
            union_sets(half_line_at(0), quadrant_at(0, 0))
        # the same dim, another cone: the half-plane u1 >= 0
        half_plane = Cone.from_rows(2, [[1, 0]])
        with pytest.raises(DimensionMismatch, match="different recession cones"):
            union_sets(quadrant_at(0, 0), recession_upper_set(half_plane))

    def test_minkowski_with_empty_is_empty(self):
        out = minkowski_sum(half_line_at(0), upper_set(HALF_LINE.dim, (), HALF_LINE))
        assert out.is_empty()


class TestContains:
    def test_boundary_point(self):
        assert half_line_at(1).contains_point((Fraction(1),))
        assert not half_line_at(1).contains_point((Fraction(99, 100),))

    def test_union_cover(self):
        # {u >= (2,4)} inside {u >= (2,1)} union {u >= (1,4)}; frozen from the
        # subtraction oracle and spot-checked on the grid below
        big = union_sets(quadrant_at(2, 1), quadrant_at(1, 4))
        small = quadrant_at(2, 4)
        assert is_subset(small, big)
        assert not is_subset(big, small)
        for u in grid_points(2, 0, 5, 1):
            if small.contains_point(u):
                assert big.contains_point(u)

    def test_subtraction_past_the_residual_limit_raises(self, monkeypatch):
        # the quadrant less the quadrant at (1, 1) leaves u1 < 1 and u2 < 1 <= u1
        piece = Polyhedron(2, (hs([1, 0], 0), hs([0, 1], 0)))
        other = Polyhedron(2, (hs([1, 0], 1), hs([0, 1], 1)))
        monkeypatch.setattr(geometry, "SUBTRACT_RESIDUAL_LIMIT", 1)
        with pytest.raises(WorkLimit, match="keeps 2 residuals, over 1"):
            covered_by_union(piece, [other])
        monkeypatch.setattr(geometry, "SUBTRACT_RESIDUAL_LIMIT", 2)
        assert not covered_by_union(piece, [other])

    def test_equal_after_canonicalize(self):
        a = union_sets(half_line_at(1), half_line_at(2))
        assert sets_equal(a, half_line_at(1))

    def test_separating_point_is_genuine(self):
        big = union_sets(quadrant_at(2, 1), quadrant_at(1, 4))
        w = separating_point(big, quadrant_at(2, 4))
        assert w is not None
        assert big.contains_point(w) and not quadrant_at(2, 4).contains_point(w)

    def test_empty_subset_of_everything(self):
        assert is_subset(upper_set(QUADRANT.dim, (), QUADRANT), quadrant_at(0, 0))
        assert not is_subset(quadrant_at(0, 0), upper_set(QUADRANT.dim, (), QUADRANT))

    @settings(max_examples=100, deadline=None)
    @given(mixed_system(), st.data())
    def test_membership_in_ints_is_row_by_row(self, system, data):
        # the point over one denominator against each row in Fractions
        dim, rows = system
        p = Polyhedron(dim, tuple(hs(a, b, strict) for a, b, strict in rows))
        point = data.draw(st.tuples(*[rationals] * dim))
        expected = all(h.holds_at(point) for h in p.halfspaces)
        assert p.contains_point(point) == expected
        assert UpperSet(dim, (p, p), Cone.from_rows(dim, [])).contains_point(point) == expected

    @pytest.mark.parametrize("v", [(), (1,), (1, 2, 3)])
    def test_wrong_length_vectors_raise(self, v):
        for a in (upper_set(QUADRANT.dim, (), QUADRANT), quadrant_at(0, 0)):
            with pytest.raises(DimensionMismatch):
                a.contains_point(v)
            with pytest.raises(DimensionMismatch):
                translate_set(a, v)
        with pytest.raises(DimensionMismatch, match=f"point has length {len(v)}, dim 2"):
            Polyhedron(2, (hs([1, 0], 0),)).contains_point(v)


@st.composite
def offset_sets(draw):
    """An upper set of pieces with rows c D . u >= b (> when strict, now and
    then) over m independent directions D, K = {D . u >= 0} or with fewer
    rows.  Now and then D_1 + D_m joins the directions (also in place of
    D_2 .. D_m-1, fewer than m + 1 dependent ones), or -D_1 or a random
    direction, outside the dual of K.  A piece holds zero, one or two rows of
    each direction, with multipliers c = 1..3, and now and then a
    zero-normal row; pieces repeat and cover one another."""
    m = draw(st.sampled_from((1, 2, 3, 3)))
    vector = st.lists(st.integers(-2, 2), min_size=m, max_size=m)
    basis = draw(st.lists(vector, min_size=m, max_size=m).filter(lambda b: rank(b) == m))
    recession = Cone.from_rows(m, basis[:draw(st.sampled_from((m, m, m, 0, m - 1)))])
    both = [a + b for a, b in zip(basis[0], basis[-1])]
    dirs = draw(st.sampled_from((
        basis, basis, basis, basis + [both], [basis[0], basis[-1], both],
        [basis[0], basis[-1], both],
        basis + [[-a for a in basis[0]]], basis + [draw(vector.filter(any))])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    strict = rng.choice((0, 0, 0, 0.1))  # the share of strict rows

    def piece():
        rows = [Halfspace.make([c * v for v in d], rng.randint(-6, 6), rng.random() < strict)
                for d in dirs for c in rng.choices((1, 2, 3), k=rng.choice((0, 1, 1, 1, 2)))]
        if rng.random() < 0.1:
            rows.append(Halfspace((0,) * m, rng.randint(-1, 1)))
        rng.shuffle(rows)
        return Polyhedron(m, tuple(rows))

    pool = [piece() for _ in range(rng.randint(1, 5))]
    pieces = pool + rng.choices(pool, k=rng.randint(0, 2))
    rng.shuffle(pieces)
    return UpperSet(m, tuple(pieces), recession)


class TestCanonicalize:
    def test_redundant_halfspace_dropped(self):
        a = upper_set(1, (Polyhedron(1, (hs([1], 0), hs([1], -1))),), HALF_LINE)
        assert a.pieces[0].halfspaces == (hs([1], 0),)

    def test_empty_piece_dropped(self):
        a = upper_set(1, (Polyhedron(1, (hs([1], 1), hs([-1], 0))),), HALF_LINE)
        assert a.is_empty()

    def test_absorption_enforced(self):
        # a bounded box gains the quadrant recession cone
        box = Polyhedron(2, (hs([1, 0], 0), hs([-1, 0], -1),
                             hs([0, 1], 0), hs([0, -1], -1)))
        a = upper_set(2, (box,), QUADRANT)
        assert sets_equal(a, quadrant_at(0, 0))

    def test_translate_preserves_canonical(self):
        a = translate_set(half_line_at(1), (Fraction(3, 2),))
        assert sets_equal(a, half_line_at(Fraction(5, 2)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4))
    def test_idempotent(self, corners):
        pieces = [Polyhedron(2, (hs([1, 0], a), hs([0, 1], b))) for a, b in corners]
        once = canonicalize(upper_set(2, pieces, QUADRANT))
        twice = canonicalize(once)
        assert once == twice

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4),
           st.randoms(use_true_random=False))
    def test_repeated_row_sets_change_nothing(self, corners, rng):
        # duplicated, permuted, looser, redundant and infeasible copies leave
        # the canonical pieces unchanged
        pieces = [Polyhedron(2, (hs([1, 0], a), hs([0, 1], b))) for a, b in corners]
        copies = list(pieces)
        for p in pieces:
            copies.append(p)  # exact duplicate
            copies.append(Polyhedron(2, p.halfspaces[::-1]))  # rows permuted
            looser = hs(p.halfspaces[0].normal, p.halfspaces[0].offset - 1)
            copies.append(Polyhedron(2, p.halfspaces + (looser,)))  # pruned away
            copies.append(Polyhedron(2, p.halfspaces + (hs([1, 1], -7),)))  # redundant
        copies += [Polyhedron(2, (hs([1, 0], 1), hs([-1, 0], 0))),  # infeasible
                   Polyhedron(2, (hs([0, 0], 1), hs([0, 1], 0)))] * 2  # trivially so
        rng.shuffle(copies)
        once = canonicalize(UpperSet(2, tuple(pieces), QUADRANT))
        assert canonicalize(UpperSet(2, tuple(copies), QUADRANT)).pieces == once.pieces

    def test_dependent_directions_take_the_general_path(self):
        # u1 + u3 >= 0 is redundant next to u1 >= 1 and u3 >= 1
        orthant = Cone.from_rows(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        piece = Polyhedron(3, (hs([1, 0, 0], 1), hs([0, 0, 1], 1), hs([1, 0, 1], 0)))
        assert canonicalize(UpperSet(3, (piece,), orthant)).pieces == (
            Polyhedron(3, (hs([0, 0, 1], 1), hs([1, 0, 0], 1))),)

    def test_facet_rows_of_a_simplicial_cone_take_the_orthant_case(self):
        # rows on the facets of K cap M of mkt-b, some scaled, one missing,
        # one piece dominated by another
        k = market("mkt-b").cone_in_m
        f1, f2 = k.halfspaces
        pieces = (Polyhedron(2, (hs(f1, 1), hs([2 * c for c in f2], 3))),
                  Polyhedron(2, (hs([3 * c for c in f1], 4),)),
                  Polyhedron(2, (hs(f1, 2), hs(f2, 2), hs(f2, 0))))
        a = UpperSet(2, pieces, k)
        out = canonicalize(a)
        assert geometry._offsets(a) is not None and out.canonical
        with mock.patch.object(geometry, "_offsets", lambda a: None):
            assert out == canonicalize(a)
        assert out.pieces == (Polyhedron(2, (hs(f1, 1), hs(f2, Fraction(3, 2)))),
                              Polyhedron(2, (hs(f1, Fraction(4, 3)),)))

    def test_row_off_the_facets_takes_the_general_path(self):
        # u1 + u2 >= 1 is no facet of the quadrant; the piece beside it is covered
        a = UpperSet(2, (Polyhedron(2, (hs([1, 1], 1), hs([1, 0], 0))),
                         Polyhedron(2, (hs([1, 0], 2), hs([0, 1], 2)))), QUADRANT)
        assert geometry._offsets(a) is None
        assert canonicalize(a).pieces == (Polyhedron(2, (hs([1, 0], 0), hs([1, 1], 1))),)

    def test_facet_rows_of_a_non_simplicial_cone_take_the_offset_route(self, monkeypatch):
        # {x3 >= |x1|, x3 >= |x2|} in R^4: 4 facets, 6 generators (x4 is free)
        # and facet normals of rank 3; the pieces use three independent facets
        cone = Cone.from_rows(4, [[-1, 0, 1, 0], [1, 0, 1, 0], [0, -1, 1, 0], [0, 1, 1, 0]])
        assert (len(cone.halfspaces), len(cone.generators), rank(cone.halfspaces)) == (4, 6, 3)
        p1 = Polyhedron(4, (hs([-1, 0, 1, 0], 1), hs([0, -1, 1, 0], 0), hs([1, 0, 1, 0], 1)))
        p2 = Polyhedron(4, (hs([-1, 0, 1, 0], 2), hs([0, -1, 1, 0], 1), hs([1, 0, 1, 0], 2)))
        p3 = Polyhedron(4, (hs([-1, 0, 1, 0], 0), hs([1, 0, 1, 0], 3)))
        a = UpperSet(4, (p1, p2, p3), cone)
        assert geometry._offsets(a) is not None
        ref = _general(canonicalize, a)
        monkeypatch.setattr(geometry, "covered_by_union", None)
        assert canonicalize(a) == ref and ref.pieces == (p3, p1)

    @settings(max_examples=300, deadline=None)
    @given(offset_sets())
    def test_orthant_case_is_the_general_path(self, a):
        try:
            with mock.patch.object(geometry, "_offsets", lambda a: None):
                ref = canonicalize(a)
        except StrictUnsupported:  # absorbing a strict piece needs its V-rep
            assume(False)
        assert canonicalize(a) == ref

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4))
    def test_membership_preserved(self, corners):
        pieces = [Polyhedron(2, (hs([1, 0], a), hs([0, 1], b))) for a, b in corners]
        raw = upper_set(2, pieces, QUADRANT)
        for u in grid_points(2, -4, 4, 1):
            direct = any(p.contains_point(u) for p in pieces)
            assert raw.contains_point(u) == direct


class TestSubtraction:
    @settings(max_examples=150, deadline=None)
    @given(offset_sets())
    def test_depth_first_witness_is_the_breadth_first_one(self, a):
        # pieces with strict rows and rows off the cone's facets included
        piece, *others = a.pieces[:4]
        ref = subtract_ref([as_ref(h) for h in piece.halfspaces],
                           [[as_ref(h) for h in q.halfspaces] for q in others], a.dim)
        assert covered_by_union(piece, others) == (not ref)
        point = uncovered_point(piece, others)
        assert point == (feasible_point([hs(n, b, True) for n, b, _ in ref[0]], a.dim)
                         if ref else None)
        if point is not None:
            assert piece.contains_point(point)
            assert not any(q.contains_point(point) for q in others)


# ---------------------------------------------------------------------------
# containment and Minkowski sums on offset vectors
# ---------------------------------------------------------------------------

# K cap M of a two-asset bid-ask market with both spreads 3/2, M = R^2
SKEWED = Cone.from_rows(2, [[2, 3], [3, 2]])


@st.composite
def offset_set_pairs(draw):
    """(a, b) in orthant form on K cap M of mkt-a (m = 1), mkt-b or SKEWED:
    pieces with rows c D_k . u >= t (c = 1..3) on some facets D_k, a missing
    row now and then, repeated pieces and pieces that others cover, and now
    and then no pieces.  b is drawn alone, from tightened pieces of a (so b
    lies in a), or as a with pieces added (so a lies in b)."""
    k = draw(st.sampled_from((market("mkt-a").cone_in_m, market("mkt-b").cone_in_m, SKEWED)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def offset():
        return Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3)))

    def piece():
        return Polyhedron(k.dim, tuple(
            hs([c * v for v in d], c * offset()) for d in k.halfspaces
            for c in rng.choices((1, 2, 3), k=rng.choice((0, 1, 1, 1, 2)))))

    def tightened(p):
        return Polyhedron(k.dim, tuple(hs(h.normal, h.offset + rng.randint(0, 2))
                                       for h in p.halfspaces))

    def pieces(pool):
        out = pool + rng.choices(pool, k=rng.randint(0, 2)) if pool else []
        out += [tightened(p) for p in rng.sample(pool, min(len(pool), rng.randint(0, 2)))]
        rng.shuffle(out)
        return out

    a = pieces([piece() for _ in range(rng.choice((0, 1, 2, 3, 4)))])
    how = rng.choice(("alone", "inside", "around"))
    b = ([piece() for _ in range(rng.choice((0, 1, 2, 3)))] if how == "alone"
         else [tightened(p) for p in a] if how == "inside"
         else a + [piece() for _ in range(rng.randint(1, 2))])
    return UpperSet(k.dim, tuple(a), k), UpperSet(k.dim, tuple(pieces(b)), k)


def _general(fn, *args):
    # _offsets sees no offsets, held or parsed, so canonicalize takes the row
    # path and the sets built here hold none; a set argument that holds
    # offsets is copied to its pieces alone, so none reach the operation
    with mock.patch.object(geometry, "_offsets", lambda a: None):
        return fn(*(UpperSet(a.dim, a.pieces, a.recession)
                    if isinstance(a, UpperSet) and a._cache is not None else a for a in args))


class TestOffsetOperations:
    @settings(max_examples=200, deadline=None)
    @given(offset_set_pairs())
    def test_offset_case_is_the_general_path(self, pair):
        a, b = pair
        assert geometry._offsets(a) is not None and geometry._offsets(b) is not None
        for x, y in (pair, pair[::-1]):
            assert separating_point(x, y) == _general(separating_point, x, y)
            assert is_subset(x, y) == _general(is_subset, x, y)
        assert sets_equal(a, b) == _general(sets_equal, a, b)
        assert minkowski_sum(a, b).to_doc() == _general(minkowski_sum, a, b).to_doc()
        assert union_sets(a, b).to_doc() == _general(union_sets, a, b).to_doc()

    def test_unions_of_held_offsets_build_no_rows(self, monkeypatch):
        mkt, x = market("mkt-b"), RandomVector.of([[1, -2], [0, 3], [-1, 1]])

        def operands():  # fresh values, holding offsets with no pieces built
            return value_at_risk(mkt, "strong", Fraction(1, 3), x), worst_case(mkt, x.scale(-1))

        expected = _general(union_sets, *operands())
        a, b = operands()
        monkeypatch.setattr(geometry, "_offset_piece", None)  # building a piece would raise
        u = union_sets(a, b)
        assert u.canonical and u._cache is not None
        monkeypatch.undo()
        assert u.to_doc() == expected.to_doc() and u == expected

    def test_containment_by_offsets_needs_no_subtraction(self, monkeypatch):
        k = market("mkt-b").cone_in_m
        f1, f2 = k.halfspaces
        big = UpperSet(2, (Polyhedron(2, (hs(f1, 1),)), Polyhedron(2, (hs(f2, 0),))), k)
        small = UpperSet(2, (Polyhedron(2, (hs(f1, 2), hs(f2, -5))),
                             Polyhedron(2, (hs(f2, 1),))), k)
        for name in ("canonicalize", "feasible", "uncovered_point"):
            monkeypatch.setattr(geometry, name, None)
        assert separating_point(small, big) is None
        assert is_subset(small, big) and sets_equal(big, big)

    def test_sums_of_offsets_need_no_vertices(self, monkeypatch):
        k = market("mkt-b").cone_in_m
        f1, f2 = k.halfspaces
        a = UpperSet(2, (Polyhedron(2, (hs(f1, 1), hs(f2, 2))), Polyhedron(2, (hs(f2, 3),))), k)
        b = UpperSet(2, (Polyhedron(2, (hs(f1, Fraction(1, 2)), hs(f2, -1))),), k)
        for name in ("convert_rep", "hrep_from_vrep", "canonicalize"):
            monkeypatch.setattr(geometry, name, None)
        assert minkowski_sum(a, b).pieces == (
            Polyhedron(2, (hs(f1, Fraction(3, 2)), hs(f2, 1))), Polyhedron(2, (hs(f2, 2),)))

    def test_six_facets_take_the_offset_route(self, monkeypatch):
        # K cap M of a three-asset bid-ask market has six facets in m = 3
        mkt = load_market({"d": 3, "probs": ["1/2", "1/2"], "subspace": {"coords": [0, 1, 2]},
                           "cone": {"bidask": [[1, "3/2", "3/2"], ["3/2", 1, "3/2"],
                                               ["3/2", "3/2", 1]]}})
        a = eval_measure(mkt, WorstCase(), RandomVector.of([[-1, 0, 2], [1, -2, 0]]))
        assert len(a.recession.halfspaces) == 6
        b = translate_set(a, (1,) * a.dim)
        assert geometry._offsets(a) is not None and geometry._offsets(b) is not None
        calls = []
        for name in ("uncovered_point", "convert_rep"):
            fn = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *args, fn=fn, name=name: (
                calls.append(name), fn(*args))[1])
        assert is_subset(b, a) and not is_subset(a, b)
        # containment takes no subtraction; the witness of a outside b does
        assert calls == ["uncovered_point"]
        recession = recession_upper_set(a.recession)
        assert minkowski_sum(a, recession) == canonicalize(a)
        assert "convert_rep" in calls

    @pytest.mark.parametrize("case", ["row off the facets"])
    def test_other_sets_take_the_general_path(self, case, monkeypatch):
        # u1 + u2 >= 1 is no facet of the quadrant
        a = UpperSet(2, (Polyhedron(2, (hs([1, 1], 1), hs([1, 0], 0))),), QUADRANT)
        b = translate_set(a, (1,) * a.dim)
        assert geometry._offsets(a) is None and geometry._offsets(b) is None
        calls = []
        for name in ("uncovered_point", "convert_rep"):
            fn = getattr(geometry, name)
            monkeypatch.setattr(geometry, name, lambda *args, fn=fn, name=name: (
                calls.append(name), fn(*args))[1])
        assert is_subset(b, a) and not is_subset(a, b)
        assert "uncovered_point" in calls and "convert_rep" not in calls
        recession = recession_upper_set(a.recession)
        assert minkowski_sum(a, recession) == canonicalize(a)
        assert "convert_rep" in calls


# {x3 >= |x1|, x3 >= |x2|} in R^4: four facets of rank 3, and x4 is free
FOUR_FACETS = Cone.from_rows(4, [[-1, 0, 1, 0], [1, 0, 1, 0], [0, -1, 1, 0], [0, 1, 1, 0]])


@st.composite
def four_facet_pairs(draw):
    """(a, b) on FOUR_FACETS: pieces with rows c D_k . u >= t (c = 1, 2) on
    some facets; b is drawn alone, from tightened pieces of a, or as a with
    pieces added."""
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def piece():
        return Polyhedron(4, tuple(
            hs([c * v for v in d], c * Fraction(rng.randint(-4, 4), rng.choice((1, 2))))
            for d in FOUR_FACETS.halfspaces for c in rng.choices((1, 2), k=rng.choice((0, 1, 1, 2)))))

    a = [piece() for _ in range(rng.randint(1, 5))]
    how = rng.choice(("alone", "inside", "around"))
    b = ([piece() for _ in range(rng.randint(1, 4))] if how == "alone"
         else [Polyhedron(4, tuple(hs(h.normal, h.offset + rng.randint(0, 2)) for h in p.halfspaces))
               for p in a] if how == "inside" else a + [piece()])
    return UpperSet(4, tuple(a), FOUR_FACETS), UpperSet(4, tuple(b), FOUR_FACETS)


@st.composite
def facet_offsets(draw):
    """(cone, z, scale): FOUR_FACETS or a three-asset bid-ask cone with spreads
    from {5/4, 3/2, 2}, an int offset per facet, a quarter of them None, and
    a scale from {1, 2, 3, 6}."""
    spreads = st.sampled_from(("5/4", "3/2", "2"))
    cone = draw(st.just(FOUR_FACETS) | st.builds(
        lambda pi: bidask_cone([[1 if i == j else pi[3 * i + j] for j in range(3)] for i in range(3)]),
        st.lists(spreads, min_size=9, max_size=9)))
    z = tuple(draw(st.none() if draw(st.integers(0, 3)) == 0 else st.integers(-48, 48))
              for _ in cone.halfspaces)
    return cone, z, draw(st.sampled_from((1, 2, 3, 6)))


class TestNonSimplicialOffsets:
    """Offsets on cones with more facets than dimensions, or with lineality,
    decide coverage by local upper bounds; each answer is the general path's."""

    @settings(max_examples=150, deadline=None)
    @given(facet_offsets())
    def test_offset_pieces_are_irredundant(self, case):
        # canonicalize builds offset pieces with no Fourier-Motzkin pass
        cone, z, scale = case
        piece = geometry._offset_piece(cone.dim, cone.halfspaces, z, scale)
        assert canonical_piece(piece) == piece
        # _offsets reads z / scale back as ints over the lcm of its reduced denominators
        fracs = [None if t is None else Fraction(t, scale) for t in z]
        lcm = math.lcm(*(t.denominator for t in fracs if t is not None))
        ints = tuple(t if t is None else int(t * lcm) for t in fracs)
        assert geometry._offsets(UpperSet(cone.dim, (piece,), cone)) == ([ints], lcm)

    @settings(max_examples=25, deadline=None)
    @given(bidask_3_cases())
    def test_value_at_risk_is_the_general_path(self, case):
        mkt, x, level = case
        strong, weak = (value_at_risk(mkt, kind, level, x) for kind in ("strong", "weak"))
        assert strong == _general(value_at_risk, mkt, "strong", level, x)
        assert weak == _general(value_at_risk, mkt, "weak", level, x)
        for b, a in ((strong, weak), (weak, strong)):
            assert separating_point(b, a) == _general(separating_point, b, a)
        assert sets_equal(strong, weak) == _general(sets_equal, strong, weak)

    @settings(max_examples=15, deadline=None)
    @given(bidask_3_cases())
    def test_family_unions_are_the_general_path(self, case):
        mkt, x, _ = case
        for theorem in ("monetary", "star_normalized", "coherent"):
            family = decompose(mkt, WorstCase(), theorem, x)
            assert (family_union_value(mkt, family, x)
                    == _general(family_union_value, mkt, family, x))
            assert (reconstruct_check(mkt, WorstCase(), family, x)
                    == _general(reconstruct_check, mkt, WorstCase(), family, x))

    @settings(max_examples=100, deadline=None)
    @given(four_facet_pairs())
    def test_a_cone_with_lineality_is_the_general_path(self, pair):
        a, b = pair
        assert geometry._offsets(a) is not None and geometry._offsets(b) is not None
        assert canonicalize(a) == _general(canonicalize, a)
        for x, y in (pair, pair[::-1]):
            assert separating_point(x, y) == _general(separating_point, x, y)
        assert sets_equal(a, b) == _general(sets_equal, a, b)
        assert union_sets(a, b) == _general(union_sets, a, b)


# ---------------------------------------------------------------------------
# affine images of canonical values
# ---------------------------------------------------------------------------

FRACTIONS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))


@st.composite
def canonical_values(draw):
    """(market, value): wc or a V@R of either kind at a drawn level, on mkt-b
    or a random two-asset bid-ask market."""
    if draw(st.booleans()):
        mkt = market("mkt-b")
    else:
        n = draw(st.integers(1, 4))
        weights = draw(st.lists(st.integers(1, 4), min_size=n, max_size=n))
        spreads = st.sampled_from(("5/4", "3/2", "2"))
        mkt = load_market({"d": 2, "probs": [str(Fraction(w, sum(weights))) for w in weights],
                           "cone": {"bidask": [[1, draw(spreads)], [draw(spreads), 1]]},
                           "subspace": {"coords": [0, 1]}})
    x = RandomVector.of(draw(st.lists(st.lists(FRACTIONS, min_size=2, max_size=2),
                                      min_size=mkt.n, max_size=mkt.n)))
    level = draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2))))
    expr = draw(st.sampled_from((WorstCase(), VaRStrong(level), VaRWeak(level))))
    return mkt, eval_measure(mkt, expr, x)


def _vertices(a):
    return [v for p in a.pieces for v in convert_rep(p).vertices]


class TestAffineImages:
    """translate_set and scale_set map canonical sets to canonical sets: the
    document of the image is that of canonicalizing its pieces again.  The
    points of the V-reps of the set and of its image map into each other."""

    def check(self, mkt, value, out, f, f_inv):
        assert out.canonical
        again = canonicalize(UpperSet(mkt.m, out.pieces, mkt.cone_in_m))
        assert out.to_doc() == again.to_doc()
        assert all(out.contains_point(f(v)) for v in _vertices(value))
        assert all(value.contains_point(f_inv(v)) for v in _vertices(out))

    @settings(max_examples=100, deadline=None)
    @given(canonical_values(), st.tuples(FRACTIONS, FRACTIONS))
    def test_translate_set(self, case, w):
        mkt, value = case
        self.check(mkt, value, translate_set(value, w),
                   lambda v: tuple(a + b for a, b in zip(v, w)),
                   lambda v: tuple(a - b for a, b in zip(v, w)))

    @settings(max_examples=100, deadline=None)
    @given(canonical_values(), st.builds(Fraction, st.integers(1, 9), st.integers(1, 7)))
    def test_scale_set(self, case, t):
        mkt, value = case
        self.check(mkt, value, scale_set(t, value),
                   lambda v: tuple(t * c for c in v), lambda v: tuple(c / t for c in v))


# ---------------------------------------------------------------------------
# values held as offsets
# ---------------------------------------------------------------------------

# 40 equally likely scenarios (i, -i) on a two-asset bid-ask market, M = R^2
STAIRCASE = (load_market({"d": 2, "probs": ["1/40"] * 40, "subspace": {"coords": [0, 1]},
                          "cone": {"bidask": [[1, "3/2"], ["3/2", 1]]}}),
             RandomVector.of([[i, -i] for i in range(40)]))


@st.composite
def cached_cases(draw):
    """(market, x, level): mkt-b, a two-asset bid-ask market with spreads
    from {5/4, 3/2, 2} and M = R^2, the staircase, or a three-asset bid-ask
    market (``bidask_3_cases``, mostly six facets in m = 3); the facets of
    K cap M are the directions of the thresholds."""
    # half of the cases on three assets, where the canonical form drops covered pieces
    shape = draw(st.sampled_from(("mkt-b", "bidask-2", "staircase")) | st.just("bidask-3"))
    if shape == "bidask-3":
        return draw(bidask_3_cases())
    if shape == "staircase":
        mkt, x = STAIRCASE
    else:
        n, spreads = draw(st.integers(1, 5)), st.sampled_from(("5/4", "3/2", "2"))
        mkt = market("mkt-b") if shape == "mkt-b" else load_market(
            {"d": 2, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1]},
             "cone": {"bidask": [[1, draw(spreads)], [draw(spreads), 1]]}})
        x = RandomVector.of(draw(st.lists(st.lists(FRACTIONS, min_size=2, max_size=2),
                                          min_size=mkt.n, max_size=mkt.n)))
    return mkt, x, draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))))


def _value(mkt, x, kind, level):
    return worst_case(mkt, x) if kind == "wc" else value_at_risk(mkt, kind, level, x)


class TestOffsetCache:
    """Values held as int offsets, and their images and sums, answer as the
    same sets built on the row path, which holds no offsets."""

    @settings(max_examples=50, deadline=None)
    @given(cached_cases(), st.builds(Fraction, st.integers(1, 9), st.integers(1, 7)),
           st.tuples(FRACTIONS, FRACTIONS, FRACTIONS), st.randoms(use_true_random=False))
    def test_cached_sets_answer_as_their_rows(self, case, t, w, rng):
        mkt, x, level = case
        m, kinds, w = mkt.m, ("wc", "strong", "weak"), w[:mkt.m]
        # off a simplicial cone a Minkowski sum takes vertices, and its rows need not parse
        sums = geometry._simplicial(mkt.cone_in_m)
        cached = [_value(mkt, x, kind, level) for kind in kinds]
        rows = [_general(_value, mkt, x, kind, level) for kind in kinds]
        for c, r in list(zip(cached, rows)):
            cached += [scale_set(t, c), translate_set(c, w)] + [minkowski_sum(c, cached[0])] * sums
            rows += [_general(scale_set, t, r), _general(translate_set, r, w)] + [
                _general(minkowski_sum, r, rows[0])] * sums
        for c, r in zip(cached, rows):
            assert c._cache is not None and r._cache is None
            assert c.is_empty() == r.is_empty()
            points = [tuple(Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3))) for _ in range(m))
                      for _ in range(8)]
            for v in _vertices(r):
                points += [v, (v[0] - Fraction(1, 2),) + v[1:], v[:-1] + (v[-1] - Fraction(1, 3),),
                           tuple(e + Fraction(1, 4) for e in v)]
            assert [c.contains_point(u) for u in points] == [r.contains_point(u) for u in points]
            assert json.dumps(c.to_doc()) == json.dumps(r.to_doc())
            assert c == r and hash(c) == hash(r) and pickle.dumps(c) == pickle.dumps(r)
        # each value against the next and against its own images and sums
        per = 2 + sums  # images and sums of each value
        pairs = [(i, i + 1) for i in range(len(kinds) - 1)]
        pairs += [(i, len(kinds) + per * i + j) for i in range(len(kinds)) for j in range(per)]
        for i, j in pairs:
            for a, b in ((i, j), (j, i)):
                assert (distinguishing_point(cached[a], cached[b])
                        == _general(distinguishing_point, rows[a], rows[b]))
                assert (separating_point(cached[a], cached[b])
                        == _general(separating_point, rows[a], rows[b]))

    @settings(max_examples=50, deadline=None)
    @given(cached_cases(), st.sampled_from((Fraction(0), Fraction(1), Fraction(2), Fraction(6),
                                            Fraction(1, 2), Fraction(3, 4), Fraction(10, 9))),
           st.tuples(FRACTIONS, FRACTIONS, FRACTIONS))
    def test_images_of_held_offsets_are_the_row_images(self, case, t, w):
        # t shares factors with the scales of the offsets, and with w, images compose
        mkt, x, level = case
        w = w[:mkt.m]
        for kind in ("wc", "strong", "weak"):
            c, r = _value(mkt, x, kind, level), _general(_value, mkt, x, kind, level)
            images = [lambda a: scale_set(t, a), lambda a: translate_set(a, w),
                      lambda a: scale_set(t, translate_set(a, w)),
                      lambda a: translate_set(scale_set(t, a), w)]
            for image in images:
                got, expected = image(c), _general(image, r)
                assert got == expected and got.to_doc() == expected.to_doc()
                if t and not got.is_empty():
                    zs, scale = got._cache
                    assert math.gcd(scale, *(z for o in zs for z in o if z is not None)) == 1

    def test_general_judges_held_offsets_by_their_rows(self):
        # _general copies a set that holds offsets to its pieces alone, so the
        # held path of an image meets the row path, not itself
        mkt, x = market("mkt-b"), RandomVector.of([[1, -2], [0, 3], ["-1/2", 1]])
        for v in (worst_case(mkt, x), value_at_risk(mkt, "weak", Fraction(1, 3), x)):
            assert v._cache is not None
            for t in (Fraction(4, 3), Fraction(1, 2), Fraction(5)):
                def image(a):
                    return scale_set(t, translate_set(a, (1, Fraction(1, 2))))
                assert scale_set(t, v) == _general(scale_set, t, v)
                assert image(v) == _general(image, v)

    def test_scaling_held_offsets_builds_no_rows(self, monkeypatch):
        mkt, x = market("mkt-b"), RandomVector.of([[1, -2], [0, 3], ["-1/2", 1]])

        def scaled():  # the values built inside, so that _general builds them as rows
            return [scale_set(Fraction(4, 3), v) for v in (
                value_at_risk(mkt, "weak", Fraction(1, 3), x), worst_case(mkt, x))]

        expected = _general(scaled)
        for name in ("_offset_piece", "over_den"):  # a call would raise
            monkeypatch.setattr(geometry, name, None)
        got = scaled()
        assert all(g.canonical and g._cache is not None for g in got)
        monkeypatch.undo()
        assert got == expected

    def test_equal_offsets_are_equal_sets_with_no_separation(self):
        # positive homogeneity: the same offsets, held over different scales
        # or parsed from rows; other pairs keep their witnesses
        mkt, x, t = market("mkt-b"), RandomVector.of([[1, -2], [0, 3], ["-1/2", 1]]), Fraction(3, 4)
        a, b = scale_set(t, worst_case(mkt, x)), worst_case(mkt, x.scale(t))
        rows = upper_set(mkt.m, a.pieces, mkt.cone_in_m)
        with mock.patch.object(geometry, "separating_point", wraps=separating_point) as sep:
            assert distinguishing_point(a, b) is None and sets_equal(b, rows)
            assert sep.call_count == 0
            c = translate_set(a, (Fraction(1, 2), 0))
            assert distinguishing_point(a, c) == _general(distinguishing_point, a, c) is not None
            assert sep.call_count == 2

    @settings(max_examples=10, deadline=None)
    @given(bidask_3_cases())
    def test_offsets_held_on_every_cone(self, case):
        # K cap M of a three-asset bid-ask market mostly has six facets in m = 3,
        # and with M = R^3 every row lies on one
        mkt, x, level = case
        for kind in ("wc", "strong", "weak"):
            assert _value(mkt, x, kind, level)._cache is not None

    def test_offsets_held_on_six_facets(self):
        mkt = load_market({"d": 3, "probs": ["1/2", "1/2"], "subspace": {"coords": [0, 1, 2]},
                           "cone": {"bidask": [[1, "3/2", "3/2"], ["3/2", 1, "3/2"],
                                               ["3/2", "3/2", 1]]}})
        x = RandomVector.of([[-1, 0, 2], [1, -2, 0]])
        assert len(mkt.cone_in_m.halfspaces) == 6
        assert all(_value(mkt, x, kind, Fraction(1, 2))._cache is not None
                   for kind in ("wc", "strong", "weak"))

    def test_no_offsets_held_for_directions_off_the_facets(self):
        # on M the cone rows have directions (5, 6) and (6, 5) besides the facets
        mkt = load_market({"d": 3, "probs": ["1/2", "1/4", "1/4"], "subspace": {"coords": [0, 1]},
                           "cone": {"bidask": [[1, "3/2", "5/4"], ["3/2", 1, "3/2"],
                                               ["5/4", "3/2", 1]]}})
        x = RandomVector.of([[-1, -1, 1], [-2, 0, 2], [0, -4, "1/2"]])
        assert all(_value(mkt, x, kind, Fraction(1, 4))._cache is None
                   for kind in ("wc", "strong", "weak"))


@st.composite
def vrep_cases(draw):
    """(market, x, level): a two-asset bid-ask market with M = R^2, mkt-a
    (m = 1), a three-asset market whose K has three random facets with M =
    R^3, so that K cap M is simplicial, or a three-asset bid-ask market
    (``bidask_3_cases``, mostly six facets in m = 3)."""
    shape = draw(st.sampled_from(("bidask-2", "mkt-a", "simplicial-3", "bidask-3")))
    if shape == "bidask-3":
        return draw(bidask_3_cases())
    n = draw(st.integers(1, 4))
    if shape == "mkt-a":
        mkt = market("mkt-a")
    elif shape == "simplicial-3":
        rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=3, max_size=3),
                             min_size=3, max_size=3).filter(lambda r: rank(r) == 3))
        mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1, 2]},
                           "cone": {"halfspaces": rows}})
    else:
        spreads = st.sampled_from(("5/4", "3/2", "2"))
        mkt = load_market({"d": 2, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1]},
                           "cone": {"bidask": [[1, draw(spreads)], [draw(spreads), 1]]}})
    x = RandomVector.of(draw(st.lists(st.lists(FRACTIONS, min_size=mkt.d, max_size=mkt.d),
                                      min_size=mkt.n, max_size=mkt.n)))
    return mkt, x, draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))))


class TestHeldVReps:
    """``UpperSet.vreps`` is ``convert_rep`` of each piece, in piece order.
    On a simplicial cone a piece held as offsets, none missing, is read off
    the cone's inverse; only pieces with a missing offset, sets held as rows
    and sets on other cones reach ``convert_rep``."""

    def check(self, a):
        held = a._cache is not None and geometry._cone_inverse(a.recession) is not None
        with mock.patch.object(geometry, "convert_rep", wraps=convert_rep) as spy:
            got = a.vreps()  # before the pieces are built
        assert got == [convert_rep(p) for p in a.pieces]
        assert spy.call_count == (sum(None in z for z in a._cache[0]) if held else len(a.pieces))
        return held

    @settings(max_examples=80, deadline=None)
    @given(vrep_cases())
    def test_vreps_are_those_of_the_pieces(self, case):
        mkt, x, level = case
        for kind in ("wc", "strong", "weak"):
            self.check(_value(mkt, x, kind, level))

    def test_each_route_is_met(self):
        mkt_b, x = market("mkt-b"), RandomVector.of([[-1, -1], [-2, 0], [0, -4]])
        two = value_at_risk(mkt_b, "strong", Fraction(1, 4), x)
        mixed = value_at_risk(mkt_b, "weak", Fraction(1, 2), x)
        empty = worst_case(market("mkt-a"), RandomVector.of([[0, -1], [0, 0]]))
        assert two._cache == ([(1, 2), (4, 1)], 1) and self.check(two)
        # the piece with both offsets sorts first, before the two with one each
        assert mixed._cache == ([(None, 1), (0, 0), (1, None)], 1) and self.check(mixed)
        assert mixed.vreps()[0] == geometry.VRep(((0, 0),), ((0, 1), (1, 0)))
        assert empty._cache == ([], 1) and self.check(empty) and empty.vreps() == []
        six = load_market({"d": 3, "probs": ["1/2", "1/2"], "subspace": {"coords": [0, 1, 2]},
                           "cone": {"bidask": [[1, "3/2", "3/2"], ["3/2", 1, "3/2"],
                                               ["3/2", "3/2", 1]]}})
        assert not self.check(worst_case(six, RandomVector.of([[-1, 0, 2], [1, -2, 0]])))
        assert not self.check(UpperSet(2, two.pieces, two.recession))  # rows alone

    def test_the_inverse_is_kept_on_the_cone(self):
        cone = Cone.from_rows(3, [[2, 1, 0], [0, 1, 1], [1, 0, 3]])
        b, den = geometry._cone_inverse(cone)
        d = cone.halfspaces
        assert [[sum(r[k] * c[k] for k in range(3)) for c in zip(*b)] for r in d] == [
            [den * (i == j) for j in range(3)] for i in range(3)]
        assert geometry._cone_inverse(cone) is cone.__dict__["_inverse"]
        assert geometry._cone_inverse(FOUR_FACETS) is None
        assert cone == Cone(3, cone.halfspaces, cone.generators) and pickle.loads(pickle.dumps(cone)) == cone


class TestDimensionChecks:
    """upper_set and canonicalize reject a cone, piece or row of another dim."""

    @pytest.mark.parametrize("dim, piece", [
        (3, None), (2, Polyhedron(3, (hs([1, 0, 0], 0),))), (2, Polyhedron(2, (hs([1], 0),))),
        (2, Polyhedron(2, (hs([1, 0], 0), hs([1, 0, 0], 1))))])
    def test_mismatched_dimensions_raise(self, dim, piece):
        cone = market("mkt-b").cone_in_m
        pieces = () if piece is None else (piece,)
        with pytest.raises(DimensionMismatch):
            upper_set(dim, pieces, cone)
        with pytest.raises(DimensionMismatch):
            canonicalize(UpperSet(dim, pieces, cone))


# ---------------------------------------------------------------------------
# a Minkowski sum inside a third set
# ---------------------------------------------------------------------------

SIX_FACETS = {"d": 3, "subspace": {"coords": [0, 1, 2]},
              "cone": {"bidask": [[1, "3/2", "3/2"], ["3/2", 1, "3/2"], ["3/2", "3/2", 1]]}}


def _sum_then_separate(a, b, c):
    return separating_point(minkowski_sum(a, b), c)


@st.composite
def sum_cases(draw):
    """(a, b, c) in the shapes of the R4 and subadditivity relations on a
    market of ``bidask_3_cases`` (mostly six facets in m = 3), each a wc,
    strong or weak V@R value at the case's level: t R(x), (1 - t) R'(y) and
    R''(t x + (1 - t) y) for t in {0, 1/2, 1} or a dyadic in [0, 1] (0 R(x)
    is the recession cone), or R(x), R'(y) and R''(x + y)."""
    mkt, x, level = draw(bidask_3_cases())
    half = st.integers(-8, 8).map(lambda v: f"{v}/2")
    y = RandomVector.of(draw(st.lists(st.lists(half, min_size=3, max_size=3),
                                      min_size=mkt.n, max_size=mkt.n)))
    ka, kb, kc = (draw(st.sampled_from(("wc", "strong", "weak"))) for _ in range(3))
    if draw(st.booleans()):
        t = draw(st.sampled_from((Fraction(0), Fraction(1, 2), Fraction(1)))
                 | st.builds(Fraction, st.integers(0, 16), st.just(16)))
        return (scale_set(t, _value(mkt, x, ka, level)), scale_set(1 - t, _value(mkt, y, kb, level)),
                _value(mkt, x.scale(t).add(y.scale(1 - t)), kc, level))
    return _value(mkt, x, ka, level), _value(mkt, y, kb, level), _value(mkt, x.add(y), kc, level)


class TestSumContainment:
    """``sum_separating_point(a, b, c)`` is ``separating_point(minkowski_sum(a,
    b), c)``, verdict and witness: c covering every offset sum shows a + b
    inside c with no sum built, and every other case takes the sum."""

    @settings(max_examples=100, deadline=None)
    @given(sum_cases())
    def test_offset_sums_decide_as_the_sum(self, case):
        assert sum_separating_point(*case) == _sum_then_separate(*case)

    def test_the_general_path_judges_both_verdicts(self):
        mkt = load_market({**SIX_FACETS, "probs": ["1/2", "1/2"]})
        x, y = RandomVector.of([[-1, 0, 2], [1, -2, 0]]), RandomVector.of([[0, 1, -1], [2, 0, 1]])
        a, b, c = worst_case(mkt, x), worst_case(mkt, y), worst_case(mkt, x.add(y))
        far = translate_set(c, (20, 20, 20))
        for cc, holds in ((c, True), (far, False)):
            got = sum_separating_point(a, b, cc)
            assert (got is None) == holds
            assert got == _general(sum_separating_point, a, b, cc) == _general(_sum_then_separate, a, b, cc)

    def test_missing_offsets(self):
        # pieces on two or three of the six facets: a sum's offset stays missing
        # where either operand's is, and c may miss offsets too
        k = load_market({**SIX_FACETS, "probs": ["1"]}).cone_in_m
        d = k.halfspaces
        a = UpperSet(3, (Polyhedron(3, (hs(d[0], 1), hs(d[1], 0))),), k)
        b = UpperSet(3, (Polyhedron(3, (hs(d[0], 2), hs(d[2], -1))),
                         Polyhedron(3, (hs(d[3], 0), hs(d[1], 1), hs(d[0], 0)))), k)
        cases = [(Polyhedron(3, (hs(d[0], 3),)), Polyhedron(3, (hs(d[1], 1),))),
                 (Polyhedron(3, (hs(d[0], 3), hs(d[1], 0))),),
                 (Polyhedron(3, (hs(d[0], 1), hs(d[1], 1))), Polyhedron(3, (hs(d[0], 3),)))]
        verdicts = []
        for pieces in cases:
            c = UpperSet(3, pieces, k)
            assert all(None in z for z in geometry._offsets(c)[0])
            got = sum_separating_point(a, b, c)
            assert got == _sum_then_separate(a, b, c) == _general(sum_separating_point, a, b, c)
            verdicts.append(got is None)
        assert True in verdicts and False in verdicts

    def test_a_sum_below_its_offset_sums_takes_the_sum(self):
        # a + b has rows off the facets, so it lies inside c (the piece of its
        # offset sum z with each row raised by 2 in turn) while that piece does not
        k = load_market({**SIX_FACETS, "probs": ["1"]}).cone_in_m
        d = k.halfspaces
        a = UpperSet(3, (Polyhedron(3, (hs(d[1], 3), hs(d[3], 1), hs(d[0], -3), hs(d[4], -1))),), k)
        b = UpperSet(3, (Polyhedron(3, tuple(hs(d[i], t) for i, t in enumerate((0, -2, 1, 0, -3, -3)))),), k)
        z = {0: -3, 1: 1, 3: 1, 4: -4}
        assert geometry._offset_sums(geometry._offsets(a)[0], geometry._offsets(b)[0]) == {
            tuple(z.get(i) for i in range(6))}
        c = UpperSet(3, tuple(Polyhedron(3, tuple(hs(d[i], t + 2 * (i == j)) for i, t in z.items()))
                              for j in z), k)
        with mock.patch.object(geometry, "minkowski_sum", wraps=minkowski_sum) as msum:
            assert sum_separating_point(a, b, c) is None
        assert msum.call_count == 1 and geometry._offsets(minkowski_sum(a, b)) is None
        assert _general(sum_separating_point, a, b, c) is None

    def test_a_passing_r4_check_builds_no_sum(self):
        # K cap M of a 4 x 3 bid-ask market has six facets; every sample of
        # R4 for wc passes on offset sums
        mkt = load_market({**SIX_FACETS, "probs": ["1/4"] * 4})
        with mock.patch.object(geometry, "minkowski_sum", wraps=minkowski_sum) as msum, \
                mock.patch.object(geometry, "hrep_from_vrep", wraps=hrep_from_vrep) as hrep:
            report = check_measure_law(mkt, WorstCase(), "R4", SampleBudget(25, seed=0))
        assert report.passed and report.samples == 25
        assert msum.call_count == hrep.call_count == 0
