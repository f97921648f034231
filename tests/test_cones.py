"""Solvency-cone algebra: duals, subspace restriction, bid-ask construction.

Derived generator sets were frozen from the 2-D cross-product hull oracle.
"""

import pickle
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from svrisk import cones, scenario
from svrisk._record import fields
from svrisk.cones import EligibleSubspace, bidask_cone, dual_cone, restrict_to_subspace
from svrisk.errors import (DimensionMismatch, EmptyInterior, InvalidSpread, MalformedDocument,
                           ShapeMismatch)
from svrisk.geometry import Cone, feasible, hs
from svrisk.rationals import dot, rank, solve_linear, unit, vadd, vec
from svrisk.scenario import Market, ScenarioSpace

from oracles import cone2d_hull, gauss_jordan_ref, grid_points, in_cone

ORTHANT = Cone.from_rows(2, [[1, 0], [0, 1]])
FRICTION = Cone.from_rows(2, [[1, 1], [0, 1]])  # the mkt-a cone


def norm_dir(v):
    """Scale-free representative of a ray direction."""
    v = vec(v)
    nz = next(x for x in v if x != 0)
    return tuple(x / abs(nz) for x in v)


def same_ray_set(a, b):
    return {norm_dir(v) for v in a} == {norm_dir(v) for v in b}


class TestDualCone:
    def test_orthant_self_dual(self):
        d = dual_cone(ORTHANT)
        assert same_ray_set(d.generators, [(1, 0), (0, 1)])

    def test_friction_dual_generators(self):
        d = dual_cone(FRICTION)
        assert same_ray_set(d.generators, [(1, 1), (0, 1)])

    def test_dual_of_dual_is_original(self):
        d = dual_cone(FRICTION)
        # bipolar: {x : g.x >= 0 for generators g of the dual} recovers K
        dd = Cone.from_rows(2, d.generators)
        assert same_ray_set(dd.generators, FRICTION.generators)
        assert set(dd.halfspaces) == set(FRICTION.halfspaces)

    def test_dual_membership_via_generators(self):
        # the dual's generators are K's rows; their 2-D hull, built by the
        # oracle, must be {y : y.g >= 0 for each generator g of K}
        for k in (ORTHANT, FRICTION, Cone.from_rows(2, [[2, 1], [1, 3]])):
            d = dual_cone(k)
            hull = cone2d_hull(d.generators)
            for y in grid_points(2, -2, 2, Fraction(1, 2)):
                in_dual = all(dot(vec(g), vec(y)) >= 0 for g in k.generators)
                assert in_cone(hull, y) == in_cone(d.halfspaces, y) == in_dual

    def test_generators_match_2d_oracle(self):
        for cone in (ORTHANT, FRICTION):
            oracle_rows = cone2d_hull(cone.generators)
            for x in grid_points(2, -2, 2, Fraction(1, 2)):
                assert in_cone(cone.halfspaces, x) == in_cone(oracle_rows, x)


class TestRestrictToSubspace:
    def test_first_axis_of_friction(self):
        sub = EligibleSubspace.from_coords(2, [0])
        cone = restrict_to_subspace(FRICTION, sub)
        assert cone.halfspaces == ((Fraction(1),),)

    def test_full_subspace(self):
        sub = EligibleSubspace.from_coords(2, [0, 1])
        cone = restrict_to_subspace(ORTHANT, sub)
        for u in grid_points(2, -2, 2, 1):
            assert in_cone(cone.halfspaces, u) == in_cone(ORTHANT.halfspaces, u)

    def test_empty_interior_raises(self):
        sub = EligibleSubspace.from_basis([[1, -1]])
        with pytest.raises(EmptyInterior):
            restrict_to_subspace(ORTHANT, sub)

    def test_self_absorption(self):
        sub = EligibleSubspace.from_coords(2, [0])
        cone = restrict_to_subspace(FRICTION, sub)
        for g in cone.generators:
            for h in cone.generators:
                assert in_cone(cone.halfspaces, tuple(a + b for a, b in zip(g, h)))

    def test_neg_interior_disjoint_from_cone(self):
        for base, coords in ((FRICTION, [0]), (ORTHANT, [0, 1])):
            sub = EligibleSubspace.from_coords(2, coords)
            cone = restrict_to_subspace(base, sub)
            rows = [hs(a) for a in cone.halfspaces] + list(cone.neg_interior())
            assert not feasible(rows, cone.dim)


class TestBidAsk:
    def test_frictionless_collapses_to_halfplane(self):
        cone = bidask_cone([[1, 1], [1, 1]])
        assert cone.halfspaces == ((Fraction(1), Fraction(1)),)

    def test_spread_two(self):
        # the hull of {e1, e2, 2e1-e2, 2e2-e1}; its extreme rays are the
        # exchange generators, the unit vectors fall inside
        cone = bidask_cone([[1, 2], [2, 1]])
        assert same_ray_set(cone.generators, [(2, -1), (-1, 2)])
        oracle_rows = cone2d_hull([(1, 0), (0, 1), (2, -1), (-1, 2)])
        for x in grid_points(2, -2, 2, Fraction(1, 2)):
            assert in_cone(cone.halfspaces, x) == in_cone(oracle_rows, x)

    def test_orthant_always_inside(self):
        cone = bidask_cone([[1, "3/2"], [4, 1]])
        assert cone.contains_orthant()

    def test_antitone_in_spread(self):
        # wider spreads mean fewer liquidatable positions: the cone shrinks
        # toward the orthant (at spread 1 it is the whole half-plane)
        wide = bidask_cone([[1, 3], [3, 1]])
        tight = bidask_cone([[1, "5/4"], ["5/4", 1]])
        for g in wide.generators:
            assert in_cone(tight.halfspaces, g)
        assert not all(in_cone(wide.halfspaces, g) for g in tight.generators)

    @pytest.mark.parametrize("pi", [
        [[1, "1/2"], [2, 1]],
        [[2, 2], [2, 1]],
        [[1, 1, 1], [1, 1]],
    ])
    def test_invalid_spreads(self, pi):
        with pytest.raises(InvalidSpread):
            bidask_cone(pi)


@st.composite
def spread(draw):
    """A 2x2 or 3x3 bid-ask matrix with off-diagonal entries in a small grid."""
    d = draw(st.sampled_from((2, 3)))
    grid = st.sampled_from(("1", "5/4", "3/2", "2", "3"))
    return [[1 if i == j else Fraction(draw(grid)) for j in range(d)] for i in range(d)]


class TestConeRecord:
    @settings(max_examples=80, deadline=None)
    @given(spread())
    def test_constructors_and_bipolarity(self, pi):
        d = len(pi)
        k = bidask_cone(pi)
        assert Cone.from_rows(d, k.halfspaces) == k
        assert Cone.from_generators(k.generators, d) == k
        if not any(tuple(-c for c in g) in k.generators for g in k.generators):
            # pointed K: the double description of its facet normals is K+
            assert Cone.from_generators(k.halfspaces, d) == dual_cone(k)


def market_on(sub: EligibleSubspace) -> Market:
    """A one-scenario orthant market whose eligible subspace is ``sub``."""
    orthant = Cone.from_rows(sub.d, [unit(sub.d, i) for i in range(sub.d)])
    return Market(ScenarioSpace((Fraction(1),)), sub.d, orthant, sub,
                  restrict_to_subspace(orthant, sub))


class TestEligibleSubspace:
    """The M-coordinate maps, on a market over the subspace."""

    def test_roundtrip(self):
        mkt = market_on(EligibleSubspace.from_basis([[1, 1, 0], [0, 1, 1]]))
        u = vec(["1/2", "-2"])
        assert mkt.to_m(mkt.from_m(u)) == u

    def test_int_columns_are_kept_outside_the_fields(self):
        sub = EligibleSubspace.from_basis([["1/2", 1, 0], [0, "1/3", 2]])
        same = EligibleSubspace(sub.basis)
        back = pickle.loads(pickle.dumps(sub))
        assert fields(sub) == ("basis",) and repr(back) == repr(sub)
        assert sub == same == back and hash(sub) == hash(same) == hash(back)
        assert b"_columns" not in pickle.dumps(sub)
        u = vec(["1/2", "-2"])
        expected = tuple(u[0] * a + u[1] * b for a, b in zip(*sub.basis))
        # the basis is put over one denominator when the subspace is built, not per call
        mkt, twin = market_on(sub), market_on(back)
        with mock.patch.object(cones, "over_den", wraps=cones.over_den) as basis, \
                mock.patch.object(scenario, "over_den", wraps=scenario.over_den) as point:
            assert mkt.from_m(u) == twin.from_m(u) == expected
        assert basis.call_count == 0 and point.call_count == 2  # u alone, once per call

    def test_outside_detection(self):
        mkt = market_on(EligibleSubspace.from_coords(3, [0, 1]))
        assert mkt.to_m(vec([1, 2, 0])) == (Fraction(1), Fraction(2))
        with pytest.raises(ShapeMismatch, match="not in the eligible subspace"):
            mkt.to_m(vec([0, 0, 1]))

    def test_dependent_basis_rejected(self):
        with pytest.raises(MalformedDocument, match="linearly dependent"):
            EligibleSubspace.from_basis([[1, 1], [2, 2]])

    def test_int_basis_gives_fraction_coordinates(self):
        got = market_on(EligibleSubspace(((3, 1), (1, 2)))).to_m((4, 3))
        assert got == (1, 1) and all(type(c) is Fraction for c in got)

    @pytest.mark.parametrize("exact", [int, Fraction])
    def test_dependent_int_basis_rejected(self, exact):
        # row 3 = row 1 + 3 * row 2, which float elimination missed on ints
        rows = ((9, -8, 3), (6, -5, -9), (27, -23, -24))
        with pytest.raises(MalformedDocument, match="linearly dependent"):
            EligibleSubspace(tuple(tuple(exact(c) for c in r) for r in rows))


class TestWrongLength:
    """Wrong-length vectors raise; nothing is silently truncated."""

    @pytest.mark.parametrize("build", [
        lambda: Cone.from_rows(2, [(1, 0), (0, 1, 5)]),
        lambda: Cone.from_generators([(1, 0), (0, 1, 5)], 2),
        lambda: restrict_to_subspace(bidask_cone([[1, 2], [2, 1]]),
                                     EligibleSubspace.from_coords(3, [0])),
    ], ids=["from_rows", "from_generators", "restrict_to_subspace"])
    def test_cone_constructors_name_both_lengths(self, build):
        with pytest.raises(DimensionMismatch, match=r"length 3\b.* dim 2\b|dim 2\b.* length 3\b"):
            build()

    @pytest.mark.parametrize("op", [dot, vadd])
    def test_vector_arithmetic(self, op):
        with pytest.raises(ValueError):
            op((1, 2), (3,))

    def test_solve_linear(self):
        with pytest.raises(ValueError):
            solve_linear(((1, 0), (0, 1)), (1,))


rational = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def linear_systems(draw):
    """A x = b with up to four equations in up to four unknowns; some rows
    repeat a multiple of another, so rank drops and systems turn inconsistent."""
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    a = [draw(st.lists(rational, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    for i in range(1, nrows):
        if draw(st.booleans()):
            a[i] = [draw(rational) * v for v in a[draw(st.integers(0, i - 1))]]
    b = draw(st.lists(rational, min_size=nrows, max_size=nrows))
    return tuple(map(tuple, a)), tuple(b)


class TestEchelon:
    @settings(max_examples=100, deadline=None)
    @given(linear_systems())
    def test_rank_and_solutions_match_gauss_jordan(self, system):
        a, b = system
        ref_rank, solvable = gauss_jordan_ref(a, b)
        assert rank(a) == ref_rank
        x = solve_linear(a, b)
        assert (x is not None) == solvable
        if x is not None:
            assert all(type(v) is Fraction for v in x)
            assert tuple(dot(row, x) for row in a) == b
