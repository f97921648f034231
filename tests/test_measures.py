"""Measure and acceptance-set evaluation against definitional predicates.

Derived set values were frozen from the scenario-wise membership and
t-interval oracles; every evaluator is also cross-checked against the direct
predicate route on rational grids.
"""

import copy
import itertools
import json
import pickle
import random
import re
import time
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from svrisk import geometry, measures
from svrisk._record import fields
from svrisk.errors import BadLevel, MalformedDocument, ShapeMismatch, WorkLimit
from svrisk.fixtures import MARKET_DOCS, market, position
from svrisk.geometry import (
    Polyhedron,
    convert_rep,
    feasible_point,
    hs,
    is_subset,
    minkowski_sum,
    recession_upper_set,
    scale_set,
    sets_equal,
    translate_set,
    upper_set,
)
from svrisk.geometry import _minimal_offsets
from svrisk.laws import SampleBudget, esssup_bridge
from svrisk.measures import (
    _table,
    AccIntersection,
    AccUnion,
    ConvexCombo,
    DominanceAt,
    Hull,
    MeasureIntersection,
    MeasureUnion,
    OfAcceptance,
    OfMeasure,
    Ray,
    Segment,
    SegmentHull,
    Shift,
    Translate,
    VaR,
    VaRStrong,
    VaRWeak,
    WorstCase,
    acceptance_from_doc,
    acceptance_to_doc,
    accepts,
    eval_acceptance,
    eval_measure,
    measure_from_doc,
    measure_to_doc,
    value_at_risk,
    worst_case,
)
from svrisk.scenario import PortfolioVector, RandomVector, load_market

from oracles import (
    bidask_3_cases,
    enumerated_pieces_ref,
    exists_t_member,
    good_scenario_sets_ref,
    grid_points,
    hull_accepts_ref,
    hull_rows_ref,
    project_rows_ref,
    ref_feasible,
    ref_prune_rows,
    ref_row,
    thresholds_ref,
    var_offsets_ref,
    var_predicate,
    var_strong_predicate,
    var_weak_predicate,
    wc_predicate,
    worst_case_ref,
)


def half_line(mkt, c):
    return upper_set(1, (Polyhedron(1, (hs([1], c),)),), mkt.cone_in_m)


class TestWorstCase:
    def test_at_zero_is_cone(self, mkt_a):
        assert sets_equal(worst_case(mkt_a, mkt_a.zero_position()),
                          recession_upper_set(mkt_a.cone_in_m))

    def test_fixture_half_line(self, mkt_a, wc_fixture_position):
        assert sets_equal(worst_case(mkt_a, wc_fixture_position),
                          half_line(mkt_a, 1))

    def test_uncompensatable_is_empty(self, mkt_a):
        x = RandomVector.of([["-1", "0"], ["0", "-2"]])
        assert worst_case(mkt_a, x).is_empty()

    def test_single_convex_piece(self, mkt_b):
        x = RandomVector.of([["-1", "2"], ["3", "-1"], ["0", "0"]])
        assert len(worst_case(mkt_b, x).pieces) == 1

    def test_matches_predicate_on_grid(self, mkt_a, mkt_b, wc_fixture_position):
        cases = [(mkt_a, wc_fixture_position),
                 (mkt_b, RandomVector.of([["-1", "-1"], ["-2", "0"], ["0", "-4"]]))]
        for mkt, x in cases:
            value = worst_case(mkt, x)
            for u in grid_points(mkt.m):
                assert value.contains_point(u) == wc_predicate(mkt, x, u)

    def test_shape_mismatch(self, mkt_a):
        with pytest.raises(ShapeMismatch):
            worst_case(mkt_a, RandomVector.zero(3, 2))


class TestValueAtRisk:
    def test_level_zero_is_worst_case(self, mkt_b, var_fixture_position):
        v = value_at_risk(mkt_b, "strong", 0, var_fixture_position)
        assert sets_equal(v, worst_case(mkt_b, var_fixture_position))

    def test_documented_two_piece_value(self, mkt_b, var_fixture_position):
        v = value_at_risk(mkt_b, "strong", Fraction(1, 4), var_fixture_position)
        expected = upper_set(2, (
            Polyhedron(2, (hs([1, 0], 2), hs([0, 1], 1))),
            Polyhedron(2, (hs([1, 0], 1), hs([0, 1], 4))),
        ), mkt_b.cone_in_m)
        assert sets_equal(v, expected)
        assert len(v.pieces) == 2

    def test_level_one_is_everything(self, mkt_b, var_fixture_position):
        v = value_at_risk(mkt_b, "strong", 1, var_fixture_position)
        assert v.pieces[0].halfspaces == ()

    def test_strong_inside_weak(self, mkt_a, mkt_b, var_fixture_position):
        lam = Fraction(1, 4)
        for mkt, x in ((mkt_b, var_fixture_position),
                       (mkt_a, RandomVector.of([["-2", "1"], ["1", "-1"]]))):
            strong = value_at_risk(mkt, "strong", lam, x)
            weak = value_at_risk(mkt, "weak", lam, x)
            assert is_subset(strong, weak)

    @pytest.mark.parametrize("kind,oracle", [
        ("strong", var_strong_predicate),
        ("weak", var_weak_predicate),
    ])
    def test_matches_predicate_on_grid(self, mkt_b, var_fixture_position, kind, oracle):
        lam = Fraction(1, 4)
        value = value_at_risk(mkt_b, kind, lam, var_fixture_position)
        for u in grid_points(2, -1, 5, Fraction(1, 2)):
            assert value.contains_point(u) == oracle(mkt_b, var_fixture_position, u, lam)

    def test_bad_level(self, mkt_b, var_fixture_position):
        with pytest.raises(BadLevel):
            value_at_risk(mkt_b, "strong", Fraction(5, 4), var_fixture_position)
        with pytest.raises(BadLevel):
            VaRWeak(Fraction(-1, 2))

    def test_positive_homogeneity_sampled(self, mkt_b, var_fixture_position):
        v = value_at_risk(mkt_b, "strong", Fraction(1, 4), var_fixture_position)
        for t in (Fraction(1, 2), Fraction(2), Fraction(3, 4)):
            scaled = value_at_risk(mkt_b, "strong", Fraction(1, 4),
                                   var_fixture_position.scale(t))
            assert sets_equal(scale_set(t, v), scaled)

    def test_three_asset_market(self):
        from svrisk.scenario import load_market
        doc = {"d": 3, "probs": ["1/3", "1/3", "1/3"],
               "cone": {"halfspaces": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]},
               "subspace": {"coords": [0, 1, 2]}}
        mkt = load_market(doc)
        x = RandomVector.of([["-1", "0", "2"], ["0", "-2", "1"], ["1", "1", "-1"]])
        wc = worst_case(mkt, x)
        assert len(wc.pieces) == 1
        v = value_at_risk(mkt, "strong", Fraction(1, 3), x)
        assert is_subset(wc, v)
        assert sets_equal(scale_set(2, v),
                          value_at_risk(mkt, "strong", Fraction(1, 3), x.scale(2)))


class TestEvalAcceptance:
    def test_dominance_at_self(self, mkt_a, wc_fixture_position):
        a = DominanceAt(wc_fixture_position)
        out = eval_acceptance(mkt_a, a, wc_fixture_position)
        assert sets_equal(out, recession_upper_set(mkt_a.cone_in_m))

    def test_segment_t_forced_to_zero(self, mkt_a):
        z = RandomVector.constant(2, ["-1", "1"])
        out = eval_acceptance(mkt_a, Segment(z), mkt_a.zero_position())
        assert sets_equal(out, half_line(mkt_a, 0))

    def test_segment_best_t_is_one(self, mkt_a):
        z = RandomVector.constant(2, ["-2", "0"])
        out = eval_acceptance(mkt_a, Segment(z), mkt_a.zero_position())
        assert sets_equal(out, half_line(mkt_a, -2))

    def test_segment_matches_interval_oracle(self, mkt_a):
        z = RandomVector.of([["-2", "1"], ["1", "-1"]])
        x = RandomVector.of([["0", "1"], ["-1", "2"]])
        out = eval_acceptance(mkt_a, Segment(z), x)
        rows = []
        for xr, zr in zip(x.values, z.values):
            for a in mkt_a.cone.halfspaces:
                au = sum(c * b for c, b in zip(a, mkt_a.subspace.basis[0]))
                rows.append((au, -sum(c * v for c, v in zip(a, zr)),
                             -sum(c * v for c, v in zip(a, xr)), False))
        for u in grid_points(1, -4, 4, Fraction(1, 3)):
            assert out.contains_point(u) == exists_t_member(rows, u, lo=0, hi=1)

    def test_ray_extends_segment(self, mkt_b):
        z = RandomVector.constant(3, ["-1", "-1"])
        x = mkt_b.zero_position()
        seg = eval_acceptance(mkt_b, Segment(z), x)
        ray = eval_acceptance(mkt_b, Ray(z), x)
        assert is_subset(seg, ray)

    def test_segment_hull_contains_endpoints(self, mkt_b):
        y = RandomVector.constant(3, ["2", "0"])
        z = RandomVector.constant(3, ["0", "2"])
        hull_val = eval_acceptance(mkt_b, SegmentHull(y, z), mkt_b.zero_position())
        for anchor in (y, z):
            dom_val = eval_acceptance(mkt_b, DominanceAt(anchor), mkt_b.zero_position())
            assert is_subset(dom_val, hull_val)

    def test_segment_always_single_piece(self, mkt_a):
        rng = random.Random(5)
        for _ in range(20):
            z = RandomVector.of([[Fraction(rng.randint(-4, 4), 2) for _ in range(2)]
                                 for _ in range(2)])
            x = RandomVector.of([[Fraction(rng.randint(-4, 4), 2) for _ in range(2)]
                                 for _ in range(2)])
            out = eval_acceptance(mkt_a, Segment(z), x)
            assert len(out.pieces) <= 1

    def test_of_measure_round_trip(self, mkt_a, wc_fixture_position):
        direct = worst_case(mkt_a, wc_fixture_position)
        via = eval_acceptance(mkt_a, OfMeasure(WorstCase()), wc_fixture_position)
        assert sets_equal(direct, via)

    def test_set_nodes_distribute(self, mkt_b):
        z1 = RandomVector.constant(3, ["2", "0"])
        z2 = RandomVector.constant(3, ["0", "2"])
        x = mkt_b.zero_position()
        union_val = eval_acceptance(mkt_b, AccUnion((DominanceAt(z1), DominanceAt(z2))), x)
        inter_val = eval_acceptance(mkt_b, AccIntersection((DominanceAt(z1), DominanceAt(z2))), x)
        v1 = eval_acceptance(mkt_b, DominanceAt(z1), x)
        v2 = eval_acceptance(mkt_b, DominanceAt(z2), x)
        from svrisk.geometry import union_sets, intersect_sets
        assert sets_equal(union_val, union_sets(v1, v2))
        assert sets_equal(inter_val, intersect_sets(v1, v2))


class TestEvalMeasure:
    def test_cash_additivity_fixture(self, mkt_a, wc_fixture_position):
        u = (Fraction(3, 2),)
        shifted = wc_fixture_position.add_constant(mkt_a.from_m(u))
        lhs = eval_measure(mkt_a, WorstCase(), shifted)
        rhs = translate_set(eval_measure(mkt_a, WorstCase(), wc_fixture_position),
                            (-u[0],))
        assert sets_equal(lhs, rhs)

    def test_translate_is_precomposition(self, mkt_a, wc_fixture_position):
        y = RandomVector.constant(2, ["1", "1"])
        expr = Translate(WorstCase(), y)
        assert sets_equal(eval_measure(mkt_a, expr, wc_fixture_position),
                          worst_case(mkt_a, wc_fixture_position.add(y)))

    def test_shift_moves_value(self, mkt_a, wc_fixture_position):
        expr = Shift(WorstCase(), PortfolioVector.of(["2", "0"]))
        out = eval_measure(mkt_a, expr, wc_fixture_position)
        assert sets_equal(out, half_line(mkt_a, -1))

    def test_union_on_grid(self, mkt_a, wc_fixture_position):
        expr = MeasureUnion((WorstCase(), Shift(WorstCase(), PortfolioVector.of(["1", "0"]))))
        out = eval_measure(mkt_a, expr, wc_fixture_position)
        wc_val = worst_case(mkt_a, wc_fixture_position)
        for u in grid_points(1, -3, 3, Fraction(1, 2)):
            direct = wc_val.contains_point(u) or wc_val.contains_point((u[0] + 1,))
            assert out.contains_point(u) == direct

    def test_intersection(self, mkt_a, wc_fixture_position):
        expr = MeasureIntersection((WorstCase(), Shift(WorstCase(), PortfolioVector.of(["-1", "0"]))))
        out = eval_measure(mkt_a, expr, wc_fixture_position)
        assert sets_equal(out, half_line(mkt_a, 2))

    def test_convex_combo_of_half_lines(self, mkt_1d):
        # values {u>=0} and {u>=2} mix to {u>=1}
        x = mkt_1d.zero_position()
        expr = ConvexCombo(Fraction(1, 2), WorstCase(),
                           Shift(WorstCase(), PortfolioVector.of(["-2"])))
        out = eval_measure(mkt_1d, expr, x)
        assert sets_equal(out, half_line(mkt_1d, 1))

    def test_convex_combo_weight_validated(self):
        with pytest.raises(BadLevel):
            ConvexCombo(Fraction(3, 2), WorstCase(), WorstCase())

    def test_every_value_absorbs_cone(self, mkt_b, var_fixture_position):
        exprs = [WorstCase(), VaRStrong(Fraction(1, 4)), VaRWeak(Fraction(1, 2)),
                 OfAcceptance(Segment(RandomVector.constant(3, ["-1", "0"]))),
                 ConvexCombo(Fraction(1, 3), WorstCase(), VaRStrong(Fraction(1, 4)))]
        km = recession_upper_set(mkt_b.cone_in_m)
        for expr in exprs:
            value = eval_measure(mkt_b, expr, var_fixture_position)
            assert sets_equal(minkowski_sum(value, km), value) or value.is_empty()


class TestAccepts:
    def test_of_measure_wc_is_scenario_solvency(self, mkt_a):
        good = RandomVector.of([["1", "0"], ["-1", "2"]])
        bad = RandomVector.of([["1", "0"], ["-1", "0"]])
        assert accepts(mkt_a, OfMeasure(WorstCase()), good)
        assert not accepts(mkt_a, OfMeasure(WorstCase()), bad)

    def test_dominance_fixture(self, mkt_a, wc_fixture_position):
        z = RandomVector.of([["0", "0"], ["1", "2"]])
        assert not accepts(mkt_a, DominanceAt(z), wc_fixture_position)
        shifted = wc_fixture_position.add_constant(["1", "0"])
        assert accepts(mkt_a, DominanceAt(z), shifted)

    @pytest.mark.parametrize("rows, expected", [
        ([["1", "0"]] * 3, True), ([["0", "1"]] * 3, True), ([["1", "1"]] * 3, True),
        ([["0", "0"]] * 3, False),
        # each scenario dominates one of the points, no point is dominated in all
        ([["1", "0"], ["0", "1"], ["1", "1"]], False),
    ])
    def test_a_union_accepts_what_some_member_accepts(self, mkt_b, rows, expected):
        members = (DominanceAt(RandomVector.constant(3, ["1", "0"])),
                   DominanceAt(RandomVector.constant(3, ["0", "1"])))
        x, union = RandomVector.of(rows), AccUnion(members)
        refs = [hull_accepts_ref(mkt_b.cone.halfspaces, x.values, [m.points[0].values], [])
                for m in members]
        assert accepts(mkt_b, union, x) == any(refs) == expected
        assert eval_acceptance(mkt_b, union, x).contains_point((0, 0)) == expected

    def test_segment_endpoint(self, mkt_a):
        z = RandomVector.of([["-1", "1"], ["2", "0"]])
        assert accepts(mkt_a, Segment(z), z)

    def test_membership_agrees_with_eval(self, mkt_a, mkt_b):
        # the direct feasibility route, the set-evaluation route and the
        # reference-FM oracle agree; the first two share their row system
        rng = random.Random(9)
        anchors = {2: RandomVector.of([["-1", "1"], ["1", "-1"]]),
                   3: RandomVector.of([["-1", "1"], ["1", "-1"], ["0", "1"]])}
        for mkt in (mkt_a, mkt_b):
            z = anchors[mkt.n]
            nodes = [DominanceAt(z), Segment(z), Ray(z),
                     SegmentHull(RandomVector.constant(mkt.n, ["1", "1"]), z)]
            for _ in range(15):
                x = RandomVector.of([[Fraction(rng.randint(-4, 4), 2) for _ in range(2)]
                                     for _ in range(mkt.n)])
                for node in nodes:
                    direct = accepts(mkt, node, x)
                    via_set = eval_acceptance(mkt, node, x).contains_point(
                        (Fraction(0),) * mkt.m)
                    ref = hull_accepts_ref(mkt.cone.halfspaces, x.values,
                                           [p.values for p in node.points],
                                           [r.values for r in node.rays])
                    assert direct == via_set == ref, (node, x)


HULL_MARKETS = (market("mkt-a"), market("mkt-b"))


@st.composite
def hull_cases(draw):
    """A market, a hull of 1-3 points and 0-2 rays with entries in halves
    from -2 to 2, and a position; half the positions are a hull point plus a
    nonnegative constant, so accepted."""
    mkt = draw(st.sampled_from(HULL_MARKETS))

    def vector(low=-4):
        halves = draw(st.lists(st.integers(low, 4), min_size=mkt.n * mkt.d,
                               max_size=mkt.n * mkt.d))
        return RandomVector.of([[Fraction(v, 2) for v in halves[i:i + mkt.d]]
                                for i in range(0, len(halves), mkt.d)])

    hull = Hull(tuple(vector() for _ in range(draw(st.integers(1, 3)))),
                tuple(vector() for _ in range(draw(st.integers(0, 2)))))
    x = vector()
    if draw(st.booleans()):
        x = draw(st.sampled_from(hull.points)).add_constant(vector(0).values[0])
    return mkt, hull, x


THREE_ASSET_DOC = {"d": 3, "probs": ["1/4"] * 4, "subspace": {"coords": [0, 1, 2]},
                   "cone": {"bidask": [[1, "3/2", "3/2"], ["3/2", 1, "3/2"], ["3/2", "3/2", 1]]}}


def three_asset_hull(points: int, rays: int, seed: int):
    """A hull of ``points`` points and ``rays`` rays on the 4-scenario
    three-asset bid-ask market, and a position, with half-integer entries."""
    rng = random.Random(seed)

    def draw():
        return RandomVector.of([[Fraction(rng.randint(-4, 4), 2) for _ in range(3)]
                                for _ in range(4)])

    return Hull(tuple(draw() for _ in range(points)), tuple(draw() for _ in range(rays))), draw()


class TestHull:
    @pytest.mark.parametrize("points, rays, seed", [(3, 0, 0), (3, 0, 2), (2, 1, 2), (2, 1, 5),
                                                    (3, 0, 5), (3, 0, 7), (2, 1, 7), (2, 1, 9)])
    def test_two_mixing_variables_on_a_three_asset_market(self, points, rays, seed):
        # stepwise elimination of the two mixing variables built over 10,000
        # rows on each of these hulls and raised WorkLimit; on the last four,
        # so did a redundancy pass over the double description facets
        mkt, rng = load_market(THREE_ASSET_DOC), random.Random(seed)
        hull, x = three_asset_hull(points, rays, seed)
        start = time.process_time()
        value = eval_acceptance(mkt, hull, x)
        assert time.process_time() - start < 1
        assert accepts(mkt, hull, x) == value.contains_point((0, 0, 0))

        def ref(u):
            return hull_accepts_ref(mkt.cone.halfspaces, x.add_constant(mkt.from_m(u)).values,
                                    [p.values for p in hull.points], [r.values for r in hull.rays])

        vertices = [v for p in value.pieces for v in convert_rep(p).vertices]
        assert vertices and all(ref(v) for v in vertices)
        probes = [tuple(c + Fraction(rng.randint(-4, 4), 4) for c in v) for v in vertices[:2]]
        probes += [tuple(Fraction(rng.randint(-24, 24), 4) for _ in range(3)) for _ in range(8)]
        inside = [value.contains_point(u) for u in probes]
        assert set(inside) == {True, False}
        assert inside == [ref(u) for u in probes]

    @settings(max_examples=40, deadline=None)
    @given(hull_cases())
    def test_accepts_eval_oracle_and_codec_agree(self, case):
        mkt, hull, x = case
        # two or more weights: whether the rows have a vertex, with no projection
        with mock.patch.object(measures, "eliminate") as projection, \
                mock.patch.object(Polyhedron, "contains_point") as member:
            direct = accepts(mkt, hull, x)
        assert not projection.called and not member.called
        via_set = eval_acceptance(mkt, hull, x).contains_point((Fraction(0),) * mkt.m)
        ref = hull_accepts_ref(mkt.cone.halfspaces, x.values,
                               [p.values for p in hull.points], [r.values for r in hull.rays])
        assert direct == via_set == ref
        assert acceptance_from_doc(acceptance_to_doc(hull)) == hull
        p0, p1 = hull.points[0], hull.points[-1]
        zero_base = p0 == RandomVector.zero(mkt.n, mkt.d)
        for node, key in ((DominanceAt(p0), "dominance_at"), (Segment(p0), "segment"),
                          (Ray(p0), "ray"),
                          (SegmentHull(p0, p1), "segment" if zero_base else "segment_hull")):
            doc = acceptance_to_doc(node)
            assert list(doc) == [key] and acceptance_from_doc(doc) == node

    @settings(max_examples=60, deadline=None)
    @given(hull_cases())
    def test_pruned_oracle_is_the_plain_one(self, case):
        mkt, hull, x = case
        args = (mkt.cone.halfspaces, x.values, [p.values for p in hull.points],
                [r.values for r in hull.rays])
        assert hull_accepts_ref(*args) == hull_accepts_ref(*args, decide=ref_feasible)

    def test_legacy_shapes(self):
        y, z = RandomVector.constant(2, ["1", "0"]), RandomVector.constant(2, ["0", "1"])
        zero = RandomVector.zero(2, 2)
        assert DominanceAt(z) == Hull((z,), ())
        assert Segment(z) == Hull((zero, z), ()) == SegmentHull(zero, z)
        assert Ray(z) == Hull((zero,), (z,))
        assert SegmentHull(y, z) == Hull((y, z), ())

    def test_other_hulls_print_under_the_hull_key(self):
        y, z = RandomVector.constant(2, ["1", "0"]), RandomVector.constant(2, ["0", "1"])
        doc = acceptance_to_doc(Hull((y,), (z,)))
        assert doc == {"hull": {"points": [y.to_doc()], "rays": [z.to_doc()]}}
        assert acceptance_to_doc(Hull((y, z, y), ()))["hull"]["rays"] == []
        # a segment hull from zero is a segment: same set, same document
        assert acceptance_to_doc(SegmentHull(RandomVector.zero(2, 2), z)) == \
            {"segment": {"z": z.to_doc()}}

    @pytest.mark.parametrize("body", [
        {"points": []}, {"rays": []}, {"points": [], "rays": []},
        {"points": {"rows": [["1", "0"]]}, "rays": []},
        {"points": [{"rows": [["1", "0"]]}], "rays": {"rows": [["1", "0"]]}},
    ], ids=["no-rays", "no-points", "empty-points", "points-not-list", "rays-not-list"])
    def test_malformed_hull_documents(self, body):
        with pytest.raises(MalformedDocument, match="'hull'"):
            acceptance_from_doc({"hull": body})

    def test_mixed_shapes_are_rejected(self, mkt_b, var_fixture_position):
        x, short = var_fixture_position, RandomVector.of([["1", "0"]])
        with pytest.raises(ShapeMismatch):
            Hull((x, short), ())
        with pytest.raises(ShapeMismatch):
            acceptance_from_doc({"hull": {"points": [x.to_doc()], "rays": [short.to_doc()]}})
        with pytest.raises(ShapeMismatch):
            accepts(mkt_b, SegmentHull(x, short), x)
        for node in (Segment(short), Ray(short), DominanceAt(short)):
            with pytest.raises(ShapeMismatch):
                accepts(mkt_b, node, x)
            with pytest.raises(ShapeMismatch):
                eval_acceptance(mkt_b, node, x)
        wide = RandomVector.of([["1", "0", "0"]] * 3)
        with pytest.raises(ShapeMismatch):
            eval_acceptance(mkt_b, Ray(wide), x)


@st.composite
def probabilities_and_level(draw, max_n=12):
    """A probability vector (n <= max_n) and a level in [0, 1]; half the
    levels sit exactly on 1 - P(T) for a scenario set T, the boundary of
    goodness."""
    weights = draw(st.lists(st.integers(1, 12), min_size=1, max_size=max_n))
    probs = [Fraction(w, sum(weights)) for w in weights]
    if draw(st.booleans()):
        chosen = draw(st.lists(st.booleans(), min_size=len(probs), max_size=len(probs)))
        level = 1 - sum((p for p, c in zip(probs, chosen) if c), Fraction(0))
    else:
        den = draw(st.integers(1, 24))
        level = Fraction(draw(st.integers(0, den)), den)
    return probs, level


class TestGoodScenarioSets:
    @settings(max_examples=150, deadline=None)
    @given(probabilities_and_level(), st.data())
    def test_integer_weights_match_fraction_sums(self, case, data):
        # scenario i is good from u = -x_i on; with distinct x_i the value
        # starts at the first u where the good weight reaches need, so a
        # need rounded the wrong way moves it
        probs, level = case
        mkt = load_market({"d": 1, "probs": [str(p) for p in probs],
                           "cone": {"halfspaces": [[1]]}, "subspace": {"coords": [0]}})
        x = RandomVector.of([[v] for v in data.draw(st.lists(
            st.integers(-20, 20), min_size=len(probs), max_size=len(probs), unique=True))])
        # with one cone row, x_i + u >= 0 is both kinds' goodness
        ref = upper_set(1, enumerated_pieces_ref(mkt, "strong", level, x), mkt.cone_in_m)
        for kind in ("strong", "weak"):
            assert value_at_risk(mkt, kind, level, x).to_doc() == ref.to_doc()

    @settings(max_examples=150, deadline=None)
    @given(probabilities_and_level(max_n=8))
    def test_lightest_member_listing_is_the_pairwise_one(self, case):
        # the definition: sets of mass >= 1 - level with no such proper subset
        probs, level = case
        heavy = [t for size in range(len(probs) + 1)
                 for t in itertools.combinations(range(len(probs)), size)
                 if sum((probs[i] for i in t), Fraction(0)) >= 1 - level]
        minimal = [t for t in heavy if not any(set(s) < set(t) for s in heavy)]
        assert good_scenario_sets_ref(probs, level) == minimal


SPREAD_3 = [[1, "3/2", 2], ["4/3", 1, "5/4"], ["7/4", "6/5", 1]]

SCENARIO_ROW_MARKETS = {
    "mkt-a": market("mkt-a"),  # M is the first axis
    "mkt-b": market("mkt-b"),
    "bidask-3": load_market({"d": 3, "probs": ["1/2", "1/3", "1/6"],
                             "cone": {"bidask": SPREAD_3}, "subspace": {"coords": [0, 1, 2]}}),
    # a plane of R^3 spanned by rows with different denominators
    "bidask-3-plane": load_market({"d": 3, "probs": ["1/2", "1/2"], "cone": {"bidask": SPREAD_3},
                                   "subspace": {"basis": [["1/2", "1/3", 0], [0, "2/5", "3/7"]]}}),
}


@st.composite
def hull_cases(draw):
    """A market of ``SCENARIO_ROW_MARKETS``, a hull with k = 0, 1 or 2
    weights (one point; two points; three points; two points and a ray) and
    a position, each vector with entries over its own denominator, so that
    the positions' denominators differ; half the positions are p0 plus a
    nonnegative constant, so accepted."""
    mkt = SCENARIO_ROW_MARKETS[draw(st.sampled_from(sorted(SCENARIO_ROW_MARKETS)))]
    dens = iter(draw(st.permutations(range(1, 10))))

    def vector(low=-12):
        den = next(dens)
        return RandomVector.of([[Fraction(draw(st.integers(low, 12)), den) for _ in range(mkt.d)]
                                for _ in range(mkt.n)])

    points, rays = draw(st.sampled_from(((1, 0), (2, 0), (3, 0), (2, 1))))
    hull = Hull(tuple(vector() for _ in range(points)), tuple(vector() for _ in range(rays)))
    x = vector()
    if draw(st.booleans()):
        x = hull.points[0].add_constant(vector(0).values[0])
    return mkt, hull, x


class TestScenarioRows:
    @settings(max_examples=150, deadline=None)
    @given(hull_cases())
    def test_integer_rows_are_the_scaled_fraction_rows(self, case):
        # the int rows of the one column table hold where the Fraction rows do
        mkt, hull, x = case
        assert eval_acceptance(mkt, hull, x) == stepwise_value(mkt, hull, x)
        assert accepts(mkt, hull, x) == hull_accepts_ref(
            mkt.cone.halfspaces, x.values, [p.values for p in hull.points],
            [r.values for r in hull.rays])


@st.composite
def one_weight_cases(draw):
    """A market of ``SCENARIO_ROW_MARKETS``, two positions y, z and a position
    x with entries in thirds; half the x dominate z by a nonnegative constant,
    so that every hull through z accepts them."""
    mkt = SCENARIO_ROW_MARKETS[draw(st.sampled_from(sorted(SCENARIO_ROW_MARKETS)))]
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))

    def vector():
        return RandomVector.of(draw(st.lists(st.lists(entry, min_size=mkt.d, max_size=mkt.d),
                                             min_size=mkt.n, max_size=mkt.n)))

    y, z, x = vector(), vector(), vector()
    if draw(st.booleans()):
        x = z.add_constant([abs(v) for v in vector().values[0]])
    return mkt, y, z, x


def stepwise_value(mkt, hull, x):
    """The value of a hull by ``eliminate`` of its k weights from the rows of
    ``hull_rows_ref``."""
    m, k = mkt.m, len(hull.points) - 1 + len(hull.rays)
    piece = geometry.eliminate(Polyhedron(m + k, hull_rows_ref(mkt, hull, x, m)), range(m, m + k))
    pieces = () if piece == geometry.empty_polyhedron(m) else (piece,)
    return geometry.UpperSet(m, pieces, mkt.cone_in_m, canonical=True)


class TestOneWeightHulls:
    """Hulls with at most one mixing weight are decided by the interval and
    valued by one Fourier-Motzkin step, or by ``eliminate`` when the rows it
    leaves are off the facets; the reference rows judge both."""

    @settings(max_examples=60, deadline=None)
    @given(one_weight_cases())
    def test_column_routes_are_the_row_routes(self, case):
        mkt, y, z, x = case
        for hull in (DominanceAt(z), Segment(z), Ray(z), SegmentHull(y, z)):
            k = len(hull.points) - 1 + len(hull.rays)
            rows = hull_rows_ref(mkt, hull, x, 0)
            got = accepts(mkt, hull, x)
            assert got == geometry.feasible(rows, k)
            assert got == hull_accepts_ref(mkt.cone.halfspaces, x.values,
                                           [p.values for p in hull.points],
                                           [r.values for r in hull.rays])
            if k == 1:
                assert eval_acceptance(mkt, hull, x).to_doc() == \
                    stepwise_value(mkt, hull, x).to_doc()

    @pytest.mark.parametrize("name, z, x, calls", [
        # mkt-a has m = 1: every projected row lies on the one facet
        ("mkt-a", [["-1", "1"], ["2", "0"]], [["1", "1"], ["1", "1"]], 0),
        # rows of two scenarios combine to (1, 4) . u >= 6, off the facets of K cap M
        ("mkt-b", [[2, "-1/2"], ["1/2", "-1/2"], ["-1/2", "3/2"]], [[0, "-3/2"], ["1/2", 2], [1, 2]],
         1),
    ], ids=["on-facets", "off-facets"])
    def test_only_rows_off_the_facets_take_eliminate(self, name, z, x, calls):
        mkt, z, x = SCENARIO_ROW_MARKETS[name], RandomVector.of(z), RandomVector.of(x)
        for hull in (Segment(z), Ray(z)):
            with mock.patch.object(measures, "eliminate", wraps=measures.eliminate) as project:
                value = eval_acceptance(mkt, hull, x)
            assert project.call_count == calls
            assert value == stepwise_value(mkt, hull, x) and not value.is_empty()

    def test_fm_row_limit_counts_the_stepwise_pairs(self, monkeypatch):
        mkt = SCENARIO_ROW_MARKETS["bidask-3"]
        z = RandomVector.of([[-2, 0, 1], ["1/2", 1, "-1/2"], [0, "-3/2", 0]])
        x = RandomVector.of([[-1, "3/2", 2], [1, 2, "-1/2"], [2, "3/2", "-1/2"]])
        hull, m = SegmentHull(x.scale(-1), z), mkt.m
        normals = [n[m] for n, _, _ in ref_prune_rows([ref_row(h.normal, h.offset, h.strict)
                                                    for h in hull_rows_ref(mkt, hull, x, m)])]
        size = normals.count(0) + sum(c > 0 for c in normals) * sum(c < 0 for c in normals)
        monkeypatch.setattr(geometry, "FM_ROW_LIMIT", size)
        with mock.patch.object(measures, "eliminate") as stepwise:
            value = eval_acceptance(mkt, hull, x)
        assert not stepwise.called and value == stepwise_value(mkt, hull, x)
        monkeypatch.setattr(geometry, "FM_ROW_LIMIT", size - 1)
        with pytest.raises(WorkLimit, match=f"builds {size} rows, over {size - 1}$"):
            eval_acceptance(mkt, hull, x)

    @pytest.mark.parametrize("n", [8, 16])
    def test_values_off_the_facets_at_many_scenarios_meet_accepts(self, n):
        # a d = 3 bid-ask market (spread 3/2) with n scenarios: the rows these
        # hulls leave after the step are off the facets, and a Fourier-Motzkin
        # redundancy pass on them would build over FM_ROW_LIMIT rows.  The
        # value answers, and ``accepts``, which projects nothing, holds at each
        # of its vertices v and fails at v - delta a for each row a through v
        rng, delta = random.Random(7), Fraction(1, 1000)
        mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1, 2]},
                           "cone": {"bidask": [[1 if i == j else "3/2" for j in range(3)]
                                               for i in range(3)]}})

        def vector():
            return RandomVector.of([[f"{rng.randint(-8, 8)}/2" for _ in range(3)] for _ in range(n)])

        for shape in (Ray, Segment):
            hull, x = shape(vector()), vector()
            (piece,) = eval_acceptance(mkt, hull, x).pieces
            vertices = convert_rep(piece).vertices
            assert vertices
            for v in vertices:
                assert accepts(mkt, hull, mkt.add_eligible(x, v))
                for a, b in ((h.normal, h.offset) for h in piece.halfspaces):
                    if sum(c * e for c, e in zip(a, v)) == b:
                        out = tuple(c - delta * e for c, e in zip(v, a))
                        assert not accepts(mkt, hull, mkt.add_eligible(x, out))


@st.composite
def int_step_cases(draw):
    """A market of ``SCENARIO_ROW_MARKETS`` or a d = 3 bid-ask market of
    ``bidask_3_cases`` (mostly six facets in m = 3), a one-weight hull
    (``Segment``, ``Ray``, ``SegmentHull``, or one point and one ray) and a
    position, entries in halves: the rows of most such hulls leave the
    facets of K cap M after the step.  The d = 3 markets keep n <= 3: at
    n = 5 ``canonical_piece`` of such rows takes seconds."""
    if draw(st.booleans()):
        mkt, x, _ = draw(bidask_3_cases())
        assume(mkt.n <= 3)
    else:
        mkt, x = SCENARIO_ROW_MARKETS[draw(st.sampled_from(sorted(SCENARIO_ROW_MARKETS)))], None
    half = st.integers(-8, 8).map(lambda v: Fraction(v, 2))

    def vector():
        return RandomVector.of(draw(st.lists(st.lists(half, min_size=mkt.d, max_size=mkt.d),
                                             min_size=mkt.n, max_size=mkt.n)))

    y, z, x = vector(), vector(), x or vector()
    hull = draw(st.sampled_from((Segment(z), Ray(z), SegmentHull(y, z), Hull((y,), (z,)))))
    return mkt, hull, x


def _limit_message(step):
    """The WorkLimit message of ``step`` with no Fourier-Motzkin row allowed,
    None when it builds none."""
    with mock.patch.object(geometry, "FM_ROW_LIMIT", 0):
        try:
            step()
        except WorkLimit as exc:
            return str(exc)
    return None


class TestIntStep:
    """The one-weight value takes its Fourier-Motzkin step in ints; the
    ``Halfspace`` step it replaced (``project_rows_ref`` on the rows of
    ``hull_rows_ref``, then ``upper_set``) judges it."""

    @settings(max_examples=100, deadline=None)
    @given(int_step_cases())
    def test_int_step_is_the_halfspace_step(self, case):
        mkt, hull, x = case
        m = mkt.m
        ref_rows = hull_rows_ref(mkt, hull, x, m)
        rows = project_rows_ref(ref_rows, m + 1)
        ref = upper_set(m, () if rows is None else [Polyhedron(m, rows)], mkt.cone_in_m)
        got = eval_acceptance(mkt, hull, x)
        assert got == ref and got.canonical and got._cache == ref._cache
        # and apart from the offset parse both routes share: the rows' general path
        with mock.patch.object(geometry, "_offsets", return_value=None):
            general = upper_set(m, () if rows is None else [Polyhedron(m, rows)], mkt.cone_in_m)
        assert got.pieces == general.pieces
        assert _limit_message(lambda: eval_acceptance(mkt, hull, x)) == \
            _limit_message(lambda: project_rows_ref(ref_rows, m + 1))

    def test_rows_off_the_facets_take_the_row_route(self):
        # the half-integer segment of test_only_rows_off_the_facets_take_eliminate:
        # its int rows do not parse as offsets, so the value holds none
        mkt = SCENARIO_ROW_MARKETS["mkt-b"]
        z = RandomVector.of([[2, "-1/2"], ["1/2", "-1/2"], ["-1/2", "3/2"]])
        x = RandomVector.of([[0, "-3/2"], ["1/2", 2], [1, 2]])
        rows = geometry._project_rows([h.normal + (h.offset,) for h in
                                       hull_rows_ref(mkt, Segment(z), x, mkt.m)], mkt.m + 1)
        assert geometry._parse_offsets([rows], mkt.cone_in_m.halfspaces) is None
        assert eval_acceptance(mkt, Segment(z), x)._cache is None


@st.composite
def var_market_payoff_level(draw):
    """A market, a payoff and a level: 0, 1, or 1 - P(T) for a scenario set
    T, the boundary of goodness.  K cap M has at most two facet directions
    on every market but the d = 3 bid-ask ones, whose names start with
    'bidask-3'."""
    shape = draw(st.sampled_from(("mkt-a", "mkt-b", "bidask", "one-row", "orthant-plane",
                                  "bidask-3", "bidask-3-plane")))
    if shape in SCENARIO_ROW_MARKETS:
        mkt = SCENARIO_ROW_MARKETS[shape]
    else:
        n = draw(st.integers(1, 10 if shape == "bidask" else 6))
        weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
        doc = {"probs": [str(Fraction(w, sum(weights))) for w in weights]}
        if shape == "bidask":
            spreads = st.sampled_from(("5/4", "3/2", "2"))
            doc.update(d=2, cone={"bidask": [[1, draw(spreads)], [draw(spreads), 1]]},
                       subspace={"coords": [0, 1]})
        elif shape == "one-row":  # frictionless: one price vector
            doc.update(d=2, cone={"halfspaces": [[1, draw(st.integers(1, 3))]]},
                       subspace={"coords": [0, 1]})
        else:  # the orthant of R^3 with M a plane: two of three normals parallel
            doc.update(d=3, cone={"halfspaces": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                       subspace={"basis": draw(st.sampled_from(
                           ([[1, 0, 0], [0, 1, 1]], [[1, 1, 0], [0, 0, 2]], [[0, 1, 0], [1, 0, "1/2"]])))})
        mkt = load_market(doc)
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))
    x = RandomVector.of(draw(st.lists(st.lists(entry, min_size=mkt.d, max_size=mkt.d),
                                      min_size=mkt.n, max_size=mkt.n)))
    chosen = draw(st.lists(st.booleans(), min_size=mkt.n, max_size=mkt.n))
    boundary = 1 - sum((p for p, c in zip(mkt.space.probs, chosen) if c), Fraction(0))
    return shape, mkt, x, draw(st.sampled_from((Fraction(0), Fraction(1), boundary)))


def judge_by_predicate(mkt, x, kind, level, value, rng):
    """The value against the definitional predicate at its vertices and at
    probes around them and across the box [-40, 40]^m."""
    oracle = var_predicate(mkt, x, kind, level)
    vertices = [v for p in value.pieces for v in convert_rep(p).vertices]
    assert vertices
    # probes around the vertices fall on both sides of the boundary
    probes = [tuple(c + Fraction(rng.randint(-4, 4), 4) for c in v)
              for v in vertices for _ in range(4)]
    probes += [tuple(Fraction(rng.randint(-160, 160), 4) for _ in range(mkt.m))
               for _ in range(40)]
    assert all(oracle(v) for v in vertices)
    inside = [value.contains_point(u) for u in probes]
    assert set(inside) == {True, False}
    assert inside == [oracle(u) for u in probes]


class TestCornerPath:
    @settings(max_examples=150, deadline=None)
    @given(var_market_payoff_level())
    def test_same_document_as_enumeration(self, case):
        # weak V@R on more than two directions may split the same set into
        # other pieces than the enumeration's
        shape, mkt, x, level = case
        for kind in ("strong", "weak"):
            value = value_at_risk(mkt, kind, level, x)
            ref = upper_set(mkt.m, enumerated_pieces_ref(mkt, kind, level, x), mkt.cone_in_m)
            if kind == "weak" and shape.startswith("bidask-3"):
                assert sets_equal(value, ref)
            else:
                assert value.to_doc() == ref.to_doc()

    def test_offsets_past_the_limit_raise(self, monkeypatch):
        # the staircase x_i = (i, -i), n = 8: strong V@R at 3/4 collects 7 offsets
        n = 8
        plane = load_market({"d": 2, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1]},
                             "cone": {"bidask": [[1, "3/2"], ["3/2", 1]]}})
        stairs = RandomVector.of([[i, -i] for i in range(n)])
        monkeypatch.setattr(geometry, "VAR_OFFSET_LIMIT", 6)
        with pytest.raises(WorkLimit, match="collects 7 offsets, over 6"):
            value_at_risk(plane, "strong", Fraction(3, 4), stairs)
        monkeypatch.setattr(geometry, "VAR_OFFSET_LIMIT", 7)
        assert len(value_at_risk(plane, "strong", Fraction(3, 4), stairs).pieces) == 7

    def test_cone_without_rows(self):
        # no facet direction: every scenario is good at every u ('strong')
        # or at none ('weak', X + u always lies in -int K = R^d)
        mkt = load_market({"d": 2, "probs": ["1/2", "1/2"], "cone": {"halfspaces": []},
                           "subspace": {"coords": [0]}})
        x = RandomVector.of([[0, 0], [1, -1]])
        for kind in ("strong", "weak"):
            for level in (Fraction(0), Fraction(1, 2), Fraction(1)):
                ref = upper_set(1, enumerated_pieces_ref(mkt, kind, level, x), mkt.cone_in_m)
                assert value_at_risk(mkt, kind, level, x).to_doc() == ref.to_doc()

    def test_two_hundred_scenarios_without_enumeration(self):
        n, level, rng = 200, Fraction(1, 4), random.Random(11)
        plane = load_market({"d": 2, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1]},
                             "cone": {"bidask": [[1, "3/2"], ["3/2", 1]]}})
        x = RandomVector.of([[Fraction(rng.randint(-40, 40), rng.randint(1, 3)) for _ in range(2)]
                             for _ in range(n)])
        for kind in ("strong", "weak"):
            judge_by_predicate(plane, x, kind, level, value_at_risk(plane, kind, level, x), rng)
        # six facet directions: 2^20 scenario sets for strong V@R, and 6^6
        # row choices for each of the 28 minimal sets of weak V@R at n = 8
        for kind, n in (("strong", 20), ("weak", 8)):
            mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "cone": {"bidask": SPREAD_3},
                               "subspace": {"coords": [0, 1, 2]}})
            x = RandomVector.of([[Fraction(rng.randint(-40, 40), rng.randint(1, 3))
                                  for _ in range(3)] for _ in range(n)])
            start = time.process_time()
            value = value_at_risk(mkt, kind, level, x)
            assert time.process_time() - start < 1
            judge_by_predicate(mkt, x, kind, level, value, rng)
        # the staircase x_i = (i, -i): 151 minimal offsets at strong 3/4 and
        # at weak 1/4, none covering another
        stairs = RandomVector.of([[i, -i] for i in range(200)])
        for kind, level in (("strong", Fraction(3, 4)), ("weak", Fraction(1, 4))):
            start = time.process_time()
            value = value_at_risk(plane, kind, level, stairs)
            assert time.process_time() - start < 1
            assert len(value.pieces) == 151
            judge_by_predicate(plane, stairs, kind, level, value, rng)


# a three-asset bid-ask market: spread 5/4 where i + j is even, 3/2 elsewhere
SPREAD_5_4_3_2 = [[1 if i == j else "5/4" if (i + j) % 2 == 0 else "3/2" for j in range(3)]
                  for i in range(3)]


class TestSixFacetTiming:
    """V@R at n = 32 on six facet directions, whose pieces are compared by
    the local upper bounds of their offsets, each call in bounded CPU time;
    the values are judged by ``var_predicate``."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind, level, bound_s", [("weak", Fraction(1, 4), 1.5),
                                                      ("strong", Fraction(1, 2), 1.0)],
                             ids=["weak", "strong"])
    def test_thirty_two_scenarios(self, kind, level, bound_s, seed):
        n, rng = 32, random.Random(seed)
        mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "cone": {"bidask": SPREAD_5_4_3_2},
                           "subspace": {"coords": [0, 1, 2]}})
        x = RandomVector.of([[f"{rng.randint(-8, 8)}/2" for _ in range(3)] for _ in range(n)])
        start = time.process_time()
        value = value_at_risk(mkt, kind, level, x)
        assert time.process_time() - start < bound_s
        judge_by_predicate(mkt, x, kind, level, value, random.Random(seed))


# a d = 3 bid-ask market on the plane of the first two assets: its cone rows
# have the four directions (2, 3), (3, 2), (5, 6) and (6, 5) on M, and K cap M
# only the first two as facets
PLANE_3_DOC = {"d": 3, "probs": ["1/2", "1/4", "1/4"], "subspace": {"coords": [0, 1]},
               "cone": {"bidask": [[1, "3/2", "5/4"], ["3/2", 1, "3/2"], ["5/4", "3/2", 1]]}}


@st.composite
def offset_search_cases(draw, shapes=("bidask-3", "bidask-2", "zero-normal", "no-rows"),
                        max_n=16):
    """(market, payoff, kind, level) for the offset search: bid-ask markets
    with d = 3 (six facet directions) or d = 2 and spreads from {5/4, 3/2,
    2}, the orthant of R^3 with M a plane of the first two axes (e_3 has a
    zero M-normal), and the cone without rows; on request also the market
    of ``PLANE_3_DOC``, d = 3 bid-ask markets on a subspace with a non-axis
    basis ('basis'), and mkt-a with its probabilities; uneven probabilities
    elsewhere, n <= max_n; levels 0, 1, 1 - P(T) for a scenario set T, and
    others."""
    shape, kind = draw(st.sampled_from([(s, k) for s in shapes for k in ("strong", "weak")]))
    n = draw(st.integers(1, max_n if shape.startswith("bidask") else min(max_n, 6)))
    weights = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    doc = {"probs": [str(Fraction(w, sum(weights))) for w in weights]}
    spread = st.sampled_from(("5/4", "3/2", "2"))
    if shape.startswith("bidask") or shape == "basis":
        d = 3 if shape == "basis" else int(shape[-1])
        doc.update(d=d, cone={"bidask": [[1 if i == j else draw(spread) for j in range(d)]
                                         for i in range(d)]},
                   subspace={"coords": list(range(d))} if shape != "basis" else
                   {"basis": draw(st.sampled_from(([[1, 1, 0], [0, 1, 1]], [[2, 1, 1]],
                                                   [[1, "1/2", 0], [0, -1, 2]])))})
    elif shape == "plane-3":
        doc.update({k: v for k, v in PLANE_3_DOC.items() if k != "probs"})
    elif shape == "mkt-a":
        doc = MARKET_DOCS["mkt-a"]
        n = len(doc["probs"])
    elif shape == "zero-normal":
        doc.update(d=3, cone={"halfspaces": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                   subspace={"basis": draw(st.sampled_from(
                       ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, "1/2", 0]])))})
    else:
        doc.update(d=2, cone={"halfspaces": []},
                   subspace={"coords": draw(st.sampled_from(([0], [0, 1])))})
    mkt = load_market(doc)
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 3))
    x = RandomVector.of(draw(st.lists(st.lists(entry, min_size=mkt.d, max_size=mkt.d),
                                      min_size=n, max_size=n)))
    chosen = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    boundary = 1 - sum((p for p, c in zip(mkt.space.probs, chosen) if c), Fraction(0))
    level = draw(st.sampled_from((Fraction(0), Fraction(1), boundary))
                 | st.fractions(Fraction(1, 24), Fraction(23, 24), max_denominator=24))
    return mkt, x, kind, level


def six_facet_case(seed):
    """The market and payoff of ``TestSixFacetTiming`` at ``seed``."""
    n, rng = 32, random.Random(seed)
    mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "cone": {"bidask": SPREAD_5_4_3_2},
                       "subspace": {"coords": [0, 1, 2]}})
    return mkt, RandomVector.of([[f"{rng.randint(-8, 8)}/2" for _ in range(3)] for _ in range(n)])


# mkt-a, mkt-b, a d = 3 bid-ask market on a coordinate plane (four cone
# directions on M, two of them facets) and one with six facets in m = 3
ONE_POINT_MARKETS = (market("mkt-a"), market("mkt-b"), load_market(PLANE_3_DOC),
                     load_market(THREE_ASSET_DOC))


@st.composite
def few_mixing_hulls(draw):
    """A market of ONE_POINT_MARKETS, a hull with at most one mixing variable
    (one point, one point and a ray, or two points), entries in halves from
    -2 to 2, and a position; half the positions are a hull point plus a
    nonnegative constant, so accepted."""
    mkt = draw(st.sampled_from(ONE_POINT_MARKETS))

    def vector(low=-4):
        return RandomVector.of([[Fraction(draw(st.integers(low, 4)), 2) for _ in range(mkt.d)]
                                for _ in range(mkt.n)])

    points, rays = draw(st.sampled_from(((1, 0), (1, 1), (2, 0))))
    hull = Hull(tuple(vector() for _ in range(points)), tuple(vector() for _ in range(rays)))
    x = vector()
    if draw(st.booleans()):
        x = draw(st.sampled_from(hull.points)).add_constant(vector(0).values[0])
    return mkt, hull, x


class TestFewMixingVariables:
    """A hull with no mixing variable is valued as the worst case at X - p0,
    and one with at most one is decided by the interval left for its weight
    (``geometry._interval``); an oracle that shares no code with either
    route judges both."""

    @settings(max_examples=60, deadline=None)
    @given(few_mixing_hulls())
    def test_dominance_value_is_the_reference_worst_case(self, case):
        mkt, hull, x = case
        z = hull.points[0]
        assert (eval_acceptance(mkt, DominanceAt(z), x).to_doc()
                == worst_case_ref(mkt, x.sub(z)).to_doc())

    @settings(max_examples=60, deadline=None)
    @given(few_mixing_hulls())
    def test_membership_is_the_reference_elimination(self, case):
        mkt, hull, x = case
        ref = hull_accepts_ref(mkt.cone.halfspaces, x.values, [p.values for p in hull.points],
                               [r.values for r in hull.rays])
        assert accepts(mkt, hull, x) == ref
        assert eval_acceptance(mkt, hull, x).contains_point((0,) * mkt.m) == ref

    def test_no_projection_below_two_mixing_variables(self, monkeypatch):
        mkt = load_market(THREE_ASSET_DOC)
        hull, x = three_asset_hull(2, 0, 1)
        monkeypatch.setattr(measures, "eliminate", None)
        accepts(mkt, hull, x)
        accepts(mkt, Hull(hull.points[:1], hull.points[1:]), x)
        accepts(mkt, DominanceAt(hull.points[0]), x)
        assert eval_acceptance(mkt, DominanceAt(hull.points[0]), x) == worst_case(
            mkt, x.sub(hull.points[0]))

    def test_two_weight_value_on_the_facets_is_parsed_not_stored(self, mkt_b,
                                                                 var_fixture_position):
        # rays in K add nothing, so the value is the worst case at X - p0: one
        # piece on the facets of K cap M, which eliminate builds as rows alone
        x, p0 = var_fixture_position, RandomVector.of([[1, -1], [0, 2], ["1/2", 0]])
        rays = (RandomVector.constant(3, ["1", "1"]), RandomVector.constant(3, ["2", "1"]))
        value = eval_acceptance(mkt_b, Hull((p0,), rays), x)
        assert value.canonical and len(value.pieces) == 1 and value._cache is None
        assert geometry._offsets(value) is not None and value._cache is None
        assert sets_equal(value, upper_set(mkt_b.m, value.pieces, mkt_b.cone_in_m))
        assert sets_equal(value, worst_case(mkt_b, x.sub(p0)))

    def test_mis_shaped_point_names_the_hull(self, mkt_b, var_fixture_position):
        short = RandomVector.of([["1", "0"]])
        with pytest.raises(ShapeMismatch, match="hull is 1x2, market expects 3x2"):
            eval_acceptance(mkt_b, DominanceAt(short), var_fixture_position)

    @pytest.mark.parametrize("points, rays", [(1, 0), (2, 0), (2, 1)], ids=["k0", "k1", "k2"])
    @pytest.mark.parametrize("n, d", [(1, 2), (3, 3)], ids=["fewer-scenarios", "more-assets"])
    def test_hull_that_misfits_the_market_is_named(self, mkt_b, var_fixture_position,
                                                   points, rays, n, d):
        # the hull's dot products would stop at the shorter of two rows, and
        # its scenarios at the fewer: only the shape check rejects a misfit
        rows = [[Fraction(i + j, 2) for j in range(d)] for i in range(n)]
        hull = Hull((RandomVector.of(rows),) * points, (RandomVector.of(rows),) * rays)
        for route in (accepts, eval_acceptance):
            with pytest.raises(ShapeMismatch, match=f"hull is {n}x{d}, market expects 3x2"):
                route(mkt_b, hull, var_fixture_position)


class TestPrunedOffsetSearch:
    """``_var_offsets`` prunes its search to offsets that can be minimal; the
    unpruned recursion, ``oracles.var_offsets_ref``, judges what it keeps."""

    @settings(max_examples=200, deadline=None)
    @given(offset_search_cases())
    def test_minimal_offsets_of_the_full_recursion(self, case):
        mkt, x, kind, level = case
        _, found = var_offsets_ref(mkt, kind, level, x)
        # the same offsets in the same order, int over one scale
        zs, scale = measures._var_offsets(mkt, kind, level, x)
        assert [tuple(t if t is None else Fraction(t, scale) for t in z)
                for z in zs] == _minimal_offsets(found)

    @settings(max_examples=60, deadline=None)
    @given(offset_search_cases(shapes=("bidask-3",), max_n=6))
    def test_six_directions_against_enumeration(self, case):
        mkt, x, kind, level = case
        pieces = enumerated_pieces_ref(mkt, kind, level, x)
        # weak V@R enumerates up to 6^|T| row choices per good set T
        assume(len(pieces) <= 300)
        ref = upper_set(mkt.m, pieces, mkt.cone_in_m)
        assert sets_equal(value_at_risk(mkt, kind, level, x), ref)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("kind, level", [("weak", Fraction(1, 4)), ("strong", Fraction(1, 2))],
                             ids=["weak", "strong"])
    def test_few_offsets_beyond_the_minimal(self, monkeypatch, kind, level, seed):
        # the unpruned recursion collects 12,736-107,315 offsets on these
        # markets and keeps 2-101 of them
        counts, minimal = [], measures._minimal_offsets

        def counted(found):
            kept = minimal(found)
            counts.append((len(found), len(kept)))
            return kept

        mkt, x = six_facet_case(seed)
        monkeypatch.setattr(measures, "_minimal_offsets", counted)
        measures._var_offsets(mkt, kind, level, x)
        [(collected, kept)] = counts
        assert kept <= collected <= 2 * kept


class TestOffsetCanonicalForm:
    def test_no_canonical_piece_after_the_market_loads(self, monkeypatch):
        # on six facet directions, wc and both V@R kinds canonicalize their
        # offset pieces with no Fourier-Motzkin redundancy pass
        n, rng = 8, random.Random(2)
        mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "cone": {"bidask": SPREAD_5_4_3_2},
                           "subspace": {"coords": [0, 1, 2]}})
        x = RandomVector.of([[f"{rng.randint(-8, 8)}/2" for _ in range(3)] for _ in range(n)])
        calls, canonical_piece = [], geometry.canonical_piece
        monkeypatch.setattr(geometry, "canonical_piece", lambda p: (
            calls.append(p), canonical_piece(p))[1])
        values = [worst_case(mkt, x), value_at_risk(mkt, "strong", Fraction(1, 2), x),
                  value_at_risk(mkt, "weak", Fraction(1, 4), x)]
        assert calls == []
        assert [len(v.pieces) > 1 for v in values] == [False, True, True]


def general_value(mkt, x, kind, level):
    """The wc ('wc') or V@R value by the general path of ``canonicalize``, with
    ``_offsets`` patched to None: the worst case from its scenario rows, V@R
    from the pieces {D_k . u >= z_k} of the unpruned recursion's minimal
    Fraction offsets, built by ``hs``."""
    with mock.patch.object(geometry, "_offsets", lambda a: None):
        if kind == "wc":
            return worst_case_ref(mkt, x)
        dirs, found = var_offsets_ref(mkt, kind, level, x)
        pieces = [Polyhedron(mkt.m, tuple(hs(d, t) for d, t in zip(dirs, z) if t is not None))
                  for z in _minimal_offsets(found)]
        return upper_set(mkt.m, pieces, mkt.cone_in_m)


def measure_value(mkt, x, kind, level):
    return worst_case(mkt, x) if kind == "wc" else value_at_risk(mkt, kind, level, x)


class TestOffsetBuilder:
    """wc and V@R values are built once, from their int offsets; the general
    path judges them byte for byte."""

    @settings(max_examples=250, deadline=None)
    @given(offset_search_cases(shapes=("bidask-2", "bidask-3", "plane-3", "basis", "mkt-a",
                                       "zero-normal", "no-rows"), max_n=6))
    def test_same_document_as_the_general_path(self, case):
        mkt, x, kind, level = case
        for kind in ("wc", kind):
            got = json.dumps(measure_value(mkt, x, kind, level).to_doc())
            assert got == json.dumps(general_value(mkt, x, kind, level).to_doc())

    def test_directions_that_are_not_facets_take_the_general_path(self):
        # offsets taken as they are would add a row of direction (6, 5) to the
        # wc and strong V@R pieces and a piece to weak V@R, all redundant
        mkt = load_market(PLANE_3_DOC)
        x = RandomVector.of([[-1, -1, 1], [-2, 0, 2], [0, -4, "1/2"]])
        assert _table(mkt).dirs == [(2, 3), (3, 2), (5, 6), (6, 5)]
        assert mkt.cone_in_m.halfspaces == ((2, 3), (3, 2))
        for kind in ("wc", "strong", "weak"):
            value = measure_value(mkt, x, kind, Fraction(1, 4))
            assert value.to_doc() == general_value(mkt, x, kind, Fraction(1, 4)).to_doc()

    def test_covered_pieces_drop_by_their_known_offsets(self):
        # six facet directions: 15 minimal offsets of weak V@R, 10 pieces kept
        n, rng = 4, random.Random(1)
        mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n, "cone": {"bidask": SPREAD_5_4_3_2},
                           "subspace": {"coords": [0, 1, 2]}})
        x = RandomVector.of([[f"{rng.randint(-8, 8)}/2" for _ in range(3)] for _ in range(n)])
        level = Fraction(1, 2)
        value = value_at_risk(mkt, "weak", level, x)
        assert (len(measures._var_offsets(mkt, "weak", level, x)[0]), len(value.pieces)) == (15, 10)
        assert value.to_doc() == general_value(mkt, x, "weak", level).to_doc()

    def test_one_build_per_value_on_a_simplicial_market(self, monkeypatch):
        # the offsets go from the V@R search through upper_set to canonicalize,
        # which reads the held tuple itself through _offsets: no parse and no
        # minimal filter outside the search
        n = 40
        plane = load_market({"d": 2, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1]},
                             "cone": {"bidask": [[1, "3/2"], ["3/2", 1]]}})
        cases = [(market("mkt-b"), position("var-fixture")),
                 (plane, RandomVector.of([[i, -i] for i in range(n)]))]
        ops = [("wc", None), ("strong", Fraction(1, 4)), ("weak", Fraction(1, 2)),
               ("strong", Fraction(3, 4))]
        expected = [measure_value(mkt, x, kind, level) for mkt, x in cases for kind, level in ops]
        calls, held = [], []

        for module, name in ((geometry, "_minimal_offsets"), (measures, "_minimal_offsets"),
                             (measures, "upper_set"), (geometry, "canonicalize")):
            monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name),
                                tag=f"{module.__name__}.{name}": calls.append(tag) or real(*args))
        offsets = geometry._offsets

        def read(a):
            calls.append("svrisk.geometry._offsets")
            held.append((a._cache, offsets(a)))
            return held[-1][1]
        monkeypatch.setattr(geometry, "_offsets", read)
        values = []
        for mkt, x in cases:
            for kind, level in ops:
                calls.clear()
                values.append(measure_value(mkt, x, kind, level))
                search = [] if kind == "wc" else ["svrisk.measures._minimal_offsets"]
                assert calls == search + ["svrisk.measures.upper_set", "svrisk.geometry.canonicalize",
                                          "svrisk.geometry._offsets"]
        assert len(held) == len(values) and all(c is not None and got is c for c, got in held)
        assert values == expected
        assert [len(v.pieces) for v in values[len(ops):]] == [1, 11, 21, 31]


class TestWorstCaseByDirection:
    @settings(max_examples=150, deadline=None)
    @given(var_market_payoff_level())
    def test_same_document_as_scenario_rows(self, case):
        _, mkt, x, _ = case
        assert worst_case(mkt, x).to_doc() == worst_case_ref(mkt, x).to_doc()

    @pytest.mark.parametrize("rows, empty", [
        ([["-1", "0"], ["0", "-2"]], True),  # the zero-normal row fails in both
        ([["0", "1"], ["1", "-1"]], True),  # and in one
        ([["0", "1"], ["-3", "1/2"]], False),
        ([["0", "0"], ["0", "0"]], False),
    ])
    def test_zero_normal_row_on_mkt_a(self, mkt_a, rows, empty):
        x = RandomVector.of(rows)
        value = worst_case(mkt_a, x)
        assert value.is_empty() == empty
        assert value.to_doc() == worst_case_ref(mkt_a, x).to_doc()


@st.composite
def zero_normal_cases(draw):
    """The orthant of R^3 with M a plane of the first two axes, so the row
    e_3 has a zero M-normal, and a payoff; shaped like the cases of
    ``var_market_payoff_level``."""
    n = draw(st.integers(1, 5))
    mkt = load_market({"d": 3, "probs": [f"1/{n}"] * n,
                       "cone": {"halfspaces": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]},
                       "subspace": {"basis": draw(st.sampled_from(
                           ([[1, 0, 0], [0, 1, 0]], [[1, 1, 0], [0, "1/2", 0]])))}})
    entry = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 5))
    x = RandomVector.of(draw(st.lists(st.lists(entry, min_size=3, max_size=3),
                                      min_size=n, max_size=n)))
    return "zero-normal", mkt, x, None


class TestThresholds:
    """``_thresholds`` reads the position's int rows against int rows kept
    per market; ``oracles.thresholds_ref`` computes the same bounds one cone
    row at a time in Fractions."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(var_market_payoff_level(), zero_normal_cases()))
    def test_same_thresholds_as_fraction_rows(self, case):
        _, mkt, x, _ = case
        for strong in (True, False):
            dirs, scale, cols, oks = measures._thresholds(mkt, x, strong)
            assert all(type(t) is int for col in cols for t in col)
            assert [len(col) for col in cols] == [mkt.n] * len(dirs) and len(oks) == mkt.n
            got = [([Fraction(col[i], scale) for col in cols], ok) for i, ok in enumerate(oks)]
            assert (dirs, got) == thresholds_ref(mkt, x, strong)

    def test_worst_case_builds_no_fraction_per_scenario(self, monkeypatch):
        # 20 and 200 scenarios cycling through the same 12 rows have the same
        # value; the Fractions one call builds do not grow with n
        new, made, values = Fraction.__new__, [], []

        def counting(cls, *args, **kwargs):
            made.append(cls)
            return new(cls, *args, **kwargs)

        for n in (20, 200):
            mkt = load_market({"d": 2, "probs": [f"1/{n}"] * n, "subspace": {"coords": [0, 1]},
                               "cone": {"bidask": [[1, "3/2"], ["3/2", 1]]}})
            x = RandomVector.of([[Fraction(-1, 2 + i % 4), Fraction(i % 3, 7)] for i in range(n)])
            monkeypatch.setattr(Fraction, "__new__", counting)
            values.append((worst_case(mkt, x).to_doc(), len(made)))
            monkeypatch.undo()
            made.clear()
        assert values[0] == values[1]


class TestNormalsPerMarket:
    def test_computed_once_per_market(self, monkeypatch):
        # one table per market, built at its first use
        built, table = [], measures._Table
        monkeypatch.setattr(measures, "_Table", lambda mkt: (built.append(mkt), table(mkt))[1])
        markets = [load_market(MARKET_DOCS["mkt-b"]), load_market(MARKET_DOCS["mkt-b"])]
        x = position("var-fixture")
        ops = (WorstCase(), VaRStrong(Fraction(1, 4)), VaRWeak(Fraction(1, 2)),
               OfAcceptance(Segment(x)), OfAcceptance(Hull((x, x.scale(2)), (x,))))
        values = [eval_measure(markets[0], r, x) for r in ops * 3]
        assert [id(m) for m in built] == [id(markets[0])]
        # an equal market is another object and builds its own
        assert [eval_measure(markets[1], r, x) for r in ops] == values[:len(ops)]
        assert [id(m) for m in built] == [id(m) for m in markets]
        # besides its fields, a market holds its table alone
        assert all(set(m.__dict__) - set(fields(m)) == {"_table"} for m in markets)

    def test_market_record_unchanged(self):
        mkt = load_market(MARKET_DOCS["mkt-b"])
        before = (repr(mkt), hash(mkt), pickle.dumps(mkt))
        eval_measure(mkt, WorstCase(), position("var-fixture"))
        assert (repr(mkt), hash(mkt), pickle.dumps(mkt)) == before
        fresh = load_market(MARKET_DOCS["mkt-b"])
        assert mkt == fresh and hash(mkt) == hash(fresh)
        for twin in (copy.copy(mkt), copy.deepcopy(mkt), pickle.loads(pickle.dumps(mkt))):
            assert twin == mkt and repr(twin) == repr(mkt) and hash(twin) == hash(mkt)


def numbers_in(obj):
    """Every numeric leaf of a result: tuples, dicts and record fields."""
    names = fields(obj)
    if names is not None:
        for name in names:
            yield from numbers_in(getattr(obj, name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from numbers_in(item)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from numbers_in(item)
    elif not isinstance(obj, str) and obj is not None:
        yield obj


def doc_leaves(doc):
    if isinstance(doc, (list, dict)):
        for item in doc.values() if isinstance(doc, dict) else doc:
            yield from doc_leaves(item)
    else:
        yield doc


class TestNoFloats:
    """Results hold ints and Fractions only; documents carry p/q strings."""

    MEASURES = (WorstCase(), VaRStrong(Fraction(1, 4)), VaRWeak(Fraction(1, 4)))

    def check_exact(self, result):
        leaves = list(numbers_in(result))
        assert leaves
        bad = [v for v in leaves if type(v) not in (int, bool, Fraction)]
        assert not bad, bad

    def check_value(self, value):
        self.check_exact(value)
        for text in doc_leaves(value.to_doc()):
            assert type(text) is str and "." not in text and "e" not in text, text
        for piece in value.pieces:
            self.check_exact(convert_rep(piece))
            point = feasible_point(piece.strictified_rows(), piece.dim)
            assert point is not None
            self.check_exact(point)

    @pytest.mark.parametrize("measure", MEASURES, ids=("wc", "var-strong", "var-weak"))
    def test_values_on_both_markets(self, mkt_a, mkt_b, wc_fixture_position,
                                    var_fixture_position, measure):
        for mkt, x in ((mkt_a, wc_fixture_position), (mkt_b, var_fixture_position)):
            self.check_value(eval_measure(mkt, measure, x))

    @pytest.mark.parametrize("measure", MEASURES, ids=("wc", "var-strong", "var-weak"))
    def test_one_dimensional_fixture(self, mkt_1d, measure):
        x = RandomVector.of([["-3"], ["1/2"]])
        value = eval_measure(mkt_1d, measure, x)
        self.check_value(value)
        assert sets_equal(value, half_line(mkt_1d, 3))


class TestScalarize:
    """At d = m = 1 a value is the half-line u >= rho(X) of a scalar risk
    measure rho, or the whole line; these pin rho through eval_measure."""

    def test_worst_loss(self, mkt_1d):
        x = RandomVector.of([["-3"], ["2"]])
        assert sets_equal(eval_measure(mkt_1d, WorstCase(), x), half_line(mkt_1d, 3))

    def test_cash_additivity(self, mkt_1d):
        x = RandomVector.of([["-3"], ["2"]])
        shifted = x.add_constant(["5/2"])
        value = eval_measure(mkt_1d, WorstCase(), x)
        value_shifted = eval_measure(mkt_1d, WorstCase(), shifted)
        assert sets_equal(value_shifted, translate_set(value, (Fraction(-5, 2),)))
        assert sets_equal(value_shifted, half_line(mkt_1d, Fraction(1, 2)))

    def test_star_shaped_scalarization(self, mkt_1d):
        # rho(tX) <= t rho(X): the value at tX holds t times the value at X
        x = RandomVector.of([["-4"], ["1"]])
        value = eval_measure(mkt_1d, WorstCase(), x)
        for t in (Fraction(1, 4), Fraction(1, 2), Fraction(7, 8)):
            scaled = eval_measure(mkt_1d, WorstCase(), x.scale(t))
            assert is_subset(scale_set(t, value), scaled)
            assert sets_equal(scaled, half_line(mkt_1d, 4 * t))

    def test_values_are_never_empty(self, mkt_1d):
        # every leaf value on a d = 1 market is a nonempty half-line, so
        # their intersections are too
        expr = MeasureIntersection((WorstCase(),
                                    Shift(WorstCase(), PortfolioVector.of(["1"])),))
        x = RandomVector.of([["0"], ["0"]])
        assert sets_equal(eval_measure(mkt_1d, expr, x), half_line(mkt_1d, 0))
        assert sets_equal(eval_measure(mkt_1d, WorstCase(), x), half_line(mkt_1d, 0))

    def test_whole_line_and_union(self, mkt_1d):
        x = RandomVector.of([["-3"], ["2"]])
        whole = upper_set(1, (Polyhedron(1, ()),), mkt_1d.cone_in_m)
        assert sets_equal(eval_measure(mkt_1d, VaRStrong(1), x), whole)
        union = MeasureUnion((WorstCase(), Shift(WorstCase(), PortfolioVector.of(["1"]))))
        assert sets_equal(eval_measure(mkt_1d, union, x), half_line(mkt_1d, 2))


class TestDocuments:
    def test_measure_doc_round_trip(self, mkt_b):
        expr = ConvexCombo(
            Fraction(1, 2),
            MeasureUnion((WorstCase(), VaRStrong(Fraction(1, 4)))),
            Translate(OfAcceptance(Segment(RandomVector.constant(3, ["1", "0"]))),
                      RandomVector.constant(3, ["0", "1"])))
        doc = measure_to_doc(expr)
        assert measure_from_doc(doc) == expr

    def test_shorthand_var_doc(self):
        expr = measure_from_doc({"var": {"kind": "strong", "level": "1/4"}})
        assert expr == VaRStrong(Fraction(1, 4))

    @pytest.mark.parametrize("doc, message", [
        ({"wc": {}, "var": {"kind": "weak", "level": "1/4"}}, "bad node at measure: "),
        (["wc"], "bad node at measure: ['wc']"),
        ({"cvar": {}}, "unknown node at measure: 'cvar'"),
        ({"union": [{"wc": {}}, {"cvar": {}}]}, "unknown node at measure.union[1]: 'cvar'"),
    ])
    def test_bad_and_unknown_nodes_name_their_path(self, doc, message):
        with pytest.raises(MalformedDocument) as err:
            measure_from_doc(doc)
        assert str(err.value).startswith(message)

    @pytest.mark.parametrize("doc, path", [
        ({"union": ["wc", {"var": {"kind": "weak", "level": "5/4"}}]}, "measure.union[1].var"),
        ({"convex_combo": {"weight": "2", "left": "wc", "right": "wc"}}, "measure.convex_combo"),
        ({"shift": {"inner": {"convex_combo": {"weight": "-1", "left": "wc", "right": "wc"}},
                    "u": ["0", "0"]}}, "measure.shift.inner.convex_combo"),
    ])
    def test_a_bad_level_names_its_node_once(self, doc, path):
        with pytest.raises(BadLevel) as err:
            measure_from_doc(doc)
        assert str(err.value).startswith(f"bad {path.rpartition('.')[2]!r} node at {path}: ")
        assert str(err.value).count(" node at ") == 1


class TestParts:
    @pytest.mark.parametrize("record", [MeasureUnion, MeasureIntersection, AccUnion,
                                        AccIntersection])
    def test_empty_parts_are_rejected_when_built(self, record):
        with pytest.raises(ValueError, match="needs at least one part"):
            record(())
        assert record([WorstCase()]).parts == (WorstCase(),)

    def test_an_empty_member_list_is_rejected_before_evaluation(self, mkt_b):
        with pytest.raises(ValueError, match="needs at least one part"):
            esssup_bridge(mkt_b, [], SampleBudget(5, 0))


README = Path(__file__).resolve().parents[1] / "README.md"
_X = RandomVector.constant(3, ["1", "-1/2"])
_Y = RandomVector.constant(3, ["0", "2"])
_ZERO = RandomVector.zero(3, 2)
# every document key at least once, and both V@R kinds
ROUND_TRIP_MEASURES = [
    WorstCase(), VaRWeak(Fraction(1, 4)), VaRStrong(Fraction(1, 3)),
    OfAcceptance(DominanceAt(_X)), Translate(WorstCase(), _Y),
    Shift(VaRWeak(Fraction(1, 2)), PortfolioVector.of(["1/2", "-1"])),
    MeasureUnion((WorstCase(), VaRStrong(0))),
    MeasureIntersection((VaRWeak(1), WorstCase())),
    ConvexCombo(Fraction(1, 2), WorstCase(), VaRWeak(Fraction(1, 4))),
]
ROUND_TRIP_ACCEPTANCES = [
    DominanceAt(_X), Segment(_X), Ray(_Y), SegmentHull(_X, _Y),
    Hull((_ZERO, _X, _Y), (_Y,)), OfMeasure(VaRWeak(Fraction(1, 4))),
    AccUnion((Segment(_X), OfMeasure(WorstCase()))),
    AccIntersection((Ray(_X), DominanceAt(_Y))),
]


class TestDocumentRoundTrip:
    def test_every_node_key_is_printed(self):
        assert ({next(iter(measure_to_doc(e))) for e in ROUND_TRIP_MEASURES}
                == set(measures._MEASURE_PARSERS))
        assert ({next(iter(acceptance_to_doc(a))) for a in ROUND_TRIP_ACCEPTANCES}
                == set(measures._ACCEPTANCE_PARSERS))

    @pytest.mark.parametrize("expr", ROUND_TRIP_MEASURES, ids=lambda e: next(iter(measure_to_doc(e))))
    def test_measure_round_trip(self, expr):
        assert measure_from_doc(measure_to_doc(expr)) == expr

    @pytest.mark.parametrize("acc", ROUND_TRIP_ACCEPTANCES,
                             ids=lambda a: next(iter(acceptance_to_doc(a))))
    def test_acceptance_round_trip(self, acc):
        assert acceptance_from_doc(acceptance_to_doc(acc)) == acc

    def test_readme_grammar_is_the_node_table(self):
        # the node kinds listed in README are the keys of the two tables, and
        # its convex_combo example prints back to itself
        text = README.read_text()
        kinds = text[text.index("Node kinds:"):]
        on_measures, on_acceptances = kinds[:kinds.index(".\n")].split("acceptance nodes:")
        assert re.findall(r"`(\w+)`", on_measures) == list(measures._MEASURE_PARSERS)
        assert re.findall(r"`(\w+)`", on_acceptances) == list(measures._ACCEPTANCE_PARSERS)
        example = text[text.index('{"convex_combo"'):]
        doc = json.loads(example[:example.index("```")])
        assert json.dumps(measure_to_doc(measure_from_doc(doc))) == json.dumps(doc)

    def test_weak_and_strong_var_print_apart(self):
        weak, strong = (measure_to_doc(e) for e in ROUND_TRIP_MEASURES[1:3])
        assert (weak["var"]["kind"], strong["var"]["kind"]) == ("weak", "strong")


class TestVaRRecord:
    def test_one_record_for_both_kinds(self):
        assert VaRWeak("1/4") == VaR("weak", Fraction(1, 4)) != VaRStrong("1/4")
        assert type(VaRWeak(0)) is type(VaRStrong(0)) is VaR

    @pytest.mark.parametrize("kind, level", [("medium", "1/4"), ("Weak", "1/4"),
                                             ("strong", "5/4"), ("weak", "-1")])
    def test_both_fields_are_checked(self, mkt_b, var_fixture_position, kind, level):
        with pytest.raises(BadLevel):
            VaR(kind, level)
        with pytest.raises(BadLevel):
            value_at_risk(mkt_b, kind, level, var_fixture_position)

    @pytest.mark.parametrize("kind, level", [("medium", "1/4"), ("strong", "5/4"), ("weak", "-1")])
    def test_evaluation_builds_no_record(self, mkt_b, var_fixture_position, kind, level,
                                         monkeypatch):
        # value_at_risk checks kind and level as the record does, with its errors
        with pytest.raises(BadLevel) as by_record:
            VaR(kind, level)
        monkeypatch.setattr(measures, "VaR", None)
        with pytest.raises(BadLevel) as by_call:
            value_at_risk(mkt_b, kind, level, var_fixture_position)
        assert str(by_call.value) == str(by_record.value)
        assert not value_at_risk(mkt_b, "weak", "1/4", var_fixture_position).is_empty()

    def test_a_bad_kind_in_a_document_is_malformed(self):
        with pytest.raises(MalformedDocument, match=r"measure\.var\.kind must be"):
            measure_from_doc({"var": {"kind": "medium", "level": "1/4"}})
