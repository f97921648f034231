"""Law-checker behaviour: verdicts, witnesses, determinism, re-checking."""

import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from svrisk import _sampling
from svrisk.errors import BadBudget, EmptyBaseSet, UnknownDirection, UnknownLaw
from svrisk.fixtures import market
from svrisk.geometry import convert_rep
from svrisk.laws import (
    _LAWS,
    _Law,
    _run,
    ACCEPTANCE_LAWS,
    LawReport,
    SampleBudget,
    check_acceptance_law,
    check_correspondence,
    check_measure_law,
    check_star_at,
    recheck_witness,
)
from svrisk.measures import (
    AccIntersection,
    DominanceAt,
    MeasureExpr,
    OfAcceptance,
    OfMeasure,
    Ray,
    Segment,
    Shift,
    VaRStrong,
    WorstCase,
    accepts,
    worst_case,
)
from svrisk.scenario import PortfolioVector, RandomVector, load_market

from oracles import (
    cone_position_ref,
    drift_ref,
    dyadic_gt1_ref,
    dyadic_in_01_ref,
    eligible_ref,
    km_point_ref,
    neg_interior_point_ref,
    position_ref,
)

BUDGET = SampleBudget(count=60, seed=11)


class TestMeasureLaws:
    @pytest.mark.parametrize("law", ["R1", "R2", "R3", "R4", "R5", "R6",
                                     "subadditive", "R6equiv_shrink",
                                     "R6equiv_tgeq1", "lemma_KM_in_R0",
                                     "convex_implies_star", "sub_star_implies_ph"])
    def test_worst_case_passes_everything(self, mkt_a, law):
        report = check_measure_law(mkt_a, WorstCase(), law, BUDGET)
        assert report.passed, report.witness

    def test_var_strong_fails_convexity_with_witness(self, mkt_b):
        report = check_measure_law(mkt_b, VaRStrong(Fraction(1, 4)), "R4", BUDGET)
        assert not report.passed
        assert report.witness is not None
        assert recheck_witness(mkt_b, VaRStrong(Fraction(1, 4)), report)

    def test_var_strong_passes_the_rest(self, mkt_b):
        for law in ("R1", "R2", "R3", "R5", "R6"):
            report = check_measure_law(mkt_b, VaRStrong(Fraction(1, 4)), law, BUDGET)
            assert report.passed, (law, report.witness)

    def test_var_weak_same_profile(self, mkt_b):
        from svrisk.measures import VaRWeak
        weak = VaRWeak(Fraction(1, 4))
        small = SampleBudget(count=40, seed=11)
        for law in ("R1", "R2", "R3", "R5", "R6"):
            report = check_measure_law(mkt_b, weak, law, small)
            assert report.passed, (law, report.witness)

    def test_interior_shift_fails_star_shapedness(self, mkt_a):
        shifted = Shift(WorstCase(), PortfolioVector.of(["-1", "0"]))
        report = check_measure_law(mkt_a, shifted, "R6", BUDGET)
        assert not report.passed
        assert recheck_witness(mkt_a, shifted, report)

    def test_interior_shift_fails_normalization(self, mkt_a):
        shifted = Shift(WorstCase(), PortfolioVector.of(["-1", "0"]))
        report = check_measure_law(mkt_a, shifted, "R3", BUDGET)
        assert not report.passed

    def test_outward_shift_is_star_but_not_normalized(self, mkt_a):
        # WC(X) - c with c in K cap M keeps 0 in R(0), stays star-shaped
        shifted = Shift(WorstCase(), PortfolioVector.of(["1", "0"]))
        assert check_measure_law(mkt_a, shifted, "R6", BUDGET).passed
        assert check_measure_law(mkt_a, shifted, "lemma_KM_in_R0", BUDGET).passed
        assert not check_measure_law(mkt_a, shifted, "R3", BUDGET).passed

    def test_unknown_law(self, mkt_a):
        with pytest.raises(UnknownLaw):
            check_measure_law(mkt_a, WorstCase(), "R99", BUDGET)

    def test_reports_deterministic(self, mkt_b):
        a = check_measure_law(mkt_b, VaRStrong(Fraction(1, 4)), "R4", BUDGET)
        b = check_measure_law(mkt_b, VaRStrong(Fraction(1, 4)), "R4", BUDGET)
        assert a.to_doc() == b.to_doc()

    def test_seed_changes_stream(self, mkt_a):
        a = check_measure_law(mkt_a, WorstCase(), "R6", SampleBudget(count=30, seed=1))
        b = check_measure_law(mkt_a, WorstCase(), "R6", SampleBudget(count=30, seed=2))
        assert a.passed and b.passed and a.seed != b.seed

    def test_cash_additivity_on_compound_trees(self, mkt_a):
        from fractions import Fraction as F
        from svrisk.measures import ConvexCombo, MeasureUnion, Translate
        compound = ConvexCombo(
            F(1, 3),
            MeasureUnion((WorstCase(), Shift(WorstCase(), PortfolioVector.of(["1", "0"])))),
            Translate(WorstCase(), RandomVector.constant(2, ["0", "1"])))
        assert check_measure_law(mkt_a, compound, "R1", BUDGET).passed

    def test_monotonicity_of_induced_measures(self, mkt_a):
        z = RandomVector.of([["-1", "1"], ["1", "0"]])
        for node in (DominanceAt(z), Segment(z), Ray(z)):
            report = check_measure_law(mkt_a, OfAcceptance(node), "R2", BUDGET)
            assert report.passed, (node, report.witness)


class TestAcceptanceLaws:
    def test_dominance_at_zero_passes_all(self, mkt_a):
        a = DominanceAt(mkt_a.zero_position())
        for law in ACCEPTANCE_LAWS:
            if law == "A5":
                continue  # a cone law; dominance sets are cones only at zero anchor
            report = check_acceptance_law(mkt_a, a, law, BUDGET)
            assert report.passed, (law, report.witness)

    def test_dominance_at_zero_is_conical(self, mkt_a):
        report = check_acceptance_law(mkt_a, DominanceAt(mkt_a.zero_position()),
                                      "A5", BUDGET)
        assert report.passed

    def test_var_acceptance_star_but_not_convex(self, mkt_b):
        a = OfMeasure(VaRStrong(Fraction(1, 4)))
        assert check_acceptance_law(mkt_b, a, "A6", BUDGET).passed
        report = check_acceptance_law(mkt_b, a, "A4", BUDGET)
        assert not report.passed
        assert recheck_witness(mkt_b, a, report)

    def test_nonzero_dominance_violates_normalization(self, mkt_a):
        z = RandomVector.constant(2, ["2", "0"])
        report = check_acceptance_law(mkt_a, DominanceAt(z), "A3", BUDGET)
        assert not report.passed

    def test_segment_passes_star_laws(self, mkt_a):
        z = RandomVector.constant(2, ["-1", "1"])
        for law in ("A1_translate", "A2", "A6", "A6equiv"):
            assert check_acceptance_law(mkt_a, Segment(z), law, BUDGET).passed

    def test_unknown_acceptance_law(self, mkt_a):
        with pytest.raises(UnknownLaw):
            check_acceptance_law(mkt_a, Segment(mkt_a.zero_position()), "R1", BUDGET)


class TestCorrespondences:
    def test_r_eq_rar_for_measures(self, mkt_a, mkt_b):
        assert check_correspondence(mkt_a, WorstCase(), "R_eq_RAR", BUDGET).passed
        assert check_correspondence(mkt_b, VaRStrong(Fraction(1, 4)),
                                    "R_eq_RAR", BUDGET).passed

    def test_a_eq_ara_for_acceptance_sets(self, mkt_a):
        z = RandomVector.of([["-1", "1"], ["1", "0"]])
        for node in (DominanceAt(z), Segment(z), Ray(z)):
            assert check_correspondence(mkt_a, node, "A_eq_ARA", BUDGET).passed

    def test_transfer_convex_to_r4(self, mkt_a):
        z = RandomVector.constant(2, ["-1", "1"])
        assert check_correspondence(mkt_a, Segment(z), "transfer", BUDGET).passed

    def test_transfer_detects_induced_properties(self, mkt_b):
        # the V@R acceptance set fails A4, so the transfer is vacuous-pass
        a = OfMeasure(VaRStrong(Fraction(1, 4)))
        assert check_correspondence(mkt_b, a, "transfer", BUDGET).passed

    def test_direction_validation(self, mkt_a):
        with pytest.raises(UnknownDirection):
            check_correspondence(mkt_a, WorstCase(), "sideways", BUDGET)
        with pytest.raises(TypeError):
            check_correspondence(mkt_a, WorstCase(), "A_eq_ARA", BUDGET)


class TestStarAt:
    def test_cone_translate_star_at_apex(self, mkt_a):
        y = RandomVector.constant(2, ["1", "1"])
        report = check_star_at(mkt_a, DominanceAt(y), [y], BUDGET)
        assert report.passed

    def test_star_at_dominating_points(self, mkt_a):
        # monotone + star at y implies star at points of the dominance set of y
        y = RandomVector.constant(2, ["1", "1"])
        above = [y.add_constant(["1", "0"]), y.add_constant(["0", "2"])]
        report = check_star_at(mkt_a, DominanceAt(y), above, BUDGET)
        assert report.passed

    def test_rejected_base_point_fails(self, mkt_a):
        y = RandomVector.constant(2, ["1", "1"])
        outside = RandomVector.constant(2, ["0", "-1"])
        report = check_star_at(mkt_a, DominanceAt(y), [y, outside], BUDGET)
        assert not report.passed
        assert report.witness["detail"]["base_index"] == 1

    def test_empty_base_rejected(self, mkt_a):
        with pytest.raises(EmptyBaseSet):
            check_star_at(mkt_a, DominanceAt(mkt_a.zero_position()), [], BUDGET)


class TestWitnessQuality:
    def test_witness_reproduces_violation_exactly(self, mkt_b):
        expr = VaRStrong(Fraction(1, 4))
        report = check_measure_law(mkt_b, expr, "R4", BUDGET)
        assert recheck_witness(mkt_b, expr, report)
        # a passing report has nothing to recheck
        ok = check_measure_law(mkt_b, expr, "R6", BUDGET)
        assert not recheck_witness(mkt_b, expr, ok)

    def test_relation_outside_the_table_is_unknown(self, mkt_a):
        for relation in ("reconstruct_containment", "reconstruct_equality"):
            witness = {"relation": relation, "sample": {"x": mkt_a.zero_position().to_doc()},
                       "detail": {"separating_point": ["0"]}}
            report = LawReport("reconstruct_monetary", "fail", 1, witness, 0, 1)
            with pytest.raises(UnknownLaw):
                recheck_witness(mkt_a, WorstCase(), report)

    def test_esssup_witness_rechecks(self, mkt_b):
        z = RandomVector.constant(3, ["1", "1"])
        joint = AccIntersection((DominanceAt(z),))
        for x, reproduces in ((RandomVector.of([["0", "1"], ["0", "0"], ["0", "0"]]), True),
                              (RandomVector.of([["2", "1"], ["1", "0"], ["0", "0"]]), False)):
            witness = {"relation": "esssup_lift", "sample": {"x": x.to_doc()}}
            report = LawReport("esssup_bridge", "fail", 1, witness, 0, 1)
            assert recheck_witness(mkt_b, joint, report) is reproduces

    def test_witness_serializes_to_plain_json(self, mkt_b):
        import json
        report = check_measure_law(mkt_b, VaRStrong(Fraction(1, 4)), "R4", BUDGET)
        text = json.dumps(report.to_doc(), sort_keys=True)
        assert "rows" in text


class TestRareVerdicts:
    """Verdicts that no law check of the other tests reaches, judged by hand."""

    # R(X) = wc(X) - u: on mkt-b, wc(X) = {w : w >= -min_i X_i}, so t R(X) and
    # R(t X) are the same orthant corner moved by -t u and -u
    SHIFTED = Shift(WorstCase(), PortfolioVector.of(["1", "0"]))

    def test_ph_powers_fails_at_the_first_power(self, mkt_b):
        report = _run(_LAWS["ph_powers"], mkt_b, self.SHIFTED, BUDGET)
        assert (report.verdict, report.samples) == ("fail", 1)
        witness = report.witness
        assert witness["relation"] == "ph_powers" and witness["detail"]["t"] == "1/8"
        t, w = Fraction(1, 8), [Fraction(c) for c in witness["detail"]["separating_point"]]
        low = [-min(col) for col in zip(*RandomVector.of(witness["sample"]["x"]["rows"]).values)]
        in_lhs = all(c >= t * (b - u) for c, b, u in zip(w, low, (1, 0)))
        in_rhs = all(c >= t * b - u for c, b, u in zip(w, low, (1, 0)))
        assert in_lhs != in_rhs
        assert recheck_witness(mkt_b, self.SHIFTED, report)

    def test_a_failing_conclusion_fails_the_implication(self, mkt_b):
        # 0 is in R(0) = K - u since u = (1, 0) is in K; ph_powers then fails
        law = _Law("zero_then_ph", None, MeasureExpr, implies=((("zero_in_R0",), "ph_powers"),))
        report = _run(law, mkt_b, self.SHIFTED, BUDGET)
        conclusion = _run(_LAWS["ph_powers"], mkt_b, self.SHIFTED, BUDGET)
        # the exact premise counts no samples
        assert report == LawReport("zero_then_ph", "fail", 1, conclusion.witness,
                                   BUDGET.seed, BUDGET.count)

    def test_a3_fails_when_a_negative_interior_point_is_accepted(self, mkt_b):
        # dominating -10 everywhere accepts every draw in [-3, 3]
        a = DominanceAt(RandomVector.constant(3, ["-10", "-10"]))
        report = check_acceptance_law(mkt_b, a, "A3", BUDGET)
        assert (report.verdict, report.samples) == ("fail", 1)
        assert report.witness["detail"]["note"] == "-int(K cap M) point accepted"
        v = [Fraction(c) for c in report.witness["detail"]["point"]]
        assert all(-3 <= c < 0 for c in v)  # in the open negative orthant, above -10
        assert recheck_witness(mkt_b, a, report)

    def test_a_rejected_premise_is_a_vacuous_pass(self, mkt_b):
        a = DominanceAt(RandomVector.constant(3, ["1", "1"]))
        zero, x = mkt_b.zero_position(), RandomVector.constant(3, ["1", "1"])
        down = RandomVector.constant(3, ["-1", "0"])
        holds = _LAWS["A2"].relations[0].holds
        # 0 does not dominate (1, 1), so nothing is asked of 0 + k
        assert not accepts(mkt_b, a, zero)
        assert holds(mkt_b, a, {"x": zero, "k": down}) == (True, None)
        assert holds(mkt_b, a, {"x": x, "k": down}) == (False, {"note": "monotone translate rejected"})
        witness = {"relation": "A2", "sample": {"x": zero.to_doc(), "k": down.to_doc()}}
        assert not recheck_witness(mkt_b, a, LawReport("A2", "fail", 1, witness, 0, 1))


class TestSampleBudget:
    @pytest.mark.parametrize("count", [0, -3, True, False, 1.5, "5", Fraction(5)])
    def test_bad_count_is_a_typed_error(self, count):
        with pytest.raises(BadBudget):
            SampleBudget(count=count)

    def test_good_count(self):
        assert SampleBudget(count=1).count == 1
        assert SampleBudget(7, seed=3) == SampleBudget(count=7, seed=3)

    def test_the_battery_comes_before_the_random_draws(self, mkt_b):
        # zero, each unit position and its negative, a lone loss; no draw taken
        n, rng = mkt_b.n, random.Random(0)
        units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
        expected = ([RandomVector.zero(n, 2)] + [RandomVector((e,) * n) for e in units]
                    + [RandomVector(((-1, 0),) + ((0, 0),) * (n - 1))])
        assert [_sampling.position(mkt_b, rng, i) for i in range(len(expected))] == expected
        assert rng.getstate() == random.Random(0).getstate()

    def test_draws_lie_within_the_constant_bound(self, mkt_b):
        rng = random.Random(0)
        coords = [c for i in range(40) for row in _sampling.position(mkt_b, rng, i).values
                  for c in row]
        coords += [c for _ in range(40) for c in _sampling.eligible(mkt_b, rng)]
        assert max(abs(c) for c in coords) == _sampling.BOUND == 3
        for law in _LAWS.values():
            assert law.sampler is None or "bound" not in inspect.signature(law.sampler).parameters


@st.composite
def draw_markets(draw):
    """mkt-a, mkt-b, or a three-asset bid-ask market with 1-8 equally likely
    scenarios, spreads from {5/4, 3/2, 2} and M spanned by some coordinates."""
    shape = draw(st.sampled_from(("mkt-a", "mkt-b", "bidask-3")))
    if shape != "bidask-3":
        return market(shape)
    n, spreads = draw(st.integers(1, 8)), st.sampled_from(("5/4", "3/2", "2"))
    return load_market({"d": 3, "probs": [f"1/{n}"] * n,
                        "subspace": {"coords": draw(st.sampled_from(([0, 1, 2], [0, 2], [1])))},
                        "cone": {"bidask": [[1 if i == j else draw(spreads) for j in range(3)]
                                            for i in range(3)]}})


class TestDrawStream:
    """The int draws of ``_sampling`` are the Fraction draws of ``choice`` and
    ``randint`` (``oracles.position_ref`` and kin): the same samples from a
    seed, leaving the stream in the same state."""

    @settings(max_examples=60, deadline=None)
    @given(draw_markets(), st.integers(0, 2 ** 64), st.lists(st.integers(0, 40), min_size=1,
                                                             max_size=5))
    def test_draws_are_the_fraction_draws(self, mkt, seed, indices):
        rng, ref = random.Random(seed), random.Random(seed)
        for i in indices:
            x = _sampling.position(mkt, rng, i)
            assert x.values == position_ref(mkt, ref, i) and x == RandomVector.of(x.values)
            k = _sampling.cone_position(mkt, rng)
            assert k.values == cone_position_ref(mkt, ref) and k == RandomVector.of(k.values)
            points = [(_sampling.eligible(mkt, rng), eligible_ref(mkt, ref))]
            points += [(_sampling.km_point(mkt, rng, b), km_point_ref(mkt, ref, b)) for b in (1, 3)]
            points.append((_sampling.neg_interior_point(mkt, rng),
                           neg_interior_point_ref(mkt, ref)))
            for got, expected in points:
                assert got == expected and all(type(c) is Fraction for c in got)
            assert _sampling.dyadic_in_01(rng) == dyadic_in_01_ref(ref)
            assert _sampling.dyadic_gt1(rng) == dyadic_gt1_ref(ref)
            value = worst_case(mkt, x)
            if not value.is_empty():
                vertex = convert_rep(value.pieces[0]).vertices[0]
                expected = (drift_ref(vertex, value.recession.generators, ref)
                            if ref.randint(0, 1) else vertex)
                assert _sampling.pick_point(value, rng) == expected
        assert rng.getstate() == ref.getstate()
