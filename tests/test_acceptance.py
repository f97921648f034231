"""Acceptance suite: one test per criterion, exact (zero tolerance).

Budgets and sample counts are pinned at the contract values; every check is
an exact rational set comparison or membership equivalence.  Run with
``pytest tests/test_acceptance.py -v -s`` to see one line per criterion.
"""

import random
from fractions import Fraction

import pytest

from svrisk.errors import OnlyOrthogonalSeparators, SubspaceNotFull
from svrisk.geometry import is_subset, scale_set, sets_equal
from svrisk.laws import (
    SampleBudget,
    check_correspondence,
    check_measure_law,
    esssup_bridge,
    recheck_witness,
)
from svrisk.measures import (
    ConvexCombo,
    DominanceAt,
    MeasureUnion,
    OfAcceptance,
    OfMeasure,
    Ray,
    Segment,
    Shift,
    Translate,
    VaRStrong,
    VaRWeak,
    WorstCase,
    accepts,
    eval_acceptance,
    eval_measure,
    worst_case,
)
from svrisk.represent import (
    DecompositionFamily,
    decompose,
    dual_certificate,
    family_union_value,
    reconstruct_check,
    star_link,
    validate_certificate,
)
from svrisk.scenario import PortfolioVector, RandomVector

from oracles import var_strong_predicate, var_weak_predicate, wc_predicate

BUDGET = SampleBudget(count=200, seed=7)


def _status(n, label):
    print(f"PASS criterion {n}: {label}")


def _seeded_points(m, count, seed):
    rng = random.Random(seed)
    pts = []
    for _ in range(count):
        pts.append(tuple(Fraction(rng.randint(-24, 24), rng.choice((1, 2, 3, 4)))
                         for _ in range(m)))
    return pts


def _seeded_positions(mkt, count, seed, bound=8):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(RandomVector.of(
            [[Fraction(rng.randint(-2 * bound, 2 * bound), 2)
              for _ in range(mkt.d)] for _ in range(mkt.n)]))
    return out


def test_criterion_01_definitional_oracle_equivalence(mkt_a, mkt_b,
                                                      wc_fixture_position,
                                                      var_fixture_position):
    lam = Fraction(1, 4)
    cases = {
        "wc": (lambda mkt, x: eval_measure(mkt, WorstCase(), x),
               lambda mkt, x, u: wc_predicate(mkt, x, u)),
        "var-strong": (lambda mkt, x: eval_measure(mkt, VaRStrong(lam), x),
                       lambda mkt, x, u: var_strong_predicate(mkt, x, u, lam)),
        "var-weak": (lambda mkt, x: eval_measure(mkt, VaRWeak(lam), x),
                     lambda mkt, x, u: var_weak_predicate(mkt, x, u, lam)),
    }
    positions = {
        "mkt-a": [wc_fixture_position, RandomVector.of([["-2", "1"], ["1", "-1"]]),
                  RandomVector.zero(2, 2)],
        "mkt-b": [var_fixture_position,
                  RandomVector.of([["-1", "2"], ["3", "-2"], ["-3", "0"]]),
                  RandomVector.zero(3, 2)],
    }
    total = {}
    for mkt, name in ((mkt_a, "mkt-a"), (mkt_b, "mkt-b")):
        for label, (evaluate, predicate) in cases.items():
            checked = 0
            for k, x in enumerate(positions[name]):
                value = evaluate(mkt, x)
                for u in _seeded_points(mkt.m, 170, seed=100 + k):
                    assert value.contains_point(u) == predicate(mkt, x, u), \
                        f"{label} on {name}: mismatch at {u}"
                    checked += 1
            assert checked >= 500
            total[(name, label)] = checked
    _status(1, f"definitional oracle equivalence, {sum(total.values())} points, 0 mismatches")


def test_criterion_02_axiom_suite(mkt_a, mkt_b):
    for law in ("R1", "R2", "R3", "R4", "R5", "R6", "subadditive"):
        report = check_measure_law(mkt_a, WorstCase(), law, BUDGET)
        assert report.passed, (law, report.witness)
    var = VaRStrong(Fraction(1, 4))
    for law in ("R1", "R2", "R3", "R5", "R6"):
        report = check_measure_law(mkt_b, var, law, BUDGET)
        assert report.passed, (law, report.witness)
    r4 = check_measure_law(mkt_b, var, "R4", BUDGET)
    assert not r4.passed and r4.witness is not None
    assert recheck_witness(mkt_b, var, r4)
    again = check_measure_law(mkt_b, var, "R4", BUDGET)
    assert again.to_doc() == r4.to_doc()  # reproducible witness
    _status(2, "worst case passes R1-R6 + subadditivity; V@R-strong(1/4) "
               "fails R4 with a reproducible witness")


def test_criterion_03_star_lemma_zero_cone(mkt_a, mkt_b):
    c = PortfolioVector.of(["1", "0"])
    minus_c = PortfolioVector.of(["-1", "0"])
    candidates = [
        (mkt_a, WorstCase()),
        (mkt_b, VaRStrong(Fraction(1, 4))),
        (mkt_b, VaRWeak(Fraction(1, 4))),
        (mkt_a, ConvexCombo(Fraction(1, 2), WorstCase(),
                            Shift(WorstCase(), c))),
        (mkt_a, MeasureUnion((WorstCase(), Shift(WorstCase(), c)))),
        (mkt_a, OfAcceptance(Segment(RandomVector.constant(2, ["-1", "0"])))),
        (mkt_a, OfAcceptance(Ray(RandomVector.constant(2, ["-1", "1"])))),
        (mkt_a, Translate(WorstCase(), RandomVector.constant(2, ["0", "1"]))),
        (mkt_a, Shift(WorstCase(), minus_c)),  # not star-shaped: skipped
    ]
    star_count = 0
    for mkt, expr in candidates:
        if check_measure_law(mkt, expr, "R6", BUDGET).passed:
            lemma = check_measure_law(mkt, expr, "lemma_KM_in_R0", BUDGET)
            assert lemma.passed, (expr, lemma.witness)
            star_count += 1
    assert star_count >= 7
    _status(3, f"0 in K cap M subset of R(0) for all {star_count} measures passing R6")


def test_criterion_04_risk_to_exposure_shrinkage(mkt_a, mkt_b):
    budget = SampleBudget(count=50, seed=19)
    for mkt, expr in ((mkt_a, WorstCase()), (mkt_b, VaRStrong(Fraction(1, 4)))):
        report = check_measure_law(mkt, expr, "R6equiv_shrink", budget)
        assert report.passed, report.witness
        assert report.samples >= 50
    _status(4, "risk-to-exposure ratio shrinks for WC and V@R-strong, 50 samples each")


def test_criterion_05_subadditive_star_implies_ph(mkt_a):
    powers = [Fraction(2) ** k for k in range(-3, 4)]
    checked = 0
    for x in _seeded_positions(mkt_a, 50, seed=23):
        base = eval_measure(mkt_a, WorstCase(), x)
        for t in powers:
            assert sets_equal(scale_set(t, base),
                              eval_measure(mkt_a, WorstCase(), x.scale(t)))
        checked += 1
    assert checked >= 50
    report = check_measure_law(mkt_a, WorstCase(), "sub_star_implies_ph",
                               SampleBudget(count=50, seed=23))
    assert report.passed
    _status(5, "t*R(X) = R(tX) exactly on dyadic powers for 50 positions")


def test_criterion_06_correspondence_round_trips(mkt_a, mkt_b):
    z_a = RandomVector.of([["-1", "1"], ["1", "0"]])
    z_b = RandomVector.of([["-1", "1"], ["1", "0"], ["0", "1"]])
    measures = [
        (mkt_a, WorstCase()),
        (mkt_b, VaRStrong(Fraction(1, 4))),
        (mkt_b, VaRWeak(Fraction(1, 4))),
        (mkt_a, OfAcceptance(DominanceAt(z_a))),
        (mkt_a, OfAcceptance(Segment(z_a))),
        (mkt_a, OfAcceptance(Ray(z_a))),
    ]
    for mkt, expr in measures:
        report = check_correspondence(mkt, expr, "R_eq_RAR", BUDGET)
        assert report.passed, (expr, report.witness)
    acceptances = [
        (mkt_a, OfMeasure(WorstCase())),
        (mkt_b, OfMeasure(VaRStrong(Fraction(1, 4)))),
        (mkt_b, OfMeasure(VaRWeak(Fraction(1, 4)))),
        (mkt_a, DominanceAt(z_a)),
        (mkt_a, Segment(z_a)),
        (mkt_b, Ray(z_b)),
    ]
    for mkt, acc in acceptances:
        report = check_correspondence(mkt, acc, "A_eq_ARA", BUDGET)
        assert report.passed, (acc, report.witness)
    _status(6, "R = R_{A_R} and A = A_{R_A} at budget 200 for WC, both V@Rs, "
               "dominance, segment, ray")


def test_criterion_07_vertex_reconstruction(mkt_a, mkt_b, var_fixture_position):
    rng = random.Random(29)
    # worst case: positions drawn on both markets, values must be nonempty
    wc_positions = []
    for mkt, pool in ((mkt_a, _seeded_positions(mkt_a, 60, seed=31)),
                      (mkt_b, _seeded_positions(mkt_b, 12, seed=37))):
        for x in pool:
            if len(wc_positions) >= 22 and mkt is mkt_a:
                break
            if not eval_measure(mkt, WorstCase(), x).is_empty():
                wc_positions.append((mkt, x))
    assert len(wc_positions) >= 20
    for mkt, x in wc_positions:
        fam = decompose(mkt, WorstCase(), "monetary", x)
        assert reconstruct_check(mkt, WorstCase(), fam, x).passed
        assert sets_equal(family_union_value(mkt, fam, x),
                          eval_measure(mkt, WorstCase(), x))
    var = VaRStrong(Fraction(1, 4))
    var_positions = [var_fixture_position] + _seeded_positions(mkt_b, 19, seed=41)
    assert len(var_positions) >= 20
    for x in var_positions:
        fam = decompose(mkt_b, var, "coherent", x)
        assert reconstruct_check(mkt_b, var, fam, x).passed
        assert sets_equal(family_union_value(mkt_b, fam, x),
                          eval_measure(mkt_b, var, x))
        value = eval_measure(mkt_b, var, x)
        keep = [i for i in range(len(fam.members)) if rng.randint(0, 1)]
        if keep:
            sub = DecompositionFamily(fam.kind,
                                      tuple(fam.members[i] for i in keep),
                                      tuple(fam.anchors[i] for i in keep))
            assert is_subset(family_union_value(mkt_b, sub, x), value)
    _status(7, f"vertex families rebuild WC at {len(wc_positions)} and "
               f"V@R-strong at {len(var_positions)} positions exactly")


def test_criterion_08_dual_certificates(mkt_a, mkt_b):
    rng = random.Random(43)
    excluded = inside = 0
    trials = 0
    while excluded < 100 and trials < 3000:
        trials += 1
        mkt = (mkt_a, mkt_b)[trials % 2]
        x = RandomVector.of([[Fraction(rng.randint(-8, 8), 2) for _ in range(2)]
                             for _ in range(mkt.n)])
        u_m = tuple(Fraction(rng.randint(-12, 12), 2) for _ in range(mkt.m))
        u = PortfolioVector.of(mkt.from_m(u_m))
        in_value = worst_case(mkt, x).contains_point(u_m)
        try:
            cert = dual_certificate(mkt, x, u)
        except OnlyOrthogonalSeparators:
            continue  # no non-orthogonal separator available: out of scope here
        if in_value:
            assert cert is None
            inside += 1
        else:
            assert cert is not None, "exclusion must be certified"
            assert validate_certificate(mkt, x, cert)
            assert not worst_case(mkt, x).contains_point(u_m)
            excluded += 1
    assert excluded >= 100 and inside >= 10
    _status(8, f"{excluded} exclusions certified and validated, "
               f"{inside} interior points returned none, 0 failures")


def test_criterion_09_translation_link(mkt_a, mkt_b):
    # constructed family with the base in the intersection
    z1 = RandomVector.of([["1", "0"], ["0", "1"], ["0", "0"]])
    z2 = RandomVector.of([["0", "2"], ["1", "0"], ["0", "0"]])
    y = RandomVector.constant(3, ["1", "2"])
    expr, report = star_link(mkt_b, [DominanceAt(z1), DominanceAt(z2)], y, BUDGET)
    assert report.passed and report.budget == 200

    # remark52: B nonempty, B cap M empty, exactly
    z = RandomVector.constant(2, ["1", "1"])
    member = DominanceAt(z)
    assert accepts(mkt_a, member, z)
    assert eval_acceptance(mkt_a, member, mkt_a.zero_position()).is_empty()
    _, remark_report = star_link(mkt_a, [member], z, BUDGET)
    assert remark_report.passed

    # example51: inward shift breaks star-shapedness, shifting back restores it
    c = PortfolioVector.of(["1", "0"])
    shifted = Shift(WorstCase(), PortfolioVector.of(["-1", "0"]))
    broken = check_measure_law(mkt_a, shifted, "R6", BUDGET)
    assert not broken.passed and broken.witness is not None
    assert recheck_witness(mkt_a, shifted, broken)
    restored = Shift(shifted, c)
    assert check_measure_law(mkt_a, restored, "R4", BUDGET).passed
    assert check_measure_law(mkt_a, restored, "R6", BUDGET).passed
    _status(9, "translated unions are star-shaped; remark52 and example51 "
               "fixtures reproduce exactly")


def test_criterion_10_esssup_bridge(mkt_a, mkt_b):
    z1 = RandomVector.of([["1", "0"], ["0", "1"], ["0", "0"]])
    z2 = RandomVector.of([["0", "2"], ["1", "0"], ["0", "0"]])
    members = [DominanceAt(z1), DominanceAt(z2)]
    report = esssup_bridge(mkt_b, members, BUDGET)
    assert report.passed
    assert report.samples >= 200
    with pytest.raises(SubspaceNotFull):
        esssup_bridge(mkt_a, members, BUDGET)
    _status(10, f"componentwise sup stays accepted on {report.samples} samples; "
                "SubspaceNotFull raised off the full subspace")
