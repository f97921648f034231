"""Decomposition families, dual certificates, and the translation link."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from svrisk import geometry, measures, represent

from svrisk.errors import (
    EmptyValue,
    NotInIntersection,
    OnlyOrthogonalSeparators,
    ShapeMismatch,
    SubspaceNotFull,
)
from svrisk.geometry import convert_rep, is_subset, sets_equal
from svrisk.laws import SampleBudget, check_measure_law, esssup_bridge
from svrisk.measures import (
    AccUnion,
    DominanceAt,
    OfAcceptance,
    Ray,
    Segment,
    SegmentHull,
    VaRStrong,
    VaRWeak,
    WorstCase,
    accepts,
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
from svrisk.fixtures import market
from svrisk.rationals import dot
from svrisk.scenario import PortfolioVector, RandomVector, load_market

from oracles import bidask_3_cases

BIDASK_3 = {"d": 3, "probs": ["1/2", "1/3", "1/6"], "subspace": {"coords": [0, 1, 2]},
            "cone": {"bidask": [[1, "3/2", 2], ["5/4", 1, "3/2"], [2, "4/3", 1]]}}
CERTIFICATE_MARKETS = {"mkt-a": market("mkt-a"), "mkt-b": market("mkt-b"),
                       "bidask-3": load_market(BIDASK_3),
                       "bidask-3-plane": load_market({**BIDASK_3, "subspace": {"coords": [0, 1]}})}


@st.composite
def certificate_cases(draw):
    """A market of ``CERTIFICATE_MARKETS``, a position with entries in halves
    and an eligible portfolio u with M-coordinates in halves."""
    mkt = CERTIFICATE_MARKETS[draw(st.sampled_from(sorted(CERTIFICATE_MARKETS)))]
    half = st.builds(Fraction, st.integers(-6, 6), st.just(2))
    rows = draw(st.lists(st.lists(half, min_size=mkt.d, max_size=mkt.d),
                         min_size=mkt.n, max_size=mkt.n))
    u = mkt.from_m(draw(st.lists(half, min_size=mkt.m, max_size=mkt.m)))
    return mkt, RandomVector.of(rows), PortfolioVector.of(u)

BUDGET = SampleBudget(count=60, seed=13)


class TestDecompose:
    def test_wc_fixture_anchor(self, mkt_a, wc_fixture_position):
        fam = decompose(mkt_a, WorstCase(), "monetary", wc_fixture_position)
        assert fam.anchors == (RandomVector.of([["0", "0"], ["1", "2"]]),)
        assert fam.members == (DominanceAt(fam.anchors[0]),)

    def test_star_normalized_members_are_segments(self, mkt_a, wc_fixture_position):
        fam = decompose(mkt_a, WorstCase(), "star_normalized", wc_fixture_position)
        assert fam.members == tuple(Segment(z) for z in fam.anchors)

    def test_coherent_members_per_vertex(self, mkt_b, var_fixture_position):
        fam = decompose(mkt_b, VaRStrong(Fraction(1, 4)), "coherent",
                        var_fixture_position)
        assert len(fam.members) == 2
        assert fam.members == tuple(Ray(z) for z in fam.anchors)

    def test_members_accept_their_anchors(self, mkt_b, var_fixture_position):
        fam = decompose(mkt_b, VaRStrong(Fraction(1, 4)), "coherent",
                        var_fixture_position)
        for member, anchor in zip(fam.members, fam.anchors):
            assert accepts(mkt_b, member, anchor)

    def test_unknown_theorem_raises(self, mkt_a, wc_fixture_position):
        with pytest.raises(ValueError, match="unknown decomposition theorem 'dual'"):
            decompose(mkt_a, WorstCase(), "dual", wc_fixture_position)

    def test_empty_value_raises_without_sampling(self, mkt_a):
        x = RandomVector.of([["-1", "0"], ["0", "-2"]])
        with pytest.raises(EmptyValue):
            decompose(mkt_a, WorstCase(), "monetary", x)

    def test_empty_value_flagged_with_sampling(self, mkt_a):
        x = RandomVector.of([["-1", "0"], ["0", "-2"]])
        fam = decompose(mkt_a, WorstCase(), "monetary", x,
                        extra=SampleBudget(count=20, seed=3))
        assert fam.empty_value
        assert fam.members
        # containment direction must still hold at the empty position
        assert family_union_value(mkt_a, fam, x).is_empty()


class TestReconstruct:
    def test_wc_monetary_exact(self, mkt_a, wc_fixture_position):
        fam = decompose(mkt_a, WorstCase(), "monetary", wc_fixture_position)
        rep = reconstruct_check(mkt_a, WorstCase(), fam, wc_fixture_position)
        assert rep.passed
        union = family_union_value(mkt_a, fam, wc_fixture_position)
        assert sets_equal(union, worst_case(mkt_a, wc_fixture_position))

    def test_var_coherent_two_piece_exact(self, mkt_b, var_fixture_position):
        expr = VaRStrong(Fraction(1, 4))
        fam = decompose(mkt_b, expr, "coherent", var_fixture_position)
        rep = reconstruct_check(mkt_b, expr, fam, var_fixture_position)
        assert rep.passed
        union = family_union_value(mkt_b, fam, var_fixture_position)
        assert sets_equal(union, eval_measure(mkt_b, expr, var_fixture_position))

    def test_anchor_subsets_stay_dominated(self, mkt_b, var_fixture_position):
        expr = VaRStrong(Fraction(1, 4))
        fam = decompose(mkt_b, expr, "coherent", var_fixture_position,
                        extra=SampleBudget(count=10, seed=5))
        rng = random.Random(7)
        value = eval_measure(mkt_b, expr, var_fixture_position)
        for _ in range(5):
            keep = [i for i in range(len(fam.members)) if rng.randint(0, 1)]
            if not keep:
                continue
            sub = DecompositionFamily(fam.kind,
                                      tuple(fam.members[i] for i in keep),
                                      tuple(fam.anchors[i] for i in keep))
            union = family_union_value(mkt_b, sub, var_fixture_position)
            assert is_subset(union, value)
            assert reconstruct_check(mkt_b, expr, sub, var_fixture_position).passed

    def test_reconstruction_at_other_positions(self, mkt_b):
        expr = WorstCase()
        rng = random.Random(21)
        count = 0
        while count < 6:
            x = RandomVector.of([[Fraction(rng.randint(-4, 4), 2) for _ in range(2)]
                                 for _ in range(3)])
            if eval_measure(mkt_b, expr, x).is_empty():
                continue
            fam = decompose(mkt_b, expr, "monetary", x)
            assert reconstruct_check(mkt_b, expr, fam, x).passed
            count += 1


class TestVertexAnchors:
    """The vertices of a worst-case value on a simplicial cone are read off
    its held offsets: ``decompose`` and ``reconstruct_check`` make no
    ``convert_rep`` call."""

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3))),
                             min_size=2, max_size=2), min_size=3, max_size=3),
           st.sampled_from(("monetary", "star_normalized", "coherent")))
    def test_worst_case_on_mkt_b_takes_no_convert_rep(self, rows, theorem):
        mkt, x = market("mkt-b"), RandomVector.of(rows)
        anchors = tuple(mkt.add_eligible(x, v) for p in worst_case(mkt, x).pieces
                        for v in convert_rep(p).vertices)
        refuse = mock.Mock(side_effect=AssertionError("convert_rep called"))
        with mock.patch.object(geometry, "convert_rep", refuse), \
                mock.patch.object(measures, "convert_rep", refuse), \
                mock.patch.object(represent, "convert_rep", refuse, create=True):
            family = decompose(mkt, WorstCase(), theorem, x)
            report = reconstruct_check(mkt, WorstCase(), family, x)
        assert not refuse.called
        assert family.anchors == anchors and report.passed


M8X2 = load_market({"d": 2, "probs": ["1/8"] * 8, "subspace": {"coords": [0, 1]},
                    "cone": {"bidask": [[1, "3/2"], ["3/2", 1]]}})


@st.composite
def anchor_cases(draw):
    """mkt-b, an 8-scenario bid-ask market or a d = 3 bid-ask market of
    ``bidask_3_cases`` (mostly six facets in m = 3); a worst case, strong
    V@R or weak V@R at a level in quarters; a position with entries in
    halves.  Weak V@R values on two facets often miss a row."""
    if draw(st.booleans()):
        mkt, x, level = draw(bidask_3_cases())
    else:
        mkt = draw(st.sampled_from((market("mkt-b"), M8X2)))
        half = st.integers(-8, 8).map(lambda v: Fraction(v, 2))
        x = RandomVector.of(draw(st.lists(st.lists(half, min_size=2, max_size=2),
                                          min_size=mkt.n, max_size=mkt.n)))
        level = draw(st.sampled_from((Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))))
    return mkt, draw(st.sampled_from((WorstCase(), VaRStrong(level), VaRWeak(level)))), x


class TestIntAnchors:
    """Anchors at the int vertices of a value held as offsets on a simplicial
    cone, and off ``convert_rep`` of its pieces that miss a row, are the
    anchors ``add_eligible`` builds from ``vreps``."""

    @settings(max_examples=100, deadline=None)
    @given(anchor_cases())
    def test_int_anchors_are_the_fraction_anchors(self, case):
        mkt, expr, x = case
        value, anchors = represent._vertex_anchors(mkt, expr, x)
        assert value == eval_measure(mkt, expr, x)
        assert anchors == [mkt.add_eligible(x, v) for q in value.vreps() for v in q.vertices]
        assert anchors == [mkt.add_eligible(x, v) for p in value.pieces for v in convert_rep(p).vertices]

    @pytest.mark.parametrize("expr, level, missing", [
        (WorstCase(), None, 0),
        (VaRWeak, Fraction(1, 2), 2),  # two of its three pieces miss a row
    ], ids=["wc", "var-weak-missing-row"])
    def test_only_pieces_missing_a_row_take_convert_rep(self, expr, level, missing):
        # no Fraction vertex is built for a piece that has its int vertex
        mkt = market("mkt-b")
        x = RandomVector.of([["-1", "-1"], ["-2", "0"], ["0", "-4"]])
        expr = expr if level is None else expr(level)
        value = eval_measure(mkt, expr, x)
        assert value.vertex_ints().count(None) == missing
        with mock.patch.object(represent, "convert_rep", side_effect=convert_rep) as spy, \
                mock.patch.object(geometry.UpperSet, "vreps") as vreps:
            _, anchors = represent._vertex_anchors(mkt, expr, x)
        assert spy.call_count == missing and not vreps.called
        assert anchors == [mkt.add_eligible(x, v) for q in value.vreps() for v in q.vertices]


class TestDualCertificates:
    def test_hand_checkable_fixture(self, mkt_a, wc_fixture_position):
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        assert cert is not None
        assert cert.y == (Fraction(1), Fraction(1))
        assert cert.q_columns == ((Fraction(1), Fraction(0)),) * 2
        assert validate_certificate(mkt_a, wc_fixture_position, cert)

    def test_inside_returns_none(self, mkt_a, wc_fixture_position):
        assert dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["1", "0"])) is None

    def test_frictionless_orthant_separation(self, mkt_b):
        cert = dual_certificate(mkt_b, mkt_b.zero_position(),
                                PortfolioVector.of(["-1", "0"]))
        assert cert is not None
        assert validate_certificate(mkt_b, mkt_b.zero_position(), cert)

    def test_tampered_orthogonal_direction(self, mkt_a, wc_fixture_position):
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        tampered = type(cert)(cert.q_columns, (Fraction(0), Fraction(1)),
                              cert.excluded_point)
        assert not validate_certificate(mkt_a, wc_fixture_position, tampered)

    def test_tampered_column_sum(self, mkt_a, wc_fixture_position):
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        tampered = type(cert)(((Fraction(1, 2), Fraction(0)),) * 2,
                              cert.y, cert.excluded_point)
        assert not validate_certificate(mkt_a, wc_fixture_position, tampered)

    def test_tampered_outside_dual_cone(self, mkt_a, wc_fixture_position):
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        tampered = type(cert)(cert.q_columns, (Fraction(-1), Fraction(0)),
                              cert.excluded_point)
        assert not validate_certificate(mkt_a, wc_fixture_position, tampered)

    def test_tampered_excluded_point_length(self, mkt_a, wc_fixture_position):
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        for coords in (["0"], ["0", "0", "5"]):
            tampered = type(cert)(cert.q_columns, cert.y, PortfolioVector.of(coords))
            assert not validate_certificate(mkt_a, wc_fixture_position, tampered)

    def test_tampered_column_count_and_length(self, mkt_a, wc_fixture_position):
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        col = (Fraction(1), Fraction(0))
        for columns in ((col,), (col,) * 3, (col, col + (Fraction(0),)), (col, (Fraction(1),))):
            tampered = type(cert)(columns, cert.y, cert.excluded_point)
            assert not validate_certificate(mkt_a, wc_fixture_position, tampered)

    def test_columns_differing_per_component_leave_k_plus(self, mkt_a, wc_fixture_position):
        # y = (1, 1) lies in K+, but with Q^1 = (1, 0) and Q^2 = (0, 1) the
        # scenario-1 row y_j dQ^j/dP = (2, 0) misses the generator (-1, 1) of K
        cert = dual_certificate(mkt_a, wc_fixture_position,
                                PortfolioVector.of(["0", "0"]))
        assert cert.y == (1, 1) and (-1, 1) in mkt_a.cone.generators
        columns = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        tampered = type(cert)(columns, cert.y, cert.excluded_point)
        assert not validate_certificate(mkt_a, wc_fixture_position, tampered)

    @pytest.mark.parametrize("rows", [
        [["-1", "-1"], ["-2", "0"], ["0", "-4"], ["0", "0"]],
        [["-1", "-1", "0"], ["-2", "0", "0"], ["0", "-4", "0"]],
        [["-1", "-1"], ["-2", "0"]],
    ], ids=["fourth-scenario", "third-asset", "two-scenarios"])
    def test_position_of_the_wrong_shape_is_rejected(self, mkt_b, var_fixture_position, rows):
        cert = dual_certificate(mkt_b, var_fixture_position, PortfolioVector.of(["0", "0"]))
        assert validate_certificate(mkt_b, var_fixture_position, cert)
        with pytest.raises(ShapeMismatch):
            validate_certificate(mkt_b, RandomVector.of(rows), cert)

    def test_only_orthogonal_separators(self, mkt_a):
        # second coordinate negative, first comfortably positive: only the
        # generator (0,1) of the dual cone separates, and it kills M
        y_vec = RandomVector.constant(2, ["5", "-1"])
        with pytest.raises(OnlyOrthogonalSeparators):
            dual_certificate(mkt_a, y_vec, PortfolioVector.of(["0", "0"]))

    def test_certified_point_is_genuinely_outside(self, mkt_a, mkt_b):
        rng = random.Random(17)
        found = 0
        while found < 20:
            mkt = mkt_b if found % 2 else mkt_a
            x = RandomVector.of([[Fraction(rng.randint(-4, 4), 2) for _ in range(2)]
                                 for _ in range(mkt.n)])
            u = PortfolioVector.of(mkt.from_m(
                tuple(Fraction(rng.randint(-6, 6), 2) for _ in range(mkt.m))))
            u_m = mkt.to_m(u.coords)
            inside = worst_case(mkt, x).contains_point(u_m)
            try:
                cert = dual_certificate(mkt, x, u)
            except OnlyOrthogonalSeparators:
                continue
            if inside:
                assert cert is None
            else:
                assert cert is not None
                assert validate_certificate(mkt, x, cert)
                found += 1


class TestOneScanCertificates:
    """``dual_certificate`` against the two-step reference: the worst-case
    value decides whether u is excluded, then a certificate or none."""

    @settings(max_examples=150, deadline=None)
    @given(certificate_cases())
    def test_agrees_with_the_worst_case_reference(self, case):
        mkt, y, u = case
        inside = worst_case(mkt, y).contains_point(mkt.to_m(u.coords))
        violated = {a for row in y.values for a in mkt.cone.halfspaces
                    if dot(a, tuple(r + c for r, c in zip(row, u.coords))) < 0}
        with mock.patch.object(represent, "worst_case", create=True) as local, \
                mock.patch.object(measures, "worst_case") as shared:
            try:
                cert = dual_certificate(mkt, y, u)
            except OnlyOrthogonalSeparators:
                cert = "orthogonal"
        assert not local.called and not shared.called
        assert inside == (not violated)
        if inside:
            assert cert is None
        elif cert == "orthogonal":
            assert all(dot(a, b) == 0 for a in violated for b in mkt.subspace.basis)
        else:
            assert cert.y in violated and cert.excluded_point == u
            assert validate_certificate(mkt, y, cert)

    def test_outside_m_or_of_the_wrong_shape_is_rejected(self):
        plane, y = CERTIFICATE_MARKETS["bidask-3-plane"], RandomVector.zero(3, 3)
        with pytest.raises(ShapeMismatch, match="not in the eligible subspace"):
            dual_certificate(plane, y, PortfolioVector.of([0, 0, 1]))
        assert dual_certificate(plane, y, PortfolioVector.of([1, 0, 0])) is None
        for wrong in (RandomVector.zero(2, 3), RandomVector.zero(3, 2)):
            with pytest.raises(ShapeMismatch):
                dual_certificate(plane, wrong, PortfolioVector.of([1, 0, 0]))


class TestStarLink:
    def _members(self, mkt_b):
        z1 = RandomVector.of([["1", "0"], ["0", "1"], ["0", "0"]])
        z2 = RandomVector.of([["0", "2"], ["1", "0"], ["0", "0"]])
        return [DominanceAt(z1), DominanceAt(z2)]

    def test_supremum_base_passes_star_check(self, mkt_b):
        members = self._members(mkt_b)
        y = RandomVector.constant(3, ["1", "2"])
        expr, report = star_link(mkt_b, members, y, BUDGET)
        assert report.passed
        assert report.law == "R6"

    def test_base_outside_intersection_rejected(self, mkt_b):
        members = self._members(mkt_b)
        with pytest.raises(NotInIntersection):
            star_link(mkt_b, members, mkt_b.zero_position(), BUDGET)

    def test_no_members_have_no_intersection(self, mkt_b):
        with pytest.raises(NotInIntersection, match="empty family"):
            star_link(mkt_b, [], mkt_b.zero_position(), BUDGET)

    def test_nonconvex_member_rejected(self, mkt_b):
        from svrisk.measures import OfMeasure
        with pytest.raises(ValueError):
            star_link(mkt_b, [OfMeasure(WorstCase())], mkt_b.zero_position(), BUDGET)

    def test_translation_beats_shift_on_remark_fixture(self, mkt_a):
        # B = (1,1) + K is nonempty yet misses M, so no eligible shift exists,
        # while translating by (1,1) yields a star-shaped measure
        from svrisk.measures import eval_acceptance
        z = RandomVector.constant(2, ["1", "1"])
        member = DominanceAt(z)
        assert eval_acceptance(mkt_a, member, mkt_a.zero_position()).is_empty()
        expr, report = star_link(mkt_a, [member], z, BUDGET)
        assert report.passed

    def test_hull_family_links_from_its_base(self, mkt_a, wc_fixture_position):
        # segment hulls from one base y to the anchors of a decomposition all
        # hold y, so the union translated by y is star-shaped
        y = RandomVector.constant(2, ["2", "2"])
        anchors = decompose(mkt_a, WorstCase(), "monetary", wc_fixture_position).anchors
        members = [SegmentHull(y, z) for z in anchors]
        for member, z in zip(members, anchors):
            assert accepts(mkt_a, member, y) and accepts(mkt_a, member, z)
        expr, report = star_link(mkt_a, members, y, BUDGET)
        assert report.passed


class TestEsssupBridge:
    def test_members_pass_on_full_subspace(self, mkt_b):
        z1 = RandomVector.of([["1", "0"], ["0", "1"], ["0", "0"]])
        z2 = RandomVector.of([["0", "2"], ["1", "0"], ["0", "0"]])
        report = esssup_bridge(mkt_b, [DominanceAt(z1), Segment(z2)], BUDGET)
        assert report.passed
        assert report.samples == BUDGET.count

    def test_small_subspace_rejected(self, mkt_a):
        with pytest.raises(SubspaceNotFull):
            esssup_bridge(mkt_a, [DominanceAt(mkt_a.zero_position())], BUDGET)


class TestFindStarMember:
    """Star-shaped members of a family, found by scanning the members: one
    that accepts the zero position induces a star-shaped measure."""

    def test_zero_anchor_family_has_member(self, mkt_a):
        fam = decompose(mkt_a, WorstCase(), "monetary", mkt_a.zero_position())
        zero = mkt_a.zero_position()
        stars = [m for m in fam.members if accepts(mkt_a, m, zero)]
        assert stars
        assert check_measure_law(mkt_a, OfAcceptance(stars[0]), "R6", BUDGET).passed

    def test_generic_family_has_none_and_union_fails_star(self, mkt_a, wc_fixture_position):
        fam = decompose(mkt_a, WorstCase(), "monetary", wc_fixture_position)
        zero = mkt_a.zero_position()
        assert not any(accepts(mkt_a, m, zero) for m in fam.members)
        union_measure = OfAcceptance(AccUnion(fam.members))
        report = check_measure_law(mkt_a, union_measure, "R6",
                                   SampleBudget(count=200, seed=2))
        assert not report.passed

    def test_singleton_segment_family(self, mkt_a, wc_fixture_position):
        z = wc_fixture_position.add_constant(["1", "0"])
        member = Segment(z)
        assert accepts(mkt_a, member, mkt_a.zero_position())
        assert check_measure_law(mkt_a, OfAcceptance(member), "R6", BUDGET).passed
