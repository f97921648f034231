"""Market ingestion, the K-induced order, and position arithmetic.

The order X >= Y is membership of X in DominanceAt(Y).
"""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from svrisk import _sampling
from svrisk.errors import (
    EmptyInterior,
    MalformedDocument,
    OrthantNotContained,
    ProbabilitySum,
    ShapeMismatch,
)
from svrisk.fixtures import MARKET_DOCS
from svrisk.measures import DominanceAt, accepts
from svrisk.rationals import dot, rat, vec
from svrisk.scenario import (
    PortfolioVector,
    RandomVector,
    componentwise_sup,
    load_market,
    load_position,
)

from oracles import in_cone, rows_plus_ref, rows_ref, rows_scale_ref, rows_sup_ref


class TestLoadMarket:
    def test_mkt_a_valid(self):
        mkt = load_market(MARKET_DOCS["mkt-a"])
        assert (mkt.n, mkt.d, mkt.m) == (2, 2, 1)
        assert mkt.cone_in_m.halfspaces == ((Fraction(1),),)

    def test_frictionless_valid(self):
        mkt = load_market(MARKET_DOCS["mkt-b"])
        assert (mkt.n, mkt.d, mkt.m) == (3, 2, 2)

    def test_json_text_source(self):
        import json
        mkt = load_market(json.dumps(MARKET_DOCS["mkt-a"]))
        assert mkt.d == 2

    def test_bidask_cone_section(self):
        doc = {"d": 2, "probs": ["1/2", "1/2"],
               "cone": {"bidask": [[1, 2], [2, 1]]},
               "subspace": {"coords": [0, 1]}}
        mkt = load_market(doc)
        assert mkt.cone.contains_orthant()

    def test_to_m_rejects_a_portfolio_outside_m(self):
        # M is the first coordinate axis of mkt-a
        mkt = load_market(MARKET_DOCS["mkt-a"])
        assert mkt.to_m((Fraction(3), Fraction(0))) == (3,)
        with pytest.raises(ShapeMismatch, match="not in the eligible subspace"):
            mkt.to_m((Fraction(0), Fraction(1)))

    def test_a_portfolio_outside_m_prints_as_rationals(self):
        mkt = load_market(MARKET_DOCS["mkt-a"])
        with pytest.raises(ShapeMismatch) as err:
            mkt.to_m((Fraction(0), Fraction(5, 2)))
        assert "portfolio (0, 5/2) is not" in str(err.value)
        assert "Fraction(" not in str(err.value)

    def test_probability_sum(self):
        doc = dict(MARKET_DOCS["mkt-a"], probs=["1/2", "1/3"])
        with pytest.raises(ProbabilitySum):
            load_market(doc)

    def test_nonpositive_probability(self):
        doc = dict(MARKET_DOCS["mkt-a"], probs=["3/2", "-1/2"])
        with pytest.raises(ProbabilitySum):
            load_market(doc)

    def test_orthant_not_contained(self):
        doc = dict(MARKET_DOCS["mkt-a"], cone={"halfspaces": [[1, -1]]})
        with pytest.raises(OrthantNotContained):
            load_market(doc)

    def test_no_halfspaces_is_the_whole_space(self):
        # K = R^2 has no rows to read the dimension from; it comes from d
        mkt = load_market({"d": 2, "probs": ["1/2", "1/2"],
                           "cone": {"halfspaces": []}, "subspace": {"coords": [0]}})
        assert mkt.cone.dim == 2 and in_cone(mkt.cone.halfspaces, (-1, -5))
        x = RandomVector.of([[0, 0], [1, 1]])
        assert accepts(mkt, DominanceAt(x), x) is True

    def test_empty_interior(self):
        doc = dict(MARKET_DOCS["mkt-b"], subspace={"basis": [[1, -1]]})
        with pytest.raises(EmptyInterior):
            load_market(doc)

    @pytest.mark.parametrize("mangle", [
        lambda d: "not json at all {",
        lambda d: {k: v for k, v in d.items() if k != "cone"},
        lambda d: dict(d, probs=["1/2", "oops"]),
        lambda d: dict(d, cone={"rays": [[1, 0]]}),
        lambda d: dict(d, subspace={"coords": [5]}),
    ])
    def test_malformed_documents(self, mangle):
        with pytest.raises(MalformedDocument):
            load_market(mangle(dict(MARKET_DOCS["mkt-a"])))

    @pytest.mark.parametrize("name, field, value", [
        ("mkt-a", "cone", 5), ("mkt-a", "cone", None), ("mkt-a", "subspace", 5),
        ("mkt-a", "subspace", None), ("mkt-a", "d", 2.5), ("mkt-1d", "d", True),
        ("mkt-1d", "d", 0),
    ])
    def test_mistyped_fields_are_named(self, name, field, value):
        with pytest.raises(MalformedDocument, match=f"'{field}'"):
            load_market(dict(MARKET_DOCS[name], **{field: value}))

    @pytest.mark.parametrize("part, message", [
        ({"cone": {"halfspaces": [[1, 0, 0], [0, 1]]}}, "cone halfspace rows must have length d"),
        ({"cone": {"bidask": [[1, 2, 2], [2, 1, 2], [2, 2, 1]]}}, "bidask matrix size differs from d"),
        ({"subspace": {"basis": [[1, 0, 0]]}}, "subspace basis vectors must have length d"),
        ({"subspace": {"span": [[1, 0]]}}, "subspace document needs 'coords' or 'basis'"),
        ({"subspace": {"coords": []}}, "subspace needs at least one basis vector"),
    ])
    def test_shape_errors_name_their_field(self, part, message):
        with pytest.raises(MalformedDocument) as err:
            load_market(dict(MARKET_DOCS["mkt-b"], **part))
        assert str(err.value) == message

    def test_dependent_subspace_is_malformed(self):
        doc = dict(MARKET_DOCS["mkt-b"], subspace={"coords": [0, 0]})
        with pytest.raises(MalformedDocument, match="linearly dependent"):
            load_market(doc)
        doc = dict(MARKET_DOCS["mkt-b"], subspace={"basis": [[1, 1], [2, 2]]})
        with pytest.raises(MalformedDocument) as err:
            load_market(doc)
        assert str(err.value) == ("bad market field 'subspace.basis': "
                                  "subspace basis is linearly dependent")

    def test_booleans_are_not_rationals(self, mkt_b):
        with pytest.raises(TypeError):
            rat(True)
        with pytest.raises(MalformedDocument):
            load_position({"rows": [[True, 0], [0, 1], [1, 1]]}, mkt_b)
        with pytest.raises(MalformedDocument, match="subspace coords"):
            load_market(dict(MARKET_DOCS["mkt-a"], subspace={"coords": [True]}))
        for pi in ([[1, True], [2, 1]], [[1, "x"], [2, 1]]):
            doc = dict(MARKET_DOCS["mkt-b"], cone={"bidask": pi})
            with pytest.raises(MalformedDocument, match="'cone.bidask'"):
                load_market(doc)

    @pytest.mark.parametrize("name, part, field", [
        ("mkt-b", {"probs": "1"}, "probs"),
        ("mkt-b", {"probs": "11"}, "probs"),
        ("mkt-1d", {"cone": {"halfspaces": "1"}}, "cone.halfspaces"),
        ("mkt-1d", {"cone": {"halfspaces": ["1"]}}, "cone.halfspaces"),
        ("mkt-b", {"cone": {"bidask": ["12", "21"]}}, "cone.bidask"),
        ("mkt-b", {"subspace": {"basis": ["10", "01"]}}, "subspace.basis"),
    ])
    def test_strings_are_not_vectors(self, name, part, field):
        with pytest.raises(MalformedDocument, match=f"'{field}'"):
            load_market(dict(MARKET_DOCS[name], **part))

    def test_zero_denominators_are_malformed(self, mkt_b):
        for text in ("1/0", " -3/0 "):
            with pytest.raises(ValueError, match="zero denominator"):
                rat(text)
        with pytest.raises(MalformedDocument, match="'probs'"):
            load_market(dict(MARKET_DOCS["mkt-b"], probs=["1/0", "1/2"]))
        with pytest.raises(MalformedDocument, match="'rows'"):
            load_position({"rows": [["1/0", 0], [0, 1], [1, 1]]}, mkt_b)

    @pytest.mark.parametrize("text", ["1 / 2", "1/ 2", "1_000", "1/2_0"])
    def test_literals_read_by_some_pythons_only_are_malformed(self, mkt_b, text):
        # Fraction reads '_' from Python 3.11 and spaces inside from 3.12; a
        # document parses, or fails, alike on every supported version
        with pytest.raises(ValueError, match="Invalid literal for Fraction"):
            rat(text)
        with pytest.raises(MalformedDocument, match="'rows'"):
            load_position({"rows": [[text, 0], [0, 0], [0, 0]]}, mkt_b)

    def test_digit_string_rows_are_malformed(self, mkt_b):
        with pytest.raises(TypeError):
            vec("12")
        with pytest.raises(MalformedDocument, match="'rows'"):
            load_position({"rows": ["12", "34", "56"]}, mkt_b)

    @pytest.mark.parametrize("source, message", [
        ("[1]", "position must be a JSON object, got list"),
        ([[1, 2]], "position must be a JSON object, got list"),
        ('{"rows": [[1,2]', "position does not parse as JSON"),
        ("", "position does not parse as JSON"),
        (b"3", "position must be a JSON object, got int"),
    ])
    def test_unparsable_positions_are_named(self, source, message):
        with pytest.raises(MalformedDocument, match=rf"^{message}"):
            load_position(source)

    def test_unparsable_documents_name_their_path(self):
        with pytest.raises(MalformedDocument, match=r"^measure\.translate\.y must be"):
            load_position([[1, 2]], path="measure.translate.y")
        with pytest.raises(MalformedDocument, match="^market does not parse as JSON"):
            load_market('{"d": 2,')
        with pytest.raises(MalformedDocument, match="^market must be a JSON object, got list"):
            load_market([MARKET_DOCS["mkt-a"]])

    def test_position_shape_check(self, mkt_a):
        with pytest.raises(ShapeMismatch):
            load_position({"rows": [["1", "2", "3"]]}, mkt_a)

    @pytest.mark.parametrize("rows, row", [
        ([["1", "0"], ["1"]], 1), ([["1"], ["1", "0"]], 1), ([["1", "0"], ["0", "1"], []], 2)])
    def test_ragged_rows_are_malformed(self, mkt_a, rows, row):
        # the first row no longer sets d for the others: every row must match it
        for parse in (lambda: load_position({"rows": rows}, mkt_a),
                      lambda: RandomVector.of(rows)):
            with pytest.raises(MalformedDocument, match=rf"'rows'.*row {row} "):
                parse()

    def test_portfolio_length_check(self, mkt_a, mkt_b):
        for coords in ((0,), (0, 0, 5)):
            with pytest.raises(ShapeMismatch):
                mkt_a.to_m(coords)
        with pytest.raises(ShapeMismatch):
            mkt_a.from_m((0, 0))
        from svrisk.measures import Shift, WorstCase, eval_measure
        from svrisk.scenario import PortfolioVector
        with pytest.raises(ShapeMismatch):
            eval_measure(mkt_b, Shift(WorstCase(), PortfolioVector.of([1])),
                         mkt_b.zero_position())


class TestDominates:
    def test_orthant_componentwise(self, mkt_b):
        x = RandomVector.constant(3, [2, 3])
        y = RandomVector.constant(3, [1, 3])
        assert accepts(mkt_b, DominanceAt(y), x)
        assert not accepts(mkt_b, DominanceAt(x), y)

    def test_friction_single_scenario(self, mkt_a):
        zero = mkt_a.zero_position()
        assert accepts(mkt_a, DominanceAt(zero), RandomVector.constant(2, [-1, 1]))
        assert not accepts(mkt_a, DominanceAt(zero), RandomVector.constant(2, [-1, 0]))

    def test_shape_mismatch(self, mkt_a):
        with pytest.raises(ShapeMismatch):
            accepts(mkt_a, DominanceAt(mkt_a.zero_position()), RandomVector.zero(3, 2))

    def test_reflexive(self, mkt_a):
        x = RandomVector.of([["1/2", "-3"], ["0", "7"]])
        assert accepts(mkt_a, DominanceAt(x), x)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=8, max_size=8),
           st.lists(st.integers(0, 2), min_size=8, max_size=8))
    def test_transitive_by_construction(self, base, steps):
        from svrisk.fixtures import market
        mkt = market("mkt-a")
        gens = mkt.cone.generators
        z = RandomVector.of([base[:2], base[2:4]])
        k1 = [[sum(c * g[j] for c, g in zip(steps[:2], gens)) for j in range(2)],
              [sum(c * g[j] for c, g in zip(steps[2:4], gens)) for j in range(2)]]
        k2 = [[sum(c * g[j] for c, g in zip(steps[4:6], gens)) for j in range(2)],
              [sum(c * g[j] for c, g in zip(steps[6:8], gens)) for j in range(2)]]
        y = z.add(RandomVector.of(k1))
        x = y.add(RandomVector.of(k2))
        assert accepts(mkt, DominanceAt(z), y) and accepts(mkt, DominanceAt(y), x)
        assert accepts(mkt, DominanceAt(z), x)

    def test_mutual_dominance_forces_lineality(self):
        # half-plane cone: dominance both ways puts rows in K cap -K
        doc = {"d": 2, "probs": ["1"], "cone": {"halfspaces": [[1, 1]]},
               "subspace": {"coords": [0, 1]}}
        mkt = load_market(doc)
        x = RandomVector.constant(1, [2, -2])
        zero = mkt.zero_position()
        assert accepts(mkt, DominanceAt(zero), x) and accepts(mkt, DominanceAt(x), zero)
        for row in x.values:
            for a in mkt.cone.halfspaces:
                assert dot(a, row) == 0


class TestTranslateAndScale:
    """t X + u through ``scale`` and ``add_constant``."""

    def test_identity(self):
        x = RandomVector.of([["-1", "0"], ["0", "2"]])
        assert x.scale(1).add_constant([0, 0]) == x

    def test_annihilation(self):
        x = RandomVector.of([["-1", "0"], ["0", "2"]])
        assert x.scale(0).add_constant([0, 0]) == RandomVector.zero(2, 2)

    def test_componentwise_arithmetic(self):
        x = RandomVector.of([["-1", "0"], ["0", "2"]])
        out = x.scale(2).add_constant(PortfolioVector.of([1, 0]).coords)
        assert out == RandomVector.of([["-1", "0"], ["1", "4"]])

    def test_exact_roundtrip(self):
        x = RandomVector.of([["1/3", "-5/7"], ["22/7", "0"]])
        u = PortfolioVector.of(["2/9", "-1/11"])
        assert x.add_constant(u.coords).add_constant([-c for c in u.coords]) == x

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            RandomVector.zero(2, 2).scale(1).add_constant(PortfolioVector.of([1]).coords)

    def test_difference(self):
        x = RandomVector.of([["1/3", "-5/7"], ["22/7", "0"]])
        y = RandomVector.of([["1", "1"], ["0", "1/7"]])
        assert x.sub(y) == RandomVector.of([["-2/3", "-12/7"], ["22/7", "-1/7"]])
        assert x.sub(y).add(y) == x
        for other in (RandomVector.zero(3, 2), RandomVector.zero(2, 1)):
            with pytest.raises(ShapeMismatch):
                x.sub(other)
        # same n and d, short row: the constructor rejects it, as ``of`` does
        with pytest.raises(ShapeMismatch, match=r"rows have lengths \[1, 2\]"):
            RandomVector(((1, 2), (3,)))


class TestComponentwiseSup:
    def test_fixture(self):
        x = RandomVector.of([["-1", "3"], ["2", "0"]])
        assert componentwise_sup(x).coords == (Fraction(2), Fraction(3))

    def test_deterministic_position(self):
        x = RandomVector.constant(3, ["1/2", "-4"])
        assert componentwise_sup(x).coords == (Fraction(1, 2), Fraction(-4))

    def test_sup_dominates(self, mkt_a):
        x = RandomVector.of([["-1", "3"], ["2", "0"]])
        w = componentwise_sup(x)
        lifted = RandomVector.constant(2, w.coords)
        assert accepts(mkt_a, DominanceAt(x), lifted)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                    min_size=4, max_size=4))
    def test_sup_dominates_property(self, vals):
        from svrisk.fixtures import market
        mkt = market("mkt-a")
        x = RandomVector.of([vals[:2], vals[2:]])
        lifted = RandomVector.constant(2, componentwise_sup(x).coords)
        assert accepts(mkt, DominanceAt(x), lifted)


FRACTION = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


@st.composite
def rows_and_operands(draw):
    """Two n x d matrices of Fractions (either may be all zero), a scalar and
    a constant row."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 3))

    def matrix():
        entry = st.just(Fraction(0)) if draw(st.booleans()) else FRACTION
        return draw(st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n))

    t = draw(st.one_of(st.just(Fraction(0)), FRACTION))
    return matrix(), matrix(), t, draw(st.lists(FRACTION, min_size=d, max_size=d))


class TestIntRows:
    """A position is an int matrix over its least common denominator; its
    arithmetic is that of Fraction rows (``oracles.rows_ref`` and kin)."""

    @settings(max_examples=200, deadline=None)
    @given(rows_and_operands())
    def test_int_arithmetic_is_fraction_arithmetic(self, case):
        rx, ry, t, c = case
        x, y = RandomVector.of(rx), RandomVector.of(ry)
        fx, fy = rows_ref(rx), rows_ref(ry)
        for got, ref in ((x, fx), (y, fy), (x.add(y), rows_plus_ref(fx, fy)),
                         (x.sub(y), rows_plus_ref(fx, fy, -1)),
                         (x.scale(t), rows_scale_ref(t, fx)),
                         (x.add_constant(c), rows_plus_ref(fx, [c] * len(fx)))):
            assert got.values == ref
            assert got.to_doc() == {"rows": [[str(v) for v in row] for row in ref]}
            assert all(type(v) is int for row in got.ints for v in row)
            assert got.den == math.lcm(*(v.denominator for row in ref for v in row))
            twin = RandomVector.of(ref)
            assert got == twin and hash(got) == hash(twin)
            assert pickle.loads(pickle.dumps(got)) == got == copy.deepcopy(got)
            assert componentwise_sup(got).coords == rows_sup_ref(ref)
        assert (x == y) == (fx == fy)
        assert (x.sub(x) == RandomVector.zero(x.n, x.d)) and x.scale(0) == x.sub(x)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.lists(FRACTION, min_size=1, max_size=3), min_size=2, max_size=4)
           .filter(lambda rows: len({len(r) for r in rows}) > 1))
    def test_ragged_rows(self, rows):
        with pytest.raises(ValueError):
            rows_ref(rows)
        with pytest.raises(MalformedDocument):
            RandomVector.of(rows)
        # the constructor rejects a ragged matrix too
        with pytest.raises(ShapeMismatch):
            RandomVector(tuple(tuple(range(len(r))) for r in rows))


@st.composite
def eligible_cases(draw):
    """(market, rows, other rows, t, u): an orthant market whose M is spanned
    by 1-3 positive rows, mostly not coordinate axes; two positions whose
    entries share factors with t (gcd(q, entries) > 1 is common); t of any
    sign, 0 among them; and M-coordinates u, as ints or Fractions."""
    d = draw(st.integers(1, 3))
    m = draw(st.integers(1, d))
    n = draw(st.integers(1, 4))
    positive = st.builds(Fraction, st.integers(1, 6), st.integers(1, 4))
    basis = draw(st.lists(st.lists(positive, min_size=d, max_size=d), min_size=m, max_size=m))
    try:
        mkt = load_market({"d": d, "probs": [f"1/{n}"] * n, "subspace": {"basis": basis},
                           "cone": {"halfspaces": [[int(i == j) for j in range(d)]
                                                   for i in range(d)]}})
    except MalformedDocument:  # dependent rows
        assume(False)
    entry = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6)))
    matrix = st.lists(st.lists(entry, min_size=d, max_size=d), min_size=n, max_size=n)
    t = draw(st.just(Fraction(0))
             | st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 8))))
    u = draw(st.lists(entry | st.integers(-5, 5), min_size=m, max_size=m))
    return mkt, draw(matrix), draw(matrix), t, u


def _is_reduced(x: RandomVector) -> bool:
    return x.den > 0 and math.gcd(x.den, *(v for row in x.ints for v in row)) == 1


class TestReducedPositions:
    """Equality of positions is by fields, so every ``RandomVector`` that the
    package builds must be reduced: den > 0 and gcd(den, entries) = 1."""

    @settings(max_examples=150, deadline=None)
    @given(eligible_cases(), st.integers(0, 2 ** 32))
    def test_every_built_position_is_reduced(self, case, seed):
        mkt, rx, ry, t, u = case
        x, y, shift, rng = RandomVector.of(rx), RandomVector.of(ry), mkt.from_m(u), random.Random(seed)
        built = [x, y, RandomVector.zero(mkt.n, mkt.d), RandomVector.constant(mkt.n, shift),
                 x.add(y), x.sub(y), x.sub(x), x.scale(t), y.scale(t), x.add_constant(shift),
                 mkt.add_eligible(x, u), _sampling.rotated(x), _sampling.cone_position(mkt, rng)]
        built += [_sampling.position(mkt, rng, i) for i in range(2 * mkt.d + 4)]
        assert all(map(_is_reduced, built))
        # the checked constructor keeps a reduced matrix as it is
        assert all(RandomVector(x.ints, x.den) == x for x in built)

    def test_the_constructor_reduces(self):
        x = RandomVector(((2,),), 2)
        assert x == RandomVector.of([[1]]) and hash(x) == hash(RandomVector.of([[1]]))
        assert RandomVector(((4, -6), (0, 2)), 6) == RandomVector.of([["2/3", -1], [0, "1/3"]])
        assert _is_reduced(RandomVector(((0, 0),), 5)) and RandomVector(((0, 0),), 5).den == 1

    @pytest.mark.parametrize("den", [0, -2, Fraction(2), 2.0, True, "2"])
    def test_the_constructor_rejects_a_bad_den(self, den):
        with pytest.raises(ValueError, match="den must be a positive int"):
            RandomVector(((1,),), den)


class TestIntPaths:
    """``scale``, ``add``, ``sub`` and ``Market.add_eligible`` stay in ints;
    each equals the same arithmetic on the ``values`` view, rebuilt by ``of``."""

    @settings(max_examples=200, deadline=None)
    @given(eligible_cases())
    def test_int_paths_are_the_arithmetic_of_the_values(self, case):
        mkt, rx, ry, t, u = case
        x, y = RandomVector.of(rx), RandomVector.of(ry)
        shift = mkt.from_m(u)
        for got, rows in ((x.scale(t), [[t * v for v in r] for r in x.values]),
                          (x.add(y), rows_plus_ref(x.values, y.values)),
                          (x.sub(y), rows_plus_ref(x.values, y.values, -1)),
                          (mkt.add_eligible(x, u), rows_plus_ref(x.values, [shift] * x.n))):
            twin = RandomVector.of(rows)
            assert got == twin and got.ints == twin.ints and got.den == twin.den
            assert all(type(v) is int for row in got.ints for v in row)
        assert mkt.add_eligible(x, u) == x.add_constant(shift)
        assert mkt.add_eligible(x, u) == mkt.add_eligible(x, tuple(map(Fraction, u)))

    @pytest.mark.parametrize("rows, t, expected", [
        ([[2]], Fraction(1, 2), ((1,),)),  # gcd(q, entries) = 2 cancels
        ([[2, 4], [6, 8]], Fraction(3, 2), ((3, 6), (9, 12))),
        ([["1/6", "1/3"]], 3, ((1, 2),)),  # gcd(p, den) = 3 cancels
        ([["1/6", "1/3"]], Fraction(-3, 4), ((-1, -2),)),
        ([["1/6", "-5"]], 0, ((0, 0),)),
        ([[0, 0]], Fraction(5, 7), ((0, 0),)),
    ])
    def test_scale_cancels_only_what_it_can(self, rows, t, expected):
        x = RandomVector.of(rows).scale(t)
        assert x == RandomVector.of([[Fraction(t) * rat(v) for v in r] for r in rows])
        assert x.ints == expected

    def test_add_eligible_on_a_skew_basis(self):
        # M spanned by (1, 2) and (3/2, 1): u = (2, -2) is the portfolio (-1, 2)
        mkt = load_market({"d": 2, "probs": ["1/2", "1/2"],
                           "subspace": {"basis": [[1, 2], ["3/2", 1]]},
                           "cone": {"halfspaces": [[1, 0], [0, 1]]}})
        x = RandomVector.of([["1/2", 0], [0, "1/3"]])
        assert mkt.from_m([2, -2]) == (-1, 2)
        assert mkt.add_eligible(x, [2, -2]) == RandomVector.of([["-1/2", 2], [-1, "7/3"]])
        with pytest.raises(ShapeMismatch):
            mkt.add_eligible(x, [1])
        with pytest.raises(ShapeMismatch):
            mkt.add_eligible(RandomVector.zero(2, 3), [1, 1])


def of_ref(rows):
    """``RandomVector.of`` with every entry read by ``vec``, that is ``rat``."""
    values = tuple(vec(r) for r in rows)
    for i, r in enumerate(values):
        if len(r) != len(values[0]):
            raise MalformedDocument(f"'rows' must have one length: row {i} has "
                                    f"{len(r)} entries, row 0 has {len(values[0])}")
    den = math.lcm(*(c.denominator for r in values for c in r))
    return RandomVector(tuple(tuple(c.numerator * (den // c.denominator) for c in r)
                              for r in values), den)


# entries a document may hold: ints, 'p' and 'p/q' strings, and text that
# ``rat`` reads otherwise or rejects
ENTRIES = st.one_of(
    st.integers(-10 ** 20, 10 ** 20),
    FRACTION,
    st.builds(lambda p, q, sign: f"{sign}{p}/{q}", st.integers(0, 99), st.integers(0, 12),
              st.sampled_from(("", "-"))),
    st.builds(lambda p, sign: f"{sign}{p}", st.integers(0, 10 ** 20), st.sampled_from(("", "-"))),
    st.sampled_from(("1/0", "-0/0", "1/-2", "--1", "-", "", "/2", "1/", "1//2", " 1", "2 ",
                     "1 / 2", "+3", "+3/4", "1_000", "1/2_0", "0.5", "-1.25", "1e3", "x",
                     "１", "٢/3", "007/014", True, False, 1.5, None)),
    st.text(alphabet="0123456789-/+ ._", max_size=6))


class TestParsedEntries:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.lists(ENTRIES, min_size=1, max_size=3), min_size=1, max_size=3)
           | st.lists(st.text(max_size=3), min_size=1, max_size=2))
    def test_of_reads_entries_as_rat_does(self, rows):
        # the int and digit-string fast path against vec/rat: the same
        # position, or the same error and message
        try:
            ref = of_ref(rows)
        except Exception as e:  # noqa: BLE001 - the error itself is compared
            with pytest.raises(type(e)) as got:
                RandomVector.of(rows)
            assert type(got.value) is type(e) and str(got.value) == str(e)
            return
        assert RandomVector.of(rows) == ref
