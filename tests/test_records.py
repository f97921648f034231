"""Value-record semantics of every expression, geometry, market and law record.

Each record class is found by scanning the svrisk modules, so a new record
without an example here fails the suite.  The checks pin the behaviour the
records had as frozen dataclasses: class-strict equality, a hash of the field
values, no assignment or deletion, the ``Name(field=value, ...)`` repr, no
ordering, copies, defaults and keywords, and validation on every construction.
"""

import copy
import importlib
import os
import pickle
import pkgutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import svrisk
from svrisk import laws
from svrisk._record import fields
from svrisk.cones import EligibleSubspace, dual_cone
from svrisk.errors import BadLevel, MalformedDocument, ProbabilitySum
from svrisk.fixtures import market, position
from svrisk.geometry import (
    Cone,
    Halfspace,
    Polyhedron,
    UpperSet,
    convert_rep,
    hs,
    recession_upper_set,
)
from svrisk.laws import LawReport, SampleBudget
from svrisk.measures import (
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
)
from svrisk.represent import DecompositionFamily, DualCertificate
from svrisk.scenario import PortfolioVector, RandomVector, ScenarioSpace

SRC = Path(svrisk.__file__).parent


def record_classes():
    """Every record class defined in an svrisk module."""
    found = set()
    for info in pkgutil.iter_modules(svrisk.__path__):
        mod = importlib.import_module(f"svrisk.{info.name}")
        for value in vars(mod).values():
            if (isinstance(value, type) and value.__module__ == mod.__name__
                    and "_record_fields" in vars(value)):
                found.add(value)
    return found


def examples():
    mkt = market("mkt-a")
    x = position("wc-fixture")
    wc = WorstCase()
    dom = DominanceAt(x)
    zero = PortfolioVector.of([0, 0])
    return [
        Halfspace((1, 0), 2), Polyhedron(1, (hs([1], 0),)),
        convert_rep(Polyhedron(1, (hs([1], 0),))), mkt.cone_in_m,
        recession_upper_set(mkt.cone_in_m), dual_cone(mkt.cone), mkt.cone, mkt.subspace,
        mkt.space, x, zero, mkt,
        wc, VaRWeak(Fraction(1, 4)), VaRStrong(Fraction(1, 4)), OfAcceptance(dom),
        Translate(wc, x), Shift(wc, zero), MeasureUnion((wc, wc)),
        MeasureIntersection((wc, wc)), ConvexCombo(Fraction(1, 2), wc, wc), dom, Segment(x),
        Ray(x), SegmentHull(x, x), OfMeasure(wc), AccUnion((dom,)), AccIntersection((dom,)),
        DecompositionFamily("monetary", (dom,), (x,)),
        DualCertificate(((Fraction(1), Fraction(0)),), (1, 1), zero),
        SampleBudget(), LawReport("R1", "pass", 1, None, 0, 1),
        laws._LAWS["R3"].relations[1], laws._LAWS["R1"],
    ]


EXAMPLES = examples()
# the one Cone record appears as K cap M, the dual of K and K; each example
# keeps the id of the class that held that role before the cone types merged
_CONE_ROLES = iter(["ConeInM", "Cone", "SolvencyCone"])
# likewise the one Hull record appears in the four shapes that were classes
_HULL_ROLES = iter(["DominanceAt", "Segment", "Ray", "SegmentHull"])
# and the one VaR record in the two kinds that were classes
_VAR_ROLES = iter(["VaRWeak", "VaRStrong"])
_ROLES = {Cone: _CONE_ROLES, Hull: _HULL_ROLES, VaR: _VAR_ROLES}
IDS = [next(_ROLES[type(r)]) if type(r) in _ROLES else type(r).__name__ for r in EXAMPLES]


def field_values(record):
    return tuple(getattr(record, name) for name in fields(record))


def test_every_record_class_has_an_example():
    decorated = sum(path.read_text().count("@frozen\nclass ") for path in SRC.glob("*.py"))
    classes = record_classes()
    assert len(classes) == decorated == 28
    assert {type(r) for r in EXAMPLES} == classes


@pytest.mark.parametrize("record", EXAMPLES, ids=IDS)
class TestRecordSemantics:
    def test_equal_fields_equal_records_equal_hashes(self, record):
        twin = type(record)(*field_values(record))
        assert twin is not record
        assert twin == record and not twin != record
        assert hash(twin) == hash(record) == hash(field_values(record))

    def test_equality_is_class_strict(self, record):
        values = field_values(record)
        assert record != values and values != record
        for other in record_classes() - {type(record)}:
            try:
                lookalike = other(*values)
            except Exception:
                continue
            assert lookalike != record and record != lookalike

    def test_fields_cannot_be_set_or_deleted(self, record):
        for name in fields(record) + ("extra",):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert record == type(record)(*field_values(record))

    def test_copies_are_equal(self, record):
        assert copy.copy(record) == record == copy.deepcopy(record)
        if type(record).__name__ not in ("_Relation", "_Law"):  # they hold lambdas
            assert pickle.loads(pickle.dumps(record)) == record

    def test_dataclass_repr(self, record):
        items = ", ".join(f"{name}={getattr(record, name)!r}" for name in fields(record))
        assert repr(record) == f"{type(record).__qualname__}({items})"

    def test_no_ordering_and_no_iteration(self, record):
        with pytest.raises(TypeError):
            record < record  # noqa: B015
        with pytest.raises(TypeError):
            iter(record)


class TestConstruction:
    def test_class_strict_pairs(self):
        quarter = Fraction(1, 4)
        assert VaRWeak(quarter) != VaRStrong(quarter)
        assert VaRWeak(quarter) == VaRWeak("1/4")
        parts = (WorstCase(), VaRStrong(quarter))
        assert MeasureUnion(parts) != MeasureIntersection(parts)
        dom = (DominanceAt(position("wc-fixture")),)
        assert AccUnion(dom) != AccIntersection(dom)

    def test_defaults_and_keywords(self):
        h = Halfspace((1, 2))
        assert (h.offset, h.strict) == (0, False)
        assert Halfspace(normal=(1, 2), strict=True) == Halfspace((1, 2), 0, True)
        budget = SampleBudget(count=5)
        assert (budget.count, budget.seed) == (5, 0) and fields(budget) == ("count", "seed")
        assert SampleBudget(5, 2) == SampleBudget(count=5, seed=2)
        mkt = market("mkt-a")
        assert UpperSet(1, (), mkt.cone_in_m, canonical=True).canonical
        fam = DecompositionFamily("monetary", (), ())
        assert fields(fam) == ("kind", "members", "anchors", "empty_value")
        assert not fam.empty_value

    @pytest.mark.parametrize("build", [
        lambda: SampleBudget(count=5, cnt=5),
        lambda: SampleBudget(1, 2, 3, 4),
        lambda: LawReport("R1", "pass"),
        lambda: Halfspace(),
        lambda: Halfspace((1,), offset=1, sign=1),
        lambda: SampleBudget(5, bound=2),
    ], ids=["unknown-keyword", "too-many", "missing", "hot-missing", "hot-unknown",
            "removed-bound"])
    def test_bad_arguments_raise_type_error(self, build):
        with pytest.raises(TypeError):
            build()

    def test_validation_runs_on_every_construction(self):
        with pytest.raises(BadLevel):
            VaRWeak(2)
        with pytest.raises(BadLevel):
            ConvexCombo(Fraction(3, 2), WorstCase(), WorstCase())
        with pytest.raises(ProbabilitySum):
            ScenarioSpace((Fraction(1, 2),))
        with pytest.raises(MalformedDocument):
            EligibleSubspace(((1, 0), (2, 0)))
        assert VaRStrong("1/4").level == Fraction(1, 4)
        assert MeasureUnion([WorstCase()]).parts == (WorstCase(),)

    def test_hot_records_carry_no_instance_dict(self):
        mkt = market("mkt-a")
        for record in (Halfspace((1,)), Polyhedron(1, ()), recession_upper_set(mkt.cone_in_m),
                       RandomVector(((1,),))):
            assert not hasattr(record, "__dict__")

    def test_non_records_have_no_fields(self):
        assert fields((1, 2)) is None and fields(Fraction(1)) is None
        assert fields(WorstCase()) == ()
        assert fields(Halfspace((1,))) == ("normal", "offset", "strict")
        assert fields(Polyhedron(1, ())) == ("dim", "halfspaces")


def test_import_loads_no_dataclasses_or_inspect():
    """The CLI imports neither ``dataclasses`` nor ``inspect`` (start-up cost)."""
    code = ("import sys, svrisk.cli; "
            "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
