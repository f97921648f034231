"""Golden law corpus: exact report documents pinned per law, operand and seed.

Every case runs a law checker at a small budget and compares the whole
``LawReport.to_doc()`` (verdict, sample count, witness relation, sample and
detail) with ``golden/laws.json``; every failing report also pins what
``recheck_witness`` says about its witness.  The corpus was recorded before
the law table replaced the per-law registries, so it holds the checkers to
byte-identical output across that rewrite.

Re-record (only when a change to the reports is intended)::

    PYTHONPATH=src python tests/test_golden_laws.py --record
"""

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from svrisk.fixtures import market
from svrisk.laws import (
    ACCEPTANCE_LAWS,
    CORRESPONDENCE_DIRECTIONS,
    MEASURE_LAWS,
    SampleBudget,
    check_acceptance_law,
    check_correspondence,
    check_measure_law,
    check_star_at,
    esssup_bridge,
    recheck_witness,
)
from svrisk.measures import (
    DominanceAt,
    OfMeasure,
    Ray,
    Segment,
    SegmentHull,
    Shift,
    VaRStrong,
    VaRWeak,
    WorstCase,
)
from svrisk.scenario import PortfolioVector, RandomVector

GOLDEN = Path(__file__).parent / "golden" / "laws.json"
SEEDS = (0, 7)
COUNT = 8
MARKETS = ("mkt-a", "mkt-b")

ANCHORS = {
    "mkt-a": RandomVector.of([["-1", "1"], ["1", "0"]]),
    "mkt-b": RandomVector.of([["-1", "1"], ["1", "0"], ["0", "-1"]]),
}


def _measures(name):
    out = {"wc": WorstCase(), "var-strong:1/4": VaRStrong(Fraction(1, 4)),
           "var-weak:1/4": VaRWeak(Fraction(1, 4))}
    if name == "mkt-a":
        out["shift-wc-(-1,0)"] = Shift(WorstCase(), PortfolioVector.of(["-1", "0"]))
    return out


def _acceptances(name, mkt):
    z = ANCHORS[name]
    y = RandomVector.constant(mkt.n, ["1", "1"])
    return {"dominance_at": DominanceAt(z), "segment": Segment(z), "ray": Ray(z),
            "segment_hull": SegmentHull(y, z), "of_measure_wc": OfMeasure(WorstCase())}


def _cases():
    """(case id, market, operand, thunk returning the LawReport)."""
    for name in MARKETS:
        mkt = market(name)
        measures = _measures(name)
        acceptances = _acceptances(name, mkt)
        # one acceptance set that is star-shaped at zero, one that is not
        corr_acc = {k: acceptances[k] for k in ("dominance_at", "segment")}
        for seed in SEEDS:
            budget = SampleBudget(count=COUNT, seed=seed)
            tag = f"{name}/seed{seed}"
            for mid, r in measures.items():
                for law in MEASURE_LAWS:
                    yield (f"{tag}/measure/{mid}/{law}", mkt, r,
                           lambda m=mkt, r=r, law=law, b=budget: check_measure_law(m, r, law, b))
            for aid, a in acceptances.items():
                for law in ACCEPTANCE_LAWS:
                    yield (f"{tag}/acceptance/{aid}/{law}", mkt, a,
                           lambda m=mkt, a=a, law=law, b=budget: check_acceptance_law(m, a, law, b))
            for direction in CORRESPONDENCE_DIRECTIONS:
                for oid, op in (measures if direction == "R_eq_RAR" else corr_acc).items():
                    yield (f"{tag}/correspondence/{oid}/{direction}", mkt, op,
                           lambda m=mkt, op=op, d=direction, b=budget:
                           check_correspondence(m, op, d, b))
            y = RandomVector.constant(mkt.n, ["1", "1"])
            above = [y, y.add_constant(["1", "0"]), y.add_constant(["0", "2"])]
            outside = [y, RandomVector.constant(mkt.n, ["0", "-1"])]
            for bid, base in (("passing", above), ("failing", outside)):
                yield (f"{tag}/star_at/{bid}", mkt, DominanceAt(y),
                       lambda m=mkt, y=y, base=base, b=budget:
                       check_star_at(m, DominanceAt(y), base, b))
            if mkt.subspace.is_full():
                members = (DominanceAt(ANCHORS[name]), Segment(ANCHORS[name]), Ray(y))
                yield (f"{tag}/esssup_bridge", mkt, members,
                       lambda m=mkt, members=members, b=budget: esssup_bridge(m, members, b))


def _entry(mkt, operand, report):
    entry = {"report": report.to_doc()}
    if not report.passed:
        entry["recheck"] = recheck_witness(mkt, operand, report)
    return entry


def record() -> dict:
    return {cid: _entry(mkt, op, thunk()) for cid, mkt, op, thunk in _cases()}


CASES = list(_cases())


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_corpus_covers_every_case(golden):
    assert sorted(golden) == sorted(cid for cid, *_ in CASES)


@pytest.mark.parametrize("case", CASES, ids=[c[0] for c in CASES])
def test_report_matches_golden(golden, case):
    cid, mkt, operand, thunk = case
    assert _entry(mkt, operand, thunk()) == golden[cid]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
