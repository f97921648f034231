"""Seeded checkers for the risk-measure and acceptance-set axioms.

A law check draws exact rational samples from a seeded stream and tests the
law's set relation exactly; "pass" therefore means "no counterexample at this
budget", never a proof.  Every failure carries a witness with the sampled
inputs, and :func:`recheck_witness` re-evaluates the violated relation on the
stored inputs independently of the original run.

Every law is one row of the law table ``_LAWS``: its operand, its sampler,
the relations that decide it and the laws it assumes.  One runner draws the
samples, checks them and builds the report for every row.  R4 and
subadditivity, a Minkowski sum inside a third set, build the sum only when
its offset sums leave the answer open (``sum_separating_point``).
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable

from . import _sampling as draw
from ._record import frozen
from .errors import BadBudget, EmptyBaseSet, SubspaceNotFull, UnknownDirection, UnknownLaw
from .geometry import (
    distinguishing_point,
    feasible_point,
    recession_upper_set,
    scale_set,
    separating_point,
    sum_separating_point,
    translate_set,
)
from .measures import (
    AccExpr,
    AccIntersection,
    MeasureExpr,
    OfAcceptance,
    OfMeasure,
    _print,
    _record_doc,
    accepts,
    eval_acceptance,
    eval_measure,
)
from .rationals import rat, vscale, zeros
from .scenario import Market, RandomVector, componentwise_sup


@frozen
class SampleBudget:
    """How many seeded samples to draw, and their seed; draws lie in [-3, 3], a constant."""

    count: int = 200
    seed: int = 0

    def __post_init__(self):
        if type(self.count) is not int or self.count < 1:
            raise BadBudget(f"budget count must be an int >= 1, got {self.count!r}")


@frozen
class LawReport:
    """Verdict plus re-checkable witness for one law at one budget."""

    law: str
    verdict: str  # "pass" | "fail"
    samples: int
    witness: dict | None
    seed: int
    budget: int

    to_doc = _record_doc

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


# ---------------------------------------------------------------------------
# witness (de)serialization
# ---------------------------------------------------------------------------


def _witness(relation: str, sample: dict, detail: dict | None) -> dict:
    """The witness document of ``relation`` violated on ``sample``."""
    doc = {"relation": relation, "sample": {k: _print(v) for k, v in sample.items()}}
    if detail:
        doc["detail"] = {k: _print(v) for k, v in detail.items()}
    return doc


def _deser(value):
    if isinstance(value, dict) and "rows" in value:
        return RandomVector.of(value["rows"])
    if isinstance(value, list):
        return tuple(rat(v) for v in value)
    if isinstance(value, str):
        return rat(value)
    return value


# ---------------------------------------------------------------------------
# relations: the exact set statements behind each law
# ---------------------------------------------------------------------------


@frozen
class _Relation:
    """An exact statement about one sample: ``holds(market, operand, sample)``
    returns ``(ok, detail)``; a violation's witness carries ``id`` and detail."""

    id: str
    holds: Callable


def _sets(rid: str, find, *sides) -> _Relation:
    """Holds when ``find`` of the sets that ``sides`` build from the sample, as
    ``separating_point(lhs, rhs)``, returns no point; a point is the witness."""
    def holds(market, r, s):
        w = find(*(side(market, r, s) for side in sides))
        return (True, None) if w is None else (False, {"separating_point": w})
    return _Relation(rid, holds)


def _keeps(rid: str, premises: tuple[str, ...], conclusion, note: str) -> _Relation:
    """If the sample positions named in ``premises`` are all accepted, the
    position ``conclusion(market, sample)`` is accepted too."""
    def holds(market, a, s):
        if not all(accepts(market, a, s[k]) for k in premises):
            return True, None  # vacuous
        ok = accepts(market, a, conclusion(market, s))
        return ok, None if ok else {"note": note}
    return _Relation(rid, holds)


def _scaled_value(market, r, s):
    """t R(X)."""
    return scale_set(s["t"], eval_measure(market, r, s["x"]))


def _value_scaled(market, r, s):
    """R(t X)."""
    return eval_measure(market, r, s["x"].scale(s["t"]))


def _shrunk(key: str):
    """R(b X) / b for b = s[key]."""
    return lambda m, r, s: scale_set(1 / s[key], eval_measure(m, r, s["x"].scale(s[key])))


def _mix(other: str):
    """t X + (1 - t) s[other]."""
    return lambda m, s: s["x"].scale(s["t"]).add(s[other].scale(1 - s["t"]))


def _x_scaled(m, s):
    return s["x"].scale(s["t"])


_R3_SUBSET = _sets("R3_subset", separating_point, lambda m, r, s: recession_upper_set(m.cone_in_m),
                   lambda m, r, s: eval_measure(m, r, m.zero_position()))


def _r3_disjoint(market, r, s):
    value = eval_measure(market, r, market.zero_position())
    for piece in value.pieces:
        w = feasible_point(piece.halfspaces + market.cone_in_m.neg_interior(), market.m)
        if w is not None:
            return False, {"common_point": w}
    return True, None


def _zero_in_r0(market, r, s):
    ok = eval_measure(market, r, market.zero_position()).contains_point(zeros(market.m))
    return ok, None if ok else {"note": "0 not in R(0)"}


_PH_POWERS = [Fraction(2) ** k for k in range(-3, 4)]
_NONNEG_T = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)]


def _ph_powers(market, r, s):
    x = s["x"]
    base = eval_measure(market, r, x)
    for t in _PH_POWERS:
        lhs = scale_set(t, base)
        rhs = eval_measure(market, r, x.scale(t))
        w = distinguishing_point(lhs, rhs)
        if w is not None:
            return False, {"t": t, "separating_point": w}
    return True, None


def _a3(market, a, s):
    u, v = s["u"], s["v"]
    if not accepts(market, a, market.add_eligible(market.zero_position(), u)):
        return False, {"note": "K cap M point rejected", "point": u}
    if accepts(market, a, market.add_eligible(market.zero_position(), v)):
        return False, {"note": "-int(K cap M) point accepted", "point": v}
    return True, None


def _agree(rid: str, direct, via, via_key: str) -> _Relation:
    """Two membership routes give the same answer on the sample."""
    def holds(market, operand, s):
        d, v = direct(market, operand, s), via(market, operand, s)
        return d == v, None if d == v else {"direct": d, via_key: v}
    return _Relation(rid, holds)


def _esssup_lift(market, a, s):
    sup = componentwise_sup(s["x"])
    ok = accepts(market, a, RandomVector.constant(market.n, sup.coords))
    return ok, None if ok else {"sup": sup}


# ---------------------------------------------------------------------------
# samplers: (market, operand, rng, i) -> sample dict, or None to skip
# ---------------------------------------------------------------------------


def _position_then(more, key: str = "x"):
    """Sampler: a sampled position under ``key``, then the entries of ``more``."""
    def sampler(market, operand, rng, i):
        return {key: draw.position(market, rng, i), **more(market, rng, i)}
    return sampler


def _accepted_then(more):
    """Sampler: an accepted position x, then the entries of ``more``; the
    draw is skipped when no accepted position is found."""
    def sampler(market, a, rng, i, **context):
        x = draw.accepted_position(market, a, rng, i)
        return None if x is None else {"x": x, **more(market, rng, i, **context)}
    return sampler


def _t01_or_end(rng, i):
    t = draw.dyadic_in_01(rng)
    return Fraction(rng.randint(0, 1)) if i % 4 == 3 else t


def _t_cycle(choices, rng, i):
    """Each of ``choices`` twice in turn, then random dyadic factors."""
    if i < 2 * len(choices):
        return choices[i % len(choices)]
    return draw.dyadic_in_01(rng) if rng.randint(0, 1) else draw.dyadic_gt1(rng)


_samp_x_u = _position_then(lambda m, rng, i: {"u": draw.eligible(m, rng)})
_samp_y_k = _position_then(lambda m, rng, i: {"k": draw.cone_position(m, rng)}, "y")
_samp_x_t01 = _position_then(lambda m, rng, i: {"t": draw.dyadic_in_01(rng)})
_samp_x_t_gt1 = _position_then(lambda m, rng, i: {"t": draw.dyadic_gt1(rng)})
_samp_x_only = _position_then(lambda m, rng, i: {})

_samp_acc_x = _accepted_then(lambda m, rng, i: {})
_samp_acc_x_u = _accepted_then(lambda m, rng, i: {"u": draw.km_point(m, rng, 1)})
_samp_acc_x_k = _accepted_then(lambda m, rng, i: {"k": draw.cone_position(m, rng)})
_samp_acc_x_t_nonneg = _accepted_then(lambda m, rng, i: {"t": _t_cycle(_NONNEG_T, rng, i)})
_samp_acc_x_t01 = _accepted_then(lambda m, rng, i: {"t": _t01_or_end(rng, i)})
_samp_acc_x_t_geq1 = _accepted_then(
    lambda m, rng, i: {"t": Fraction(1) if i % 4 == 3 else draw.dyadic_gt1(rng)})
_samp_star_at = _accepted_then(
    lambda m, rng, i, base: {"b": base[i % len(base)], "t": _t01_or_end(rng, i)})


def _samp_x_y(market, operand, rng, i):
    x = draw.position(market, rng, i)
    y = draw.rotated(x) if i % 2 == 0 else draw.position(market, rng, i + 10 ** 6)
    return {"x": x, "y": y}


def _samp_x_y_t(market, operand, rng, i):
    sample = _samp_x_y(market, operand, rng, i)
    sample["t"] = Fraction(1, 2) if i % 3 == 0 else draw.dyadic_in_01(rng)
    return sample


def _samp_x_t_pos(market, operand, rng, i):
    t = _t_cycle(_PH_POWERS, rng, i)
    return {"x": draw.position(market, rng, i), "t": t}


def _samp_x_betas(market, operand, rng, i):
    b2 = draw.dyadic_in_01(rng) if i % 2 else Fraction(1)
    b1 = b2 * draw.dyadic_gt1(rng)
    return {"x": draw.position(market, rng, i), "b1": b1, "b2": b2}


def _samp_a3(market, a, rng, i):
    return {"u": draw.km_point(market, rng, draw.BOUND),
            "v": draw.neg_interior_point(market, rng)}


def _samp_acc_pair_t(market, a, rng, i):
    x = draw.accepted_position(market, a, rng, i)
    y = draw.accepted_position(market, a, rng, i + 10 ** 6)
    if x is None or y is None:
        return None
    t = Fraction(1, 2) if i % 3 == 0 else draw.dyadic_in_01(rng)
    if i % 5 == 4:
        t = Fraction(rng.randint(0, 1))  # endpoints, (A4) allows them
    return {"x": x, "y": y, "t": t}


def _samp_corr_x_u(market, r, rng, i):
    x = draw.position(market, rng, i)
    if i % 2 == 0:
        value = eval_measure(market, r, x)
        if not value.is_empty():
            return {"x": x, "u": draw.pick_point(value, rng)}
    return {"x": x, "u": draw.eligible(market, rng)}


def _samp_corr_x(market, a, rng, i):
    if i % 2 == 0:
        x = draw.accepted_position(market, a, rng, i)
        if x is not None:
            return {"x": x}
    return {"x": draw.position(market, rng, i)}


# ---------------------------------------------------------------------------
# the law table
# ---------------------------------------------------------------------------


@frozen
class _Law:
    """One law: the relations that decide it, its sampler and its premises.

    ``kind`` names the public checker that runs the law ("measure",
    "acceptance", "correspondence"; None: run only by its own entry point or
    as a step of another law).  ``operand`` is the expression type the
    relations evaluate.  An exact law (no sampler) checks each relation once
    on the empty sample; a sampled law checks its first relation on every
    kept draw.  An ``implies`` step (premises, conclusion) runs all premise
    laws and then, unless one failed (a vacuous pass), the conclusion law; it
    counts the samples of the sampled premises and of the conclusion.
    """

    id: str
    kind: str | None
    operand: type
    relations: tuple[_Relation, ...] = ()
    sampler: Callable | None = None
    implies: tuple[tuple[tuple[str, ...], str], ...] = ()


_LAWS = {law.id: law for law in (
    _Law("R1", "measure", MeasureExpr, (_sets("R1", distinguishing_point,
        lambda m, r, s: eval_measure(m, r, m.add_eligible(s["x"], s["u"])),
        lambda m, r, s: translate_set(eval_measure(m, r, s["x"]), vscale(Fraction(-1), s["u"]))),),
        _samp_x_u),
    _Law("R2", "measure", MeasureExpr, (_sets(
        "R2", separating_point, lambda m, r, s: eval_measure(m, r, s["y"]),
        lambda m, r, s: eval_measure(m, r, s["y"].add(s["k"]))),), _samp_y_k),
    _Law("R3", "measure", MeasureExpr, (_R3_SUBSET, _Relation("R3_disjoint", _r3_disjoint))),
    _Law("R4", "measure", MeasureExpr, (_sets(
        "R4", sum_separating_point, _scaled_value,
        lambda m, r, s: scale_set(1 - s["t"], eval_measure(m, r, s["y"])),
        lambda m, r, s: eval_measure(m, r, _mix("y")(m, s))),), _samp_x_y_t),
    _Law("R5", "measure", MeasureExpr,
         (_sets("R5", distinguishing_point, _scaled_value, _value_scaled),), _samp_x_t_pos),
    _Law("R6", "measure", MeasureExpr,
         (_sets("R6", separating_point, _scaled_value, _value_scaled),), _samp_x_t01),
    _Law("R6equiv_shrink", "measure", MeasureExpr,
         (_sets("shrink", separating_point, _shrunk("b1"), _shrunk("b2")),), _samp_x_betas),
    _Law("R6equiv_tgeq1", "measure", MeasureExpr,
         (_sets("t_geq_1", separating_point, _value_scaled, _scaled_value),), _samp_x_t_gt1),
    _Law("subadditive", "measure", MeasureExpr, (_sets(
        "subadditive", sum_separating_point, lambda m, r, s: eval_measure(m, r, s["x"]),
        lambda m, r, s: eval_measure(m, r, s["y"]),
        lambda m, r, s: eval_measure(m, r, s["x"].add(s["y"]))),), _samp_x_y),
    _Law("lemma_KM_in_R0", "measure", MeasureExpr, (_R3_SUBSET,)),
    _Law("convex_implies_star", "measure", MeasureExpr,
         implies=((("zero_in_R0", "R4"), "R6"),)),
    _Law("sub_star_implies_ph", "measure", MeasureExpr,
         implies=((("subadditive", "R6"), "ph_powers"),)),
    _Law("zero_in_R0", None, MeasureExpr, (_Relation("zero_in_R0", _zero_in_r0),)),
    _Law("ph_powers", None, MeasureExpr, (_Relation("ph_powers", _ph_powers),), _samp_x_only),
    _Law("A1_translate", "acceptance", AccExpr, (_keeps(
        "A1_translate", ("x",), lambda m, s: m.add_eligible(s["x"], s["u"]),
        "accepted position lost under K cap M translate"),), _samp_acc_x_u),
    _Law("A2", "acceptance", AccExpr, (_keeps(
        "A2", ("x",), lambda m, s: s["x"].add(s["k"]), "monotone translate rejected"),),
        _samp_acc_x_k),
    _Law("A3", "acceptance", AccExpr, (_Relation("A3", _a3),), _samp_a3),
    _Law("A4", "acceptance", AccExpr,
         (_keeps("A4", ("x", "y"), _mix("y"), "mixture rejected"),), _samp_acc_pair_t),
    _Law("A5", "acceptance", AccExpr,
         (_keeps("A5", ("x",), _x_scaled, "cone scaling rejected"),), _samp_acc_x_t_nonneg),
    _Law("A6", "acceptance", AccExpr,
         (_keeps("A6", ("x",), _x_scaled, "segment toward zero rejected"),), _samp_acc_x_t01),
    _Law("A6equiv", "acceptance", AccExpr, (_keeps(
        "A6equiv", ("x",), lambda m, s: s["x"].scale(1 / s["t"]), "A not inside t*A"),),
        _samp_acc_x_t_geq1),
    _Law("R_eq_RAR", "correspondence", MeasureExpr, (_agree(
        "R_eq_RAR", lambda m, r, s: eval_measure(m, r, s["x"]).contains_point(s["u"]),
        lambda m, r, s: accepts(m, OfMeasure(r), m.add_eligible(s["x"], s["u"])),
        "via_acceptance"),), _samp_corr_x_u),
    _Law("A_eq_ARA", "correspondence", AccExpr, (_agree(
        "A_eq_ARA", lambda m, a, s: accepts(m, a, s["x"]),
        lambda m, a, s: eval_acceptance(m, a, s["x"]).contains_point(zeros(m.m)),
        "via_measure"),), _samp_corr_x),
    _Law("transfer", "correspondence", AccExpr,
         implies=((("A4",), "R4"), (("A6",), "R6"))),
    # check_star_at checks the second relation exactly at each base point
    _Law("star_at", None, AccExpr, (
        _keeps("star_at_mix", ("x",), _mix("b"), "segment toward base rejected"),
        _keeps("star_at_base", (), lambda m, s: s["b"], "base point not in acceptance set")),
        _samp_star_at),
    _Law("esssup_bridge", None, AccExpr,
         (_Relation("esssup_lift", _esssup_lift),), _samp_acc_x),
)}

MEASURE_LAWS = tuple(k for k, law in _LAWS.items() if law.kind == "measure")

ACCEPTANCE_LAWS = tuple(k for k, law in _LAWS.items() if law.kind == "acceptance")

CORRESPONDENCE_DIRECTIONS = tuple(k for k, law in _LAWS.items()
                                  if law.kind == "correspondence")


# ---------------------------------------------------------------------------
# the runner
# ---------------------------------------------------------------------------


def _operand_for(law: _Law, operand):
    """Measure relations run on the measure induced by an acceptance set."""
    if law.operand is MeasureExpr and isinstance(operand, AccExpr):
        return OfAcceptance(operand)
    return operand


def _run(law: _Law, market: Market, operand, budget: SampleBudget,
         name: str | None = None, **context) -> LawReport:
    """Check one law and report under ``name`` (default: the law id).

    ``context`` goes to the sampler as keyword arguments.
    """
    name = name or law.id
    total = 0
    for premises, conclusion in law.implies:
        reports = [_run(_LAWS[p], market, operand, budget) for p in premises]
        total += sum(r.samples for p, r in zip(premises, reports) if _LAWS[p].sampler)
        if not all(r.passed for r in reports):
            continue  # vacuous step
        then = _LAWS[conclusion]
        report = _run(then, market, _operand_for(then, operand), budget, name)
        total += report.samples
        if not report.passed:
            return LawReport(name, "fail", total, report.witness, budget.seed, budget.count)
    if law.implies:
        return LawReport(name, "pass", total, None, budget.seed, budget.count)

    if law.sampler is None:
        trials = [(relation, {}) for relation in law.relations]
    else:
        rng = random.Random(budget.seed)
        draws = (law.sampler(market, operand, rng, i, **context)
                 for i in range(budget.count))
        trials = ((law.relations[0], sample) for sample in draws if sample is not None)
    checked = 0
    for relation, sample in trials:
        checked += 1
        ok, detail = relation.holds(market, operand, sample)
        if not ok:
            samples = checked if law.sampler else len(law.relations)
            return LawReport(name, "fail", samples, _witness(relation.id, sample, detail),
                             budget.seed, budget.count)
    return LawReport(name, "pass", checked, None, budget.seed, budget.count)


# ---------------------------------------------------------------------------
# public checkers
# ---------------------------------------------------------------------------


def _law(law_id: str, kind: str, error: type, what: str) -> _Law:
    law = _LAWS.get(law_id)
    if law is None or law.kind != kind:
        raise error(f"unknown {what} {law_id!r}")
    return law


def check_measure_law(market: Market, r: MeasureExpr, law: str,
                      budget: SampleBudget = SampleBudget()) -> LawReport:
    """Check one measure axiom or derived law at the given budget."""
    return _run(_law(law, "measure", UnknownLaw, "measure law"), market, r, budget)


def check_acceptance_law(market: Market, a: AccExpr, law: str,
                         budget: SampleBudget = SampleBudget()) -> LawReport:
    """Check one acceptance-set axiom at the given budget."""
    return _run(_law(law, "acceptance", UnknownLaw, "acceptance law"), market, a, budget)


def check_correspondence(market: Market, operand, direction: str,
                         budget: SampleBudget = SampleBudget()) -> LawReport:
    """Sampled checks of the measure <-> acceptance-set correspondences."""
    spec = _law(direction, "correspondence", UnknownDirection, "correspondence direction")
    if not isinstance(operand, spec.operand):
        needed = "a measure" if spec.operand is MeasureExpr else "an acceptance"
        raise TypeError(f"{direction} needs {needed} expression")
    return _run(spec, market, operand, budget)


def check_star_at(market: Market, a: AccExpr, base,
                  budget: SampleBudget = SampleBudget()) -> LawReport:
    """Star-shapedness of the acceptance set at a finite base set.

    Verifies base subset of A exactly (necessity), then samples segments from
    accepted positions toward base points.
    """
    base = tuple(base)
    if not base:
        raise EmptyBaseSet("star-shapedness at the empty set is undefined")
    law = _LAWS["star_at"]
    in_base = law.relations[1]
    for idx, b in enumerate(base):
        ok, detail = in_base.holds(market, a, {"b": b})
        if not ok:
            doc = _witness(in_base.id, {"b": b}, {"base_index": idx, **(detail or {})})
            return LawReport("star_at", "fail", idx + 1, doc, budget.seed, budget.count)
    report = _run(law, market, a, budget, base=base)
    return LawReport("star_at", report.verdict, report.samples + len(base),
                     report.witness, budget.seed, budget.count)


def esssup_bridge(market: Market, members, budget: SampleBudget = SampleBudget()) -> LawReport:
    """On a full subspace, accepted positions stay accepted at their sup.

    Witnesses that the member intersection meets M iff it is nonempty when
    M = R^d: monotonicity lifts any accepted position to its deterministic
    componentwise supremum.  A failure witness rechecks against
    ``AccIntersection(members)``.  Raises SubspaceNotFull unless M = R^d, and
    ValueError when ``members`` is empty.
    """
    if not market.subspace.is_full():
        raise SubspaceNotFull("the ess-sup bridge needs M = R^d")
    return _run(_LAWS["esssup_bridge"], market, AccIntersection(members), budget)


def recheck_witness(market: Market, operand, report: LawReport) -> bool:
    """Re-evaluate a failure witness; True when the violation reproduces.

    A relation that belongs to a measure law runs on the induced measure when
    ``operand`` is an acceptance set.  Raises UnknownLaw when no law in the
    table checks the witness relation.
    """
    if report.witness is None:
        return False
    rid = report.witness["relation"]
    found = [(law, rel) for law in _LAWS.values() for rel in law.relations if rel.id == rid]
    if not found:
        raise UnknownLaw(f"no law checks relation {rid!r}")
    law, relation = found[0]
    sample = {k: _deser(v) for k, v in report.witness["sample"].items()}
    ok, _ = relation.holds(market, _operand_for(law, operand), sample)
    return not ok
