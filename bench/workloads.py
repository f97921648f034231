"""Seeded inputs, operation lists and output checks of the three workloads.

Inputs come from the workload seed: bid-ask markets (spread 3/2, M = R^d)
and half-integer payoffs.  Each position is a fixed base position (payoffs in
[-4, 4]) moved by a seeded constant portfolio in M, with its scenarios in a
seeded order where the probabilities are uniform; certificate points move
with it.  Outputs differ from seed to seed, but the work does not: a value
moves with the position, so the runs of different seeds measure the program
rather than how hard their random payoffs happen to be.  Law checks keep a
fixed sample seed (see ``documents``).  The program only receives the
generated documents.  An operation is one library call (one CLI invocation
for ``cli``).  Each result is checked against an independent oracle written
here: definitional membership for values, the known axiom profile for law
reports, exact re-validation for decompositions and certificates.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import svrisk
from svrisk import fixtures

LEVEL = Fraction(1, 4)
SPREAD = "3/2"
LAW_SEED = 0    # the CLI's default sample seed

# One sentence per workload on why it was chosen; BENCHMARK.json repeats them.
WHY = {
    "eval": "eval_measure over growing n, d: V@R subset enumeration and canonicalize "
            "dominate. var-weak stays at d=2: one call at n=3, d=3 takes 17-24 s, "
            "about 40 s at n=4.",
    "checks": "Law checks, decompositions, certificates: many small set comparisons. "
              "Keeps an open finding: 6x3 wc monetary reconstruct_check fails "
              "(K cap M has 6 facets).",
    "cli": "Sequential CLI runs: interpreter start, import, document I/O and output "
           "formatting, which the library workloads never time.",
}


# ---------------------------------------------------------------------------
# documents
# ---------------------------------------------------------------------------


BASE_SEED = 0   # draws the base positions that every workload seed moves


def _rng(seed: int, label: str) -> random.Random:
    return random.Random(f"{seed}:{label}")


def moved(doc: dict, rng, coords, shuffle: bool = False) -> dict:
    """``doc`` plus one seeded half-integer portfolio on ``coords`` in every
    scenario; with ``shuffle`` also its scenarios in a seeded order."""
    d = len(doc["rows"][0])
    shift = [Fraction(rng.randint(-4, 4), 2) if j in coords else Fraction(0) for j in range(d)]
    rows = [[svrisk.rationals.fmt(Fraction(v) + t) for v, t in zip(row, shift)]
            for row in doc["rows"]]
    if shuffle:
        rng.shuffle(rows)
    return {"rows": rows}


def _half(rng, low=-8, high=8) -> str:
    return f"{rng.randint(low, high)}/2"


def bidask_doc(n: int, d: int, probs=None) -> dict:
    spread = [[1 if i == j else SPREAD for j in range(d)] for i in range(d)]
    return {"d": d, "probs": probs or [f"1/{n}"] * n, "cone": {"bidask": spread},
            "subspace": {"coords": list(range(d))}}


def seeded_probs(rng, n: int) -> list[str]:
    """A shuffled fixed weight profile: the subset structure is seed-free."""
    weights = [1 + i % 3 for i in range(n)]
    rng.shuffle(weights)
    total = sum(weights)
    return [svrisk.rationals.fmt(Fraction(w, total)) for w in weights]


def incomparable_doc(rng, n: int, d: int) -> dict:
    """Scenario i loses only in asset i mod d, so no scenario dominates the
    others and the worst-case value has several vertices."""
    rows = []
    for i in range(n):
        row = [_half(rng, 0, 3) for _ in range(d)]
        row[i % d] = _half(rng, -8, -5)
        rows.append(row)
    return {"rows": rows}


def certificate_points(rng, rows, first_only: bool) -> list[list[str]]:
    """One portfolio inside the worst-case value at ``rows`` and two outside.

    Inside: every scenario plus u is >= 0.  Outside: every scenario plus u is
    < 0, which no solvency cone here contains.  On mkt-a (M = first axis, K =
    {x1 + x2 >= 0, x2 >= 0}) the same holds for the sums x1 + x2.  A fixed
    number of certificates keeps the operation count fixed.
    """
    x = [[Fraction(v) for v in row] for row in rows]
    if first_only:
        x = [[row[0] + row[1]] for row in x]
    low = [min(row[j] for row in x) for j in range(len(x[0]))]
    high = [max(row[j] for row in x) for j in range(len(x[0]))]
    off = [Fraction(rng.randint(0, 4), 2) for _ in range(3)]
    points = [[-v + off[0] for v in low]] + [[-v - 1 - o for v in high] for o in off[1:]]
    if first_only:
        points = [p + [Fraction(0)] for p in points]
    return [[svrisk.rationals.fmt(v) for v in p] for p in points]


def position_doc(rng, n: int, d: int, first_free_only: bool = False) -> dict:
    """Half-integer payoffs; on mkt-a the uncompensable coordinate stays >= 0."""
    rows = []
    for _ in range(n):
        row = [_half(rng) for _ in range(d)]
        if first_free_only:
            row[1:] = [_half(rng, 0, 8) for _ in row[1:]]
        rows.append(row)
    return {"rows": rows}


# ---------------------------------------------------------------------------
# set-up and operations
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    """Parsed documents of one workload: what a user loads before working."""

    markets: dict[str, Any]
    positions: dict[str, Any]
    workdir: str | None = None   # where ``cli`` wrote its documents

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, f"{name}.json")


@dataclass
class Op:
    """One timed call; ``verify`` judges its result (None means correct).

    ``after``: run only after that op returned, and then only when its result
    satisfies ``when`` (a recheck needs a failing report, a validation a
    certificate).
    """

    name: str
    call: Callable[[Any], Any]
    verify: Callable[[Any, Any], str | None]
    after: str | None = None
    when: Callable[[Any], bool] | None = None


def documents(workload: str, seed: int) -> tuple[dict[str, dict], Any]:
    """Generated market/position documents plus the plan of operations.

    Law checks keep the documented default sample seed (LAW_SEED) and the
    fixture anchor var-fixture: their cost then does not move with the
    workload seed, which moves positions, anchors and certificate points.
    """
    docs: dict[str, dict] = {}
    plan: list = []
    base, rng = _rng(BASE_SEED, workload), _rng(seed, workload)
    if workload == "eval":
        for measure, n, d, probs, count in EVAL_LADDER:
            mkt = f"m{n}x{d}{probs[0]}"
            if mkt not in docs:
                docs[mkt] = bidask_doc(n, d, seeded_probs(base, n) if probs == "seeded" else None)
            for k in range(count):
                pos = f"{mkt}.{measure}.{k}"
                docs[pos] = moved(position_doc(base, n, d), rng, range(d), probs == "uniform")
                plan.append((measure, mkt, pos))
        return docs, plan
    docs["mkt-a"] = fixtures.MARKET_DOCS["mkt-a"]
    docs["mkt-b"] = fixtures.MARKET_DOCS["mkt-b"]
    docs["m8x2"] = bidask_doc(8, 2)
    docs["m6x3"] = bidask_doc(6, 3)
    docs["m4x3"] = bidask_doc(4, 3)
    # M is the first axis on mkt-a and all of R^d on the other markets
    for mkt, n, d, count in (("mkt-a", 2, 2, 6), ("mkt-b", 3, 2, 5), ("m8x2", 8, 2, 3)):
        coords = (0,) if mkt == "mkt-a" else range(d)
        for k in range(count):
            docs[f"{mkt}.x{k}"] = moved(position_doc(base, n, d, first_free_only=mkt == "mkt-a"),
                                        rng, coords)
    docs["m6x3.x0"] = moved(incomparable_doc(base, 6, 3), rng, range(3))
    docs["mkt-b.z"] = fixtures.POSITION_DOCS["var-fixture"]
    plan = {"points": {mkt: certificate_points(base, docs[f"{mkt}.x0"]["rows"], mkt == "mkt-a")
                       for mkt in ("mkt-a", "mkt-b", "m8x2", "m6x3")}}
    if workload == "cli":
        shift = _rng(seed, "cli:link").randint(-4, 4)
        members = [moved(position_doc(base, 3, 2), random.Random(shift), range(2))
                   for _ in range(3)]
        docs["link.members"] = [{"dominance_at": {"z": z}} for z in members]
        top = [[max(Fraction(z["rows"][i][j]) for z in members) for j in range(2)]
               for i in range(3)]
        docs["link.y"] = {"rows": [[svrisk.rationals.fmt(v + Fraction(1, 2)) for v in row]
                                   for row in top]}
        docs["combo"] = {"convex_combo": {"weight": "1/3", "left": {"wc": {}},
                                          "right": {"var": {"kind": "strong",
                                                            "level": "1/4"}}}}
        docs["segment"] = {"segment": {"z": docs["mkt-b.z"]}}
    return docs, plan


def build_setup(workload: str, seed: int, workdir: str | None = None) -> tuple[Setup, list]:
    """Parse every generated document; ``cli`` also writes them to ``workdir``."""
    docs, plan = documents(workload, seed)
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    if workload == "cli":
        os.makedirs(workdir, exist_ok=True)
        for name, text in texts.items():
            with open(os.path.join(workdir, f"{name}.json"), "w", encoding="utf-8") as fh:
                fh.write(text)
    markets = {name: svrisk.load_market(text) for name, text in texts.items()
               if "." not in name and "d" in docs[name]}
    positions = {name: svrisk.load_position(text, markets[name.split(".")[0]])
                 for name, text in texts.items()
                 if "rows" in docs[name] and name.split(".")[0] in markets}
    return Setup(markets, positions, workdir), plan


def operations(workload: str, setup: Setup, plan: list, cli_runner=None) -> list[Op]:
    """The fixed operation list of one pass; ``cli_runner(argv)`` runs a command.

    The list is shuffled once, the same for every seed, keeping each op after
    the one it needs: heavy calls spread over the pass, so the kernel runs
    between them sample the host's speed all along it, and the order (which
    moves peak memory) does not change with the seed.
    """
    if workload == "eval":
        ops = _eval_ops(setup, plan)
    elif workload == "checks":
        ops = _checks_ops(setup, plan)
    else:
        ops = _cli_ops(setup, plan, cli_runner)
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.after or op.name, []).append(op)
    order = list(groups.values())
    _rng(BASE_SEED, f"{workload}:order").shuffle(order)
    return [op for group in order for op in group]


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def _in_k(market, y) -> bool:
    return all(svrisk.rationals.dot(a, y) >= 0 for a in market.cone.halfspaces)


def _outside_neg_int_k(market, y) -> bool:
    return any(svrisk.rationals.dot(a, y) >= 0 for a in market.cone.halfspaces)


def member_oracle(market, measure: str, x, u) -> bool:
    """Definitional membership of M-coordinates u in the measure's value at x."""
    w = market.from_m(u)
    shifted = [tuple(a + b for a, b in zip(row, w)) for row in x.values]
    if measure == "wc":
        return all(_in_k(market, y) for y in shifted)
    good = _in_k if measure == "var-strong" else _outside_neg_int_k
    mass = sum((p for p, y in zip(market.space.probs, shifted) if good(market, y)),
               Fraction(0))
    return mass >= 1 - LEVEL


def _probe_points(value, m: int, rng) -> list[tuple]:
    pts = []
    for piece in value.pieces:
        for v in svrisk.convert_rep(piece).vertices:
            pts.append(tuple(v))
            pts.append(tuple(c - Fraction(1, 7) for c in v))
    for _ in range(12):
        pts.append(tuple(Fraction(rng.randint(-30, 30), rng.choice((1, 2, 3, 7)))
                         for _ in range(m)))
    return pts


def verify_value(value, market, measure: str, x) -> str | None:
    if not isinstance(value, svrisk.UpperSet) or value.dim != market.m:
        return f"not an upper set of dim {market.m}"
    rng = random.Random(0)
    for u in _probe_points(value, market.m, rng):
        if value.contains_point(u) != member_oracle(market, measure, x, u):
            return f"membership of {[str(c) for c in u]} disagrees with the definition"
    return None


def _measure(name: str):
    return {"wc": svrisk.WorstCase(), "var-strong": svrisk.VaRStrong(LEVEL),
            "var-weak": svrisk.VaRWeak(LEVEL)}[name]


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# (measure, n, d, probabilities, positions per pass).  Sizes are set so that
# percentiles fall inside blocks of like calls whose cost comes from subset
# enumeration, not from payoffs: p50 inside the n=8 strong-V@R block (about
# ranks 45-68 of 101), p90 inside the n=12 block (ranks 89-96).  The uniform
# ladder stops at n=14: one n=16 call (1,820 minimal sets) takes 4-5.5 s, a
# third of a pass, and alone would set the run-to-run spread of pass_ref_s.
# var-weak stops at d=2: one call at n=3, d=3 takes 17-24 s at these payoffs
# (216 candidate pieces), and about 40 s at n=4.
EVAL_LADDER = (
    ("wc", 8, 2, "uniform", 12), ("wc", 64, 2, "uniform", 8), ("wc", 200, 2, "uniform", 8),
    ("wc", 8, 3, "uniform", 8), ("var-weak", 4, 2, "uniform", 8),
    ("var-strong", 8, 2, "uniform", 24),
    ("wc", 64, 3, "uniform", 4), ("wc", 200, 3, "uniform", 4),
    ("var-strong", 6, 3, "seeded", 4), ("var-strong", 8, 3, "seeded", 4),
    ("var-weak", 6, 2, "uniform", 4),
    ("var-strong", 12, 2, "uniform", 8),
    ("var-strong", 10, 3, "seeded", 2), ("var-weak", 8, 2, "uniform", 2),
    ("var-strong", 14, 2, "uniform", 1),
)


def _eval_ops(setup: Setup, plan) -> list[Op]:
    ops = []
    for measure, mkt, pos in plan:
        market, x = setup.markets[mkt], setup.positions[pos]

        def call(_prev, market=market, x=x, expr=_measure(measure)):
            return svrisk.eval_measure(market, expr, x)

        def verify(value, _prev, market=market, x=x, measure=measure):
            return verify_value(value, market, measure, x)

        ops.append(Op(f"eval/{measure}/{pos}", call, verify))
    return ops


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

# Laws each measure satisfies; the other checked laws may fail (V@R is not
# convex), and then their witness must reproduce.
HOLDS = {"wc": {"R1", "R4", "R5", "R6", "subadditive"},
         "var-strong": {"R1", "R5", "R6"}, "var-weak": {"R1", "R5", "R6"}}
# K cap M of the 6x3 bid-ask market has 6 facets; there the vertex-anchored
# union can miss points of the value (open finding, see BENCHMARK.json).
NON_SIMPLICIAL = {"m6x3"}
# Law checks run at budget 100 (R4 on the 4x3 market at 25) so that a pass
# stays near 10 s.  With about 115 operations per pass the interpolated p90
# falls among the wc law checks (R1, R5, R6, R_eq_RAR), a block of like calls
# whose cost and rank do not move with the seed.


def _report_check(must_pass: bool):
    def verify(report, _prev):
        if not isinstance(report, svrisk.LawReport) or report.samples < 1:
            return "not a law report with samples"
        if must_pass and not report.passed:
            return f"{report.law} fails where it must hold"
        if not report.passed and report.witness is None:
            return "failing report without witness"
        return None
    return verify


def _checks_ops(setup: Setup, plan) -> list[Op]:
    law_seed, points = LAW_SEED, plan["points"]
    mb = setup.markets["mkt-b"]
    b100 = svrisk.SampleBudget(100, seed=law_seed)
    ops: list[Op] = []
    for measure in ("wc", "var-strong", "var-weak"):
        expr = _measure(measure)
        for law in ("R1", "R4", "R5", "R6", "subadditive"):
            name = f"law/{measure}/{law}"
            ops.append(Op(name, lambda _p, e=expr, law=law: svrisk.check_measure_law(mb, e, law, b100),
                          _report_check(law in HOLDS[measure])))
            if law not in HOLDS[measure]:
                ops.append(Op(f"recheck/{measure}/{law}",
                              lambda rep, e=expr: svrisk.recheck_witness(mb, e, rep),
                              lambda ok, _p: None if ok is True else "witness does not reproduce",
                              after=name, when=lambda rep: not rep.passed))
    m43 = setup.markets["m4x3"]
    ops.append(Op("law/wc/R4/m4x3",
                  lambda _p: svrisk.check_measure_law(m43, svrisk.WorstCase(), "R4",
                                                      svrisk.SampleBudget(25, seed=law_seed)),
                  _report_check(True)))
    segment = svrisk.Segment(setup.positions["mkt-b.z"])
    ops.append(Op("law/segment/A4",
                  lambda _p: svrisk.check_acceptance_law(mb, segment, "A4", b100),
                  _report_check(True)))
    ops.append(Op("law/wc/R_eq_RAR",
                  lambda _p: svrisk.check_correspondence(mb, svrisk.WorstCase(), "R_eq_RAR", b100),
                  _report_check(True)))
    for pos, x in setup.positions.items():
        mkt = pos.split(".")[0]
        if ".x" not in pos:
            continue
        market, expr = setup.markets[mkt], svrisk.WorstCase()
        for theorem in ("monetary", "star_normalized", "coherent"):
            name = f"decompose/{pos}/wc/{theorem}"
            ops.append(Op(name,
                          lambda _p, m=market, t=theorem, x=x: svrisk.decompose(m, expr, t, x),
                          _family_check(market, "wc", x, theorem)))
            ops.append(Op(f"reconstruct/{pos}/wc/{theorem}",
                          lambda fam, m=market, x=x: svrisk.reconstruct_check(m, expr, fam, x),
                          _reconstruct_check(market, "wc", x, mkt in NON_SIMPLICIAL),
                          after=name))
    for mkt in points:
        market, x = setup.markets[mkt], setup.positions[f"{mkt}.x0"]
        for k, point in enumerate(points[mkt]):
            u = svrisk.PortfolioVector.of(point)
            name = f"certify/{mkt}/{k}"
            ops.append(Op(name, lambda _p, m=market, x=x, u=u: svrisk.dual_certificate(m, x, u),
                          _certificate_check(market, x, u)))
            ops.append(Op(f"validate/{mkt}/{k}",
                          lambda cert, m=market, x=x: svrisk.validate_certificate(m, x, cert),
                          lambda ok, _p: None if ok is True else "certificate does not validate",
                          after=name, when=lambda cert: cert is not None))
    return ops


def _family_check(market, measure, x, theorem):
    def verify(family, _prev):
        if family.kind != theorem or not family.members:
            return "family of the wrong kind or empty"
        for z in family.anchors:
            offsets = {tuple(a - b for a, b in zip(zr, xr)) for zr, xr in zip(z.values, x.values)}
            if len(offsets) != 1:
                return "anchor is not the position plus a constant portfolio"
            v = market.to_m(offsets.pop())
            if not member_oracle(market, measure, x, v):
                return "anchor offset lies outside the value"
        return None
    return verify


def _reconstruct_check(market, measure, x, non_simplicial: bool):
    def verify(report, family):
        if report.passed:
            return None
        relation = report.witness["relation"]
        if relation != "reconstruct_equality" or not non_simplicial:
            return f"reconstruction fails ({relation})"
        # known finding: the witness must be a point of the value that the
        # dominance members (where present) do not reach
        w = tuple(Fraction(c) for c in report.witness["detail"]["separating_point"])
        if not member_oracle(market, measure, x, w):
            return "equality witness lies outside the value"
        if family.kind == "monetary":
            ambient = market.from_m(w)
            for z in family.anchors:
                if all(_in_k(market, tuple(a + c - b for a, b, c in zip(xr, zr, ambient)))
                       for xr, zr in zip(x.values, z.values)):
                    return "equality witness is covered by a member"
        return None
    return verify


def _certificate_check(market, x, u):
    def verify(cert, _prev):
        inside = member_oracle(market, "wc", x, market.to_m(u.coords))
        if cert is None:
            return None if inside else "no certificate for an excluded point"
        if inside or cert.excluded_point != u:
            return "certificate for a point of the value"
        return None
    return verify


def known_findings(ops: list[Op], results: dict) -> list[dict]:
    """Expected non-pass outputs kept visible: failing reconstructions."""
    out = []
    for op in ops:
        r = results.get(op.name)
        if op.name.startswith("reconstruct/") and r is not None and not r.passed:
            out.append({"op": op.name, "relation": r.witness["relation"],
                        "separating_point": r.witness["detail"]["separating_point"]})
    return out


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------


CLI_POSITIONS = {"mkt-a": ("x0", "x1", "x2"), "mkt-b": ("x0", "x1", "x2"), "m8x2": ("x0", "x1")}


def _cli_plan(setup: Setup, plan) -> list[tuple]:
    """(name, argv, allowed exit codes, library reference or None).

    About 95 light commands, where start-up, import, I/O and formatting
    dominate, and a few heavy ones (R5 of var-weak at budget 200, two demos,
    a 6x3 V@R); the other law checks and link run at budget 20.
    With about 100 commands the interpolated p90 sits at the top of the light
    block rather than on a step between two heavy commands.
    """
    points = plan["points"]
    p = setup.path
    s = ["--seed", str(LAW_SEED)]
    out = [
        ("eval/mkt-a/wc-fixture", ["eval", "--market", "mkt-a", "--position", "wc-fixture",
                                   "--measure", "wc"], {0}, ("mkt-a", None, "wc")),
        ("eval/mkt-b/var-fixture/csv", ["eval", "--market", "mkt-b", "--position", "var-fixture",
                                        "--measure", "var-strong:1/4", "--format", "csv-vertices"],
         {0}, ("mkt-b", None, "var-strong")),
        ("eval/mkt-b/var-fixture/weak", ["eval", "--market", "mkt-b", "--position", "var-fixture",
                                         "--measure", "var-weak:1/4"], {0}, ("mkt-b", None, "var-weak")),
        ("eval/mkt-b/var-fixture/text", ["eval", "--market", "mkt-b", "--position", "var-fixture",
                                         "--measure", "wc", "--format", "text"], {0}, None),
        ("eval/m6x3.x0/var-strong", ["eval", "--market", p("m6x3"), "--position", p("m6x3.x0"),
                                     "--measure", "var-strong:1/4"], {0}, ("m6x3", "m6x3.x0", "var-strong")),
        ("eval/m6x3.x0/wc", ["eval", "--market", p("m6x3"), "--position", p("m6x3.x0"),
                             "--measure", "wc"], {0}, ("m6x3", "m6x3.x0", "wc")),
        ("check/mkt-b/var-weak/R5", ["check", "--market", "mkt-b", "--measure", "var-weak:1/4",
                                     "--law", "R5", "--budget", "200", *s], {0}, None),
        ("check/mkt-b/wc/R1-R4", ["check", "--market", "mkt-b", "--measure", "wc", "--law", "R1",
                                  "--law", "R4", "--budget", "20", *s], {0}, None),
        ("check/mkt-b/var-strong/R4", ["check", "--market", "mkt-b", "--measure", "var-strong:1/4",
                                       "--law", "R4", "--budget", "200", *s], {0, 1}, None),
        ("check/mkt-b/var-weak/R4", ["check", "--market", "mkt-b", "--measure", "var-weak:1/4",
                                     "--law", "R4", "--budget", "200", *s], {0, 1}, None),
        ("check/mkt-b/segment/A4", ["check", "--market", "mkt-b", "--acceptance", p("segment"),
                                    "--law", "A4", "--budget", "20", *s], {0}, None),
        ("check/mkt-b/wc/R_eq_RAR", ["check", "--market", "mkt-b", "--measure", "wc",
                                     "--law", "R_eq_RAR", "--budget", "20", *s], {0}, None),
        ("link/mkt-b", ["link", "--market", "mkt-b", "--members", p("link.members"),
                        "--y", p("link.y"), "--budget", "20", *s], {0}, None),
        ("decompose/mkt-a/wc-fixture", ["decompose", "--market", "mkt-a", "--position",
                                        "wc-fixture", "--measure", "wc", "--theorem", "monetary"],
         {0}, None),
        ("certify/mkt-a/wc-fixture", ["certify", "--market", "mkt-a", "--position", "wc-fixture",
                                      "--point", "0,0"], {0}, None),
    ]
    out += [(f"demo/{demo}", ["demo", demo], {0}, None)
            for demo in ("remark52", "example51", "var_fixture")]
    for pos in sorted(setup.positions):
        mkt, _, tag = pos.partition(".")
        if tag not in CLI_POSITIONS.get(mkt, ()):
            continue
        market_arg = mkt if mkt in fixtures.MARKET_DOCS else p(mkt)
        base = ["--market", market_arg, "--position", p(pos)]
        measures = ("wc", "var-strong", "var-weak") if mkt == "mkt-b" else ("wc", "var-strong")
        for measure in measures:
            shorthand = measure if measure == "wc" else f"{measure}:1/4"
            out.append((f"eval/{pos}/{measure}", ["eval", *base, "--measure", shorthand],
                        {0}, (mkt, pos, measure)))
        for fmt_kind in ("csv-vertices", "text"):
            out.append((f"eval/{pos}/wc/{fmt_kind}", ["eval", *base, "--measure", "wc",
                                                      "--format", fmt_kind], {0}, (mkt, pos, "wc")))
        theorems = ("monetary", "star_normalized", "coherent") if mkt == "mkt-b" else ("monetary",)
        for theorem in theorems:
            out.append((f"decompose/{pos}/wc/{theorem}",
                        ["decompose", *base, "--measure", "wc", "--theorem", theorem], {0}, None))
        if mkt == "mkt-b":
            out.append((f"eval/{pos}/combo", ["eval", *base, "--measure", p("combo")], {0}, None))
            out.append((f"eval/{pos}/segment", ["eval", *base, "--acceptance", p("segment")],
                        {0}, None))
            out.append((f"decompose/{pos}/var-strong/monetary",
                        ["decompose", *base, "--measure", "var-strong:1/4", "--theorem",
                         "monetary"], {0}, None))
        for k, point in enumerate(points[mkt]):
            out.append((f"certify/{pos}/{k}", ["certify", *base, f"--point={','.join(point)}"],
                        {0}, None))
    for k, point in enumerate(points["m6x3"]):
        out.append((f"certify/m6x3.x0/{k}", ["certify", "--market", p("m6x3"), "--position",
                                             p("m6x3.x0"), f"--point={','.join(point)}"], {0}, None))
    return out


def _cli_verify(setup: Setup, argv, codes, reference):
    def verify(result, _prev):
        code, stdout = result["code"], result["stdout"]
        if code not in codes:
            return f"exit code {code}"
        fmt_kind = argv[argv.index("--format") + 1] if "--format" in argv else "structured"
        if fmt_kind == "text":
            return None if stdout.startswith("piece 0:") else "unexpected text output"
        if fmt_kind == "csv-vertices":
            mkt, pos, measure = reference
            market = setup.markets[mkt]
            x = setup.positions[pos] if pos else fixtures.position(argv[argv.index("--position") + 1])
            from svrisk.cli import parse_vertices_csv
            got = parse_vertices_csv(stdout, market.cone_in_m)
            want = svrisk.eval_measure(market, _measure(measure), x)
            return None if svrisk.sets_equal(got, want) else "csv value differs from the library"
        text = stdout.split("\n}\n")[0] + "\n}"
        doc = json.loads(text)
        cmd = argv[0]
        if cmd == "eval" and reference is not None:
            mkt, pos, measure = reference
            market = setup.markets[mkt] if mkt in setup.markets else fixtures.market(mkt)
            x = setup.positions[pos] if pos else fixtures.position(argv[argv.index("--position") + 1])
            want = svrisk.eval_measure(market, _measure(measure), x).to_doc()
            return None if doc == want else "value differs from the library"
        if cmd == "check":
            if doc["all_pass"] != (code == 0):
                return "exit code disagrees with all_pass"
            if codes == {0} and not doc["all_pass"]:
                return "a law that must hold fails"
        if cmd == "decompose" and doc["reconstruction"]["verdict"] != "pass":
            return "reconstruction fails on a simplicial market"
        if cmd == "certify" and doc["certificate"] is not None and not doc["certificate"]["valid"]:
            return "certificate does not validate"
        if cmd == "link" and doc["report"]["verdict"] != "pass":
            return "translated family is not star-shaped"
        if cmd == "demo" and not doc["matches_expected"]:
            return "demo does not match its expected output"
        return None
    return verify


def _cli_ops(setup: Setup, plan, cli_runner) -> list[Op]:
    ops = []
    for name, argv, codes, reference in _cli_plan(setup, plan):
        ops.append(Op(f"cli/{name}", lambda _p, argv=argv: cli_runner(argv),
                      _cli_verify(setup, argv, codes, reference)))
    return ops


# ---------------------------------------------------------------------------
# outputs
# ---------------------------------------------------------------------------


def output_doc(result):
    """The canonical document of an operation's output."""
    if hasattr(result, "to_doc"):
        return result.to_doc()
    return result


def digest(doc) -> str:
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]
