"""Command-line front end.

Commands: eval, check, decompose, certify, link, demo.  Output is
deterministic for a fixed (arguments, seed) pair; every document is JSON with
rationals as 'p/q' strings.  Exit codes: 0 success / all laws pass, 1 law
violation, 2 input error, 3 degenerate regime, 4 work limit reached.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import partial

from . import fixtures
from .errors import (
    BadBudget,
    BadFlag,
    EmptyValue,
    MalformedDocument,
    NotInIntersection,
    OnlyOrthogonalSeparators,
    SubspaceNotFull,
    SvriskError,
    WorkLimit,
)
from .geometry import Polyhedron, hrep_from_vrep, hs, sets_equal, upper_set
from .laws import (
    _LAWS,
    SampleBudget,
    check_acceptance_law,
    check_correspondence,
    check_measure_law,
)
from .measures import (
    DominanceAt,
    Hull,
    MeasureExpr,
    Shift,
    VaR,
    WorstCase,
    acceptance_from_doc,
    accepts,
    eval_acceptance,
    eval_measure,
    measure_from_doc,
    measure_to_doc,
)
from .rationals import fmt, rat
from .represent import (
    decompose,
    dual_certificate,
    reconstruct_check,
    star_link,
    validate_certificate,
)
from .scenario import Market, PortfolioVector, RandomVector, _parse_json, load_market, load_position

_DEGENERATE = (OnlyOrthogonalSeparators, SubspaceNotFull, EmptyValue, NotInIntersection)


def _emit(doc):
    sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _fail(kind: str, detail: str, code: int) -> int:
    _emit({"error": {"kind": kind, "detail": detail}})
    return code


def _source(arg: str, path: str, names=()):
    """The source of the document argument at ``path`` (a flag, or the JSON path of
    a position named inside a document): the built-in document ``names[arg]``, the
    inline JSON ``arg`` when it starts with '{' or '[', else the bytes of the file at
    ``arg``; a file that cannot be read is a MalformedDocument naming ``path``."""
    if arg in names:
        return names[arg]
    if arg.lstrip().startswith(("{", "[")):
        return arg
    try:
        with open(arg, "rb") as fh:
            return fh.read()
    except OSError as exc:
        raise MalformedDocument(f"{path} cannot read the file {arg!r}: {exc.strerror}") from None


def _position(ref: str, path: str, market: Market) -> RandomVector:
    """The position that ``ref``, a flag's or one named in a document, gives at ``path``."""
    return load_position(_source(ref, path, fixtures.POSITION_DOCS), market, path)


def _flag_rat(flag: str, text: str) -> Fraction:
    try:
        return rat(text)
    except ValueError as exc:
        raise BadFlag(f"--{flag}: {exc}") from None


def _members_from_doc(doc, loader) -> list:
    """The convex members of a star link, member i read at the JSON path members[i]."""
    if not isinstance(doc, list):
        raise MalformedDocument("'--members' must be a list of acceptance documents")
    members = []
    for i, member_doc in enumerate(doc):
        members.append(member := acceptance_from_doc(member_doc, loader, f"members[{i}]"))
        if not isinstance(member, Hull):
            raise MalformedDocument(
                f"members[{i}].{next(iter(member_doc))} is not a convex member: a star link "
                "takes hull, dominance_at, segment, ray and segment_hull members")
    return members


def _operand(args, flag: str, market: Market):
    """The measure (shorthand or document), acceptance expression or star link
    members of ``--flag``; a document nested too deeply names the flag."""
    arg = getattr(args, flag)
    if flag == "measure" and arg == "wc":
        return WorstCase()
    if flag == "measure" and arg.startswith(("var-strong:", "var-weak:")):
        kind, level = arg.split(":", 1)
        return VaR(kind.removeprefix("var-"), _flag_rat("measure", level))
    parse = {"measure": measure_from_doc, "acceptance": acceptance_from_doc,
             "members": _members_from_doc}[flag]
    try:
        return parse(_parse_json(_source(arg, flag), flag), partial(_position, market=market))
    except RecursionError:
        raise MalformedDocument(f"--{flag} nests deeper than the recursion limit") from None


def _env_int(name: str, default: str) -> int:
    raw = os.environ.get(name, default)
    try:
        return int(raw)
    except ValueError:
        raise BadBudget(f"{name} must be an integer, got {raw!r}") from None


def _budget_from(args) -> SampleBudget:
    seed = args.seed if args.seed is not None else _env_int("SVRISK_SEED", "0")
    count = args.budget if args.budget is not None else _env_int("SVRISK_BUDGET", "200")
    return SampleBudget(count=count, seed=seed)


def _vertices_csv(value) -> str:
    lines = ["piece,kind,coord0,coord1"]
    for idx, v in enumerate(value.vreps()):
        for kind, vectors in (("vertex", v.vertices), ("ray", v.rays)):
            for c in vectors:
                row = list(c) + [0] * (2 - len(c))
                lines.append(f"{idx},{kind},{fmt(row[0])},{fmt(row[1])}")
    return "\n".join(lines) + "\n"


def parse_vertices_csv(text: str, recession):
    """Re-ingest a csv-vertices document as an upper set."""
    pieces: dict[int, tuple[list, list]] = {}
    kinds = {"vertex": 0, "ray": 1}
    for line in text.strip().splitlines()[1:]:
        idx_s, kind, c0, c1 = line.split(",")
        entry = pieces.setdefault(int(idx_s), ([], []))
        entry[kinds[kind]].append([c0, c1][: recession.dim])
    return upper_set(recession.dim, [hrep_from_vrep(recession.dim, *pieces[i])
                                     for i in sorted(pieces)], recession)


def _format_value(value, fmt_kind: str, market: Market) -> int:
    if fmt_kind == "csv-vertices":
        if market.m > 2:
            return _fail("BadFormat", "csv-vertices requires m <= 2", 2)
        sys.stdout.write(_vertices_csv(value))
        return 0
    if fmt_kind == "text":
        if value.is_empty():
            sys.stdout.write("empty set\n")
        for idx, piece in enumerate(value.pieces):
            rows = "; ".join(str(h) for h in piece.halfspaces)
            sys.stdout.write(f"piece {idx}: {rows if rows else 'all of M'}\n")
        return 0
    _emit(value.to_doc())
    return 0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _cmd_eval(args) -> int:
    market = load_market(_source(args.market, "market", fixtures.MARKET_DOCS))
    x = _position(args.position, "position", market)
    if args.measure is not None:
        value = eval_measure(market, _operand(args, "measure", market), x)
    else:
        value = eval_acceptance(market, _operand(args, "acceptance", market), x)
    return _format_value(value, args.format, market)


def _cmd_check(args) -> int:
    market = load_market(_source(args.market, "market", fixtures.MARKET_DOCS))
    budget = _budget_from(args)
    operands = {flag: _operand(args, flag, market)  # each one given, once, used or not
                for flag in ("measure", "acceptance") if getattr(args, flag) is not None}
    reports = []
    for law_id in args.law:
        law = _LAWS.get(law_id)
        if law is None or law.kind is None:
            return _fail("UnknownLaw", f"unknown law {law_id!r}", 2)
        flag = "measure" if law.operand is MeasureExpr else "acceptance"
        if flag not in operands:
            return _fail("MissingFlag", f"law {law_id!r} needs --{flag}", 2)
        check = {"measure": check_measure_law, "acceptance": check_acceptance_law,
                 "correspondence": check_correspondence}[law.kind]
        reports.append(check(market, operands[flag], law_id, budget))
    all_pass = all(r.passed for r in reports)
    _emit({"reports": [r.to_doc() for r in reports], "all_pass": all_pass})
    return 0 if all_pass else 1


def _cmd_decompose(args) -> int:
    market = load_market(_source(args.market, "market", fixtures.MARKET_DOCS))
    x = _position(args.position, "position", market)
    expr = _operand(args, "measure", market)
    budget = _budget_from(args)
    extra = SampleBudget(count=args.extra_anchors, seed=budget.seed) \
        if args.extra_anchors else None
    family = decompose(market, expr, args.theorem, x, extra=extra)
    report = reconstruct_check(market, expr, family, x, budget)
    doc = family.to_doc()
    doc["reconstruction"] = report.to_doc()
    doc["member_values"] = [
        eval_acceptance(market, member, x).to_doc(with_vrep=False)
        for member in family.members
    ]
    _emit(doc)
    return 0 if report.passed else 1


def _cmd_certify(args) -> int:
    market = load_market(_source(args.market, "market", fixtures.MARKET_DOCS))
    y_vec = _position(args.position, "position", market)
    u = PortfolioVector(tuple(_flag_rat("point", c) for c in args.point.split(",")))
    cert = dual_certificate(market, y_vec, u)
    if cert is None:
        _emit({"certificate": None, "reason": "point lies in the worst-case value"})
        return 0
    ok = validate_certificate(market, y_vec, cert)
    doc = cert.to_doc()
    doc["valid"] = ok
    _emit({"certificate": doc})
    return 0 if ok else 1


def _cmd_link(args) -> int:
    market = load_market(_source(args.market, "market", fixtures.MARKET_DOCS))
    y = _position(args.y, "y", market)
    members = _operand(args, "members", market)
    budget = _budget_from(args)
    expr, report = star_link(market, members, y, budget)
    _emit({"measure": measure_to_doc(expr), "report": report.to_doc()})
    return 0 if report.passed else 1


def _demo_remark52(budget: SampleBudget) -> tuple[dict, bool]:
    """The base set B = (1,1) + K is nonempty but misses M entirely."""
    market = fixtures.market("mkt-a")
    z = RandomVector.constant(market.n, ["1", "1"])
    member = DominanceAt(z)
    b_nonempty = accepts(market, member, z)
    r_b_at_zero = eval_acceptance(market, member, market.zero_position())
    b_meets_m = not r_b_at_zero.is_empty()
    # translation by Y = (1,1) still produces a star-shaped measure
    expr, report = star_link(market, [member], z, budget)
    expected = b_nonempty and not b_meets_m and report.passed
    doc = {
        "fixture": "remark52",
        "B_nonempty": b_nonempty,
        "B_meets_M": b_meets_m,
        "translate_star_report": report.to_doc(),
        "matches_expected": expected,
    }
    return doc, expected


def _demo_example51(budget: SampleBudget) -> tuple[dict, bool]:
    """Shifting worst case into the cone interior breaks star-shapedness;
    shifting back restores it."""
    market = fixtures.market("mkt-a")
    c = PortfolioVector.of(["1", "0"])  # strictly inside K cap M
    minus_c = PortfolioVector.of(["-1", "0"])
    shifted = Shift(WorstCase(), minus_c)   # value sets become WC(X) + c
    r6 = check_measure_law(market, shifted, "R6", budget)
    restored = Shift(shifted, c)
    r6_back = check_measure_law(market, restored, "R6", budget)
    r4_back = check_measure_law(market, restored, "R4", budget)
    expected = (not r6.passed) and r6.witness is not None \
        and r6_back.passed and r4_back.passed
    doc = {
        "fixture": "example51",
        "shifted_R6": r6.to_doc(),
        "restored_R6": r6_back.to_doc(),
        "restored_R4": r4_back.to_doc(),
        "matches_expected": expected,
    }
    return doc, expected


def _demo_var_fixture(budget: SampleBudget) -> tuple[dict, bool]:
    """The documented two-piece V@R value and its convexity failure."""
    market = fixtures.market("mkt-b")
    x = fixtures.position("var-fixture")
    expr = VaR("strong", Fraction(1, 4))
    value = eval_measure(market, expr, x)
    expected_value = upper_set(2, (
        Polyhedron(2, (hs([1, 0], 2), hs([0, 1], 1))),
        Polyhedron(2, (hs([1, 0], 1), hs([0, 1], 4))),
    ), market.cone_in_m)
    pieces_match = sets_equal(value, expected_value)
    r4 = check_measure_law(market, expr, "R4", budget)
    expected = pieces_match and not r4.passed and r4.witness is not None
    doc = {
        "fixture": "var_fixture",
        "value": value.to_doc(with_vrep=False),
        "value_matches_expected": pieces_match,
        "R4": r4.to_doc(),
        "matches_expected": expected,
    }
    return doc, expected


_DEMOS = {
    "remark52": _demo_remark52,
    "example51": _demo_example51,
    "var_fixture": _demo_var_fixture,
}


def _cmd_demo(args) -> int:
    budget = _budget_from(args)
    doc, ok = _DEMOS[args.name](budget)
    _emit(doc)
    if args.name == "remark52":
        sys.stdout.write("B != empty, B cap M = empty\n"
                         if doc["B_nonempty"] and not doc["B_meets_M"]
                         else "unexpected fixture behaviour\n")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="svrisk",
        description="Exact set-valued risk measures on finite scenario spaces.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, position=True):
        p.add_argument("--market", required=True,
                       help="built-in name (mkt-a, mkt-b, mkt-1d), inline JSON or path")
        if position:
            p.add_argument("--position", required=True,
                           help="built-in name, inline JSON or path")

    p = sub.add_parser("eval", help="evaluate a measure or acceptance expression")
    common(p)
    operand = p.add_mutually_exclusive_group(required=True)
    operand.add_argument("--measure", help="shorthand or measure document")
    operand.add_argument("--acceptance", help="acceptance document (instead of --measure)")
    p.add_argument("--format", choices=("structured", "text", "csv-vertices"),
                   default="structured")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("check", help="run law checks")
    common(p, position=False)
    p.add_argument("--law", action="append", required=True,
                   help="law id (repeatable): R1..R6, A1_translate..A6equiv, "
                        "R_eq_RAR, A_eq_ARA, transfer, ...")
    p.add_argument("--measure")
    p.add_argument("--acceptance")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("decompose", help="build and verify a decomposition family")
    common(p)
    p.add_argument("--measure", required=True)
    p.add_argument("--theorem", choices=("monetary", "star_normalized", "coherent"),
                   required=True)
    p.add_argument("--extra-anchors", type=int, default=0)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("certify", help="dual certificate for an excluded portfolio")
    common(p)
    p.add_argument("--point", required=True, help="portfolio coords, e.g. '0,0'")
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("link", help="translate a family union into a star-shaped measure")
    common(p, position=False)
    p.add_argument("--members", required=True,
                   help="list of convex acceptance documents, inline or path")
    p.add_argument("--y", required=True, help="base position document")
    p.set_defaults(func=_cmd_link)

    p = sub.add_parser("demo", help="run a named fixture with expected-output comparison")
    p.add_argument("name", choices=sorted(_DEMOS))
    p.set_defaults(func=_cmd_demo)

    for name in ("check", "decompose", "link", "demo"):  # the commands that draw samples
        sub.choices[name].add_argument("--seed", type=int, default=None)
        sub.choices[name].add_argument("--budget", type=int, default=None)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed([i for i, a in enumerate(argv[:-1]) if a == "--point"]):
        argv[i:i + 2] = [f"--point={argv[i + 1]}"]  # argparse reads '-1/2,0' as a flag
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _DEGENERATE as exc:
        return _fail(type(exc).__name__, str(exc), 3)
    except WorkLimit as exc:
        return _fail(type(exc).__name__, str(exc), 4)
    except SvriskError as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except (OSError, ValueError, KeyError) as exc:
        return _fail(type(exc).__name__, str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
