"""Command-line contract: exit codes, determinism, document round trips."""

import contextlib
import copy
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from svrisk import geometry
from svrisk.cli import main, parse_vertices_csv
from svrisk.fixtures import MARKET_DOCS, market
from svrisk.geometry import sets_equal
from svrisk.measures import VaRStrong, eval_measure
from svrisk.fixtures import position


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def three_asset_hull_args(tmp_path) -> list[str]:
    """``eval`` flags for a 3-point hull (two mixing variables) on a 4-scenario
    three-asset bid-ask market, with half-integer entries."""
    rng, spread = random.Random(0), "3/2"

    def draw():
        return {"rows": [[str(Fraction(rng.randint(-4, 4), 2)) for _ in range(3)]
                         for _ in range(4)]}

    points, x = [draw() for _ in range(3)], draw()
    (tmp_path / "market.json").write_text(json.dumps({
        "d": 3, "probs": ["1/4"] * 4, "subspace": {"coords": [0, 1, 2]},
        "cone": {"bidask": [[1, spread, spread], [spread, 1, spread], [spread, spread, 1]]}}))
    (tmp_path / "x.json").write_text(json.dumps(x))
    return ["eval", "--market", str(tmp_path / "market.json"), "--position",
            str(tmp_path / "x.json"), "--acceptance",
            json.dumps({"hull": {"points": points, "rays": []}})]


class TestEval:
    def test_hull_with_two_mixing_variables(self, capsys, tmp_path):
        # stepwise elimination of the mixing variables raised WorkLimit here
        code, out = run(capsys, *three_asset_hull_args(tmp_path))
        assert code == 0
        assert len(json.loads(out)["pieces"]) == 1

    def test_worst_case_fixture(self, capsys):
        code, out = run(capsys, "eval", "--market", "mkt-a",
                        "--position", "wc-fixture", "--measure", "wc")
        assert code == 0
        doc = json.loads(out)
        assert doc["pieces"][0]["halfspaces"] == [["1", "1"]]
        assert doc["pieces"][0]["vertices"] == [["1"]]

    def test_var_shorthand(self, capsys):
        code, out = run(capsys, "eval", "--market", "mkt-b",
                        "--position", "var-fixture",
                        "--measure", "var-strong:1/4")
        assert code == 0
        assert len(json.loads(out)["pieces"]) == 2

    def test_acceptance_expression(self, capsys):
        acc = json.dumps({"segment": {"z": {"rows": [["-2", "0"], ["-2", "0"]]}}})
        code, out = run(capsys, "eval", "--market", "mkt-a",
                        "--position", "wc-fixture", "--acceptance", acc)
        assert code == 0

    def test_measure_document_file(self, capsys, tmp_path):
        doc = {"union": [{"wc": {}},
                         {"shift": {"inner": {"wc": {}}, "u": ["1", "0"]}}]}
        path = tmp_path / "measure.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, "eval", "--market", "mkt-a",
                        "--position", "wc-fixture", "--measure", str(path))
        assert code == 0

    def test_text_format(self, capsys):
        code, out = run(capsys, "eval", "--market", "mkt-a",
                        "--position", "wc-fixture", "--measure", "wc",
                        "--format", "text")
        assert code == 0 and "piece 0" in out

    def test_deterministic_output(self, capsys):
        _, first = run(capsys, "eval", "--market", "mkt-b",
                       "--position", "var-fixture", "--measure", "var-weak:1/4")
        _, second = run(capsys, "eval", "--market", "mkt-b",
                        "--position", "var-fixture", "--measure", "var-weak:1/4")
        assert first == second

    def test_csv_vertices_round_trip(self, capsys):
        code, out = run(capsys, "eval", "--market", "mkt-b",
                        "--position", "var-fixture",
                        "--measure", "var-strong:1/4",
                        "--format", "csv-vertices")
        assert code == 0
        mkt = market("mkt-b")
        rebuilt = parse_vertices_csv(out, mkt.cone_in_m)
        direct = eval_measure(mkt, VaRStrong(Fraction(1, 4)), position("var-fixture"))
        assert sets_equal(rebuilt, direct)

    def test_missing_file_is_input_error(self, capsys):
        code, out = run(capsys, "eval", "--market", "/nonexistent.json",
                        "--position", "wc-fixture", "--measure", "wc")
        assert code == 2
        assert "error" in json.loads(out)


class TestCheck:
    def test_passing_laws_exit_zero(self, capsys):
        code, out = run(capsys, "check", "--market", "mkt-a", "--measure", "wc",
                        "--law", "R1", "--law", "R6", "--budget", "40", "--seed", "5")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_pass"] and len(doc["reports"]) == 2

    def test_convexity_violation_exit_one(self, capsys):
        code, out = run(capsys, "check", "--market", "mkt-b",
                        "--measure", "var-strong:1/4",
                        "--law", "R4", "--seed", "7", "--budget", "200")
        assert code == 1
        doc = json.loads(out)
        assert doc["reports"][0]["witness"] is not None

    def test_acceptance_law(self, capsys):
        acc = json.dumps({"dominance_at": {"z": {"rows": [["0", "0"], ["0", "0"]]}}})
        code, out = run(capsys, "check", "--market", "mkt-a",
                        "--acceptance", acc, "--law", "A2", "--budget", "30")
        assert code == 0

    def test_correspondence_law(self, capsys):
        code, out = run(capsys, "check", "--market", "mkt-a", "--measure", "wc",
                        "--law", "R_eq_RAR", "--budget", "30")
        assert code == 0

    def test_unknown_law_is_input_error(self, capsys):
        code, out = run(capsys, "check", "--market", "mkt-a", "--measure", "wc",
                        "--law", "R99")
        assert code == 2

    def test_env_var_budget(self, capsys, monkeypatch):
        monkeypatch.setenv("SVRISK_BUDGET", "17")
        monkeypatch.setenv("SVRISK_SEED", "9")
        code, out = run(capsys, "check", "--market", "mkt-a", "--measure", "wc",
                        "--law", "R6")
        doc = json.loads(out)
        assert doc["reports"][0]["budget"] == 17
        assert doc["reports"][0]["seed"] == 9

    def test_byte_identical_reports(self, capsys):
        args = ("check", "--market", "mkt-b", "--measure", "var-strong:1/4",
                "--law", "R4", "--seed", "3", "--budget", "80")
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second


class TestErrorContract:
    def test_work_limit_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "FM_ROW_LIMIT", 1)
        code, out = run(capsys, "eval", "--market", "mkt-b", "--position", "var-fixture",
                        "--acceptance", '{"segment": {"z": "var-fixture"}}')
        assert code == 4
        err = json.loads(out)["error"]
        assert err["kind"] == "WorkLimit" and "over 1" in err["detail"]

    def test_ray_limit_exits_4(self, capsys, monkeypatch, tmp_path):
        monkeypatch.setattr(geometry, "DD_RAY_LIMIT", 20)
        code, out = run(capsys, *three_asset_hull_args(tmp_path))
        assert code == 4
        err = json.loads(out)["error"]
        assert err["kind"] == "WorkLimit" and "rays, over 20" in err["detail"]

    def test_offset_limit_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(geometry, "VAR_OFFSET_LIMIT", 1)
        code, out = run(capsys, "eval", "--market", "mkt-b", "--position", "var-fixture",
                        "--measure", "var-strong:1/4")
        assert code == 4
        err = json.loads(out)["error"]
        assert err["kind"] == "WorkLimit" and "offsets, over 1" in err["detail"]

    def test_residual_limit_exits_4(self, capsys, monkeypatch, tmp_path):
        # a monetary decomposition on a three-asset bid-ask market whose
        # scenarios each lose in one asset: the union of the members misses
        # a point of the worst-case value, and subtraction finds it
        spread = "3/2"
        (tmp_path / "market.json").write_text(json.dumps({
            "d": 3, "probs": ["1/6"] * 6, "subspace": {"coords": [0, 1, 2]},
            "cone": {"bidask": [[1, spread, spread], [spread, 1, spread], [spread, spread, 1]]}}))
        (tmp_path / "x.json").write_text(json.dumps({"rows": [
            [-4, 1, 0], [1, "-7/2", "1/2"], [0, 1, -4], [-3, 0, 1], ["3/2", -4, 0], [0, "1/2", -3]]}))
        args = ("decompose", "--market", str(tmp_path / "market.json"), "--position",
                str(tmp_path / "x.json"), "--measure", "wc", "--theorem", "monetary")
        code, out = run(capsys, *args)
        assert code == 1 and json.loads(out)["reconstruction"]["witness"] is not None
        monkeypatch.setattr(geometry, "SUBTRACT_RESIDUAL_LIMIT", 0)
        code, out = run(capsys, *args)
        assert code == 4
        err = json.loads(out)["error"]
        assert err["kind"] == "WorkLimit" and "residuals, over 0" in err["detail"]

    @pytest.mark.parametrize("argv, kind, names", [
        (["check", "--market", "mkt-b", "--law", "R1"], "MissingFlag", "--measure"),
        (["check", "--market", "mkt-a", "--law", "A4", "--measure", "wc"],
         "MissingFlag", "--acceptance"),
        (["check", "--market", "mkt-a", "--law", "A_eq_ARA", "--measure", "wc"],
         "MissingFlag", "--acceptance"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture",
          "--measure", '{"var": 3}'], "MalformedDocument", "'var'"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture",
          "--measure", '{"var": {"kind": "strong"}}'], "MalformedDocument", "'var'"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture",
          "--measure", '{"union": []}'], "MalformedDocument", "'union'"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture",
          "--acceptance", '{"union": []}'], "MalformedDocument", "'union'"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture",
          "--acceptance", '{"intersection": []}'], "MalformedDocument", "'intersection'"),
        (["certify", "--market", "mkt-a", "--position", "wc-fixture", "--point", "0"],
         "ShapeMismatch", "1 coordinates"),
        (["certify", "--market", "mkt-a", "--position", "wc-fixture", "--point", "0,0,5"],
         "ShapeMismatch", "3 coordinates"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure",
          '{"of_acceptance": {"segment": {"z": {"rows": [["1", "0"]]}}}}'],
         "ShapeMismatch", "hull is 1x2"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure",
          '{"of_acceptance": {"segment_hull": {"y": "var-fixture", '
          '"z": {"rows": [["1", "0"]]}}}}'],
         "ShapeMismatch", "differ in shape"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure",
          '{"of_acceptance": {"ray": {"z": {"rows": [["1", "0", "0"], ["1", "0", "0"], '
          '["1", "0", "0"]]}}}}'],
         "ShapeMismatch", "hull is 3x3"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture", "--measure",
          '{"shift": {"inner": {"wc": {}}, "u": "12"}}'], "MalformedDocument", "'shift'"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture",
          "--measure", '{"var": {"kind": "strong", "level": "1/0"}}'], "MalformedDocument", "'var'"),
        (["eval", "--market", "mkt-a", "--position", "wc-fixture", "--measure",
          '{"shift": {"inner": {"wc": {}}, "u": ["1/0", "0"]}}'], "MalformedDocument", "'shift'"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure", "var-strong:1/0"],
         "BadFlag", "--measure"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure", "var-weak:abc"],
         "BadFlag", "--measure"),
        (["certify", "--market", "mkt-a", "--position", "wc-fixture", "--point", "1,x"],
         "BadFlag", "--point"),
        (["certify", "--market", "mkt-a", "--position", "wc-fixture", "--point", "1/0,0"],
         "BadFlag", "--point"),
    ])
    def test_input_errors_exit_two_with_json(self, capsys, argv, kind, names):
        code, out = run(capsys, *argv)
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == kind
        assert names in error["detail"]

    def test_ragged_position_rows_are_malformed(self, capsys, tmp_path):
        rows = {"rows": [["1", "0"], ["1"]]}
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(rows))
        anchor = json.dumps({"dominance_at": {"z": rows}})
        for argv in (["--position", str(path), "--measure", "wc"],
                     ["--position", "wc-fixture", "--acceptance", anchor]):
            code, out = run(capsys, "eval", "--market", "mkt-a", *argv)
            assert code == 2
            error = json.loads(out)["error"]
            assert error["kind"] == "MalformedDocument"
            assert "'rows'" in error["detail"] and "row 1" in error["detail"]

    @pytest.mark.parametrize("name, field, value", [
        ("mkt-a", "cone", 5), ("mkt-a", "cone", None), ("mkt-a", "subspace", 5),
        ("mkt-a", "subspace", None), ("mkt-a", "d", 2.5), ("mkt-1d", "d", True),
    ])
    def test_mistyped_market_field_exits_two(self, capsys, tmp_path, name, field, value):
        doc = MARKET_DOCS[name]
        mkt, pos = tmp_path / "market.json", tmp_path / "position.json"
        mkt.write_text(json.dumps(dict(doc, **{field: value})))
        pos.write_text(json.dumps({"rows": [[0] * doc["d"]] * len(doc["probs"])}))
        code, out = run(capsys, "eval", "--market", str(mkt),
                        "--position", str(pos), "--measure", "wc")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument" and f"'{field}'" in error["detail"]

    def test_ragged_subspace_basis_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps({"d": 2, "probs": ["1/2", "1/2"],
                                    "cone": {"halfspaces": [[1, 0], [0, 1]]},
                                    "subspace": {"basis": [[1, 0], [1]]}}))
        code, out = run(capsys, "eval", "--market", str(path),
                        "--position", "wc-fixture", "--measure", "wc")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument"
        assert "different lengths" in error["detail"]

    @pytest.mark.parametrize("budget", ["0", "-2"])
    def test_bad_budget_exits_two(self, capsys, monkeypatch, budget):
        argv = ["check", "--market", "mkt-b", "--measure", "wc", "--law", "R1"]
        monkeypatch.delenv("SVRISK_BUDGET", raising=False)
        results = [run(capsys, *argv, "--budget", budget)]
        monkeypatch.setenv("SVRISK_BUDGET", budget)
        results.append(run(capsys, *argv))
        for code, out in results:
            assert code == 2
            error = json.loads(out)["error"]
            assert error["kind"] == "BadBudget" and budget in error["detail"]

    @pytest.mark.parametrize("name, raw", [
        ("SVRISK_BUDGET", "abc"), ("SVRISK_SEED", "1.5"), ("SVRISK_BUDGET", "true")])
    def test_non_integer_environment_is_bad_budget(self, capsys, monkeypatch, name, raw):
        monkeypatch.setenv(name, raw)
        code, out = run(capsys, "check", "--market", "mkt-b", "--measure", "wc", "--law", "R1")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "BadBudget"
        assert name in error["detail"] and repr(raw) in error["detail"]

    def test_market_without_cone_rows(self, capsys, tmp_path):
        path = tmp_path / "whole-space.json"
        path.write_text(json.dumps({"d": 2, "probs": ["1/2", "1/2"],
                                    "cone": {"halfspaces": []},
                                    "subspace": {"coords": [0]}}))
        code, out = run(capsys, "check", "--market", str(path), "--law", "A4",
                        "--acceptance", '{"dominance_at": {"z": {"rows": [[0,0],[1,1]]}}}')
        assert code == 0
        assert json.loads(out)["all_pass"] is True

    def test_digit_strings_are_not_vectors(self, capsys, tmp_path):
        rows, probs = tmp_path / "rows.json", tmp_path / "probs.json"
        rows.write_text(json.dumps({"rows": ["12", "34", "56"]}))
        probs.write_text(json.dumps(dict(MARKET_DOCS["mkt-b"], probs="1")))
        for mkt, pos, field in (("mkt-b", str(rows), "'rows'"),
                                (str(probs), "var-fixture", "'probs'")):
            code, out = run(capsys, "eval", "--market", mkt, "--position", pos,
                            "--measure", "wc")
            assert code == 2
            error = json.loads(out)["error"]
            assert error["kind"] == "MalformedDocument" and field in error["detail"]

    def test_zero_denominator_in_a_document_names_the_field(self, capsys, tmp_path):
        rows, probs = tmp_path / "rows.json", tmp_path / "probs.json"
        rows.write_text(json.dumps({"rows": [["1/0", 0], [0, 1], [1, 1]]}))
        probs.write_text(json.dumps(dict(MARKET_DOCS["mkt-b"], probs=["1/0", "1/3", "1/3"])))
        for mkt, pos, field in (("mkt-b", str(rows), "'rows'"),
                                (str(probs), "var-fixture", "'probs'")):
            code, out = run(capsys, "eval", "--market", mkt, "--position", pos,
                            "--measure", "wc")
            assert code == 2
            error = json.loads(out)["error"]
            assert error["kind"] == "MalformedDocument" and field in error["detail"]

    def test_boolean_entry_is_malformed(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"rows": [[true, 0], [0, 1], [1, 1]]}')
        code, out = run(capsys, "eval", "--market", "mkt-b",
                        "--position", str(path), "--measure", "wc")
        assert code == 2
        assert json.loads(out)["error"]["kind"] == "MalformedDocument"


BIDASK_DOC = {"d": 2, "probs": ["1/3", "2/3"], "cone": {"bidask": [[1, 2], ["3/2", 1]]},
              "subspace": {"basis": [[1, 0], [0, 1]]}}


def _list_fields(doc):
    """(path, field name) of every list in a market document and of every
    row of its matrices."""
    yield ("probs",), "probs"
    for part in ("cone", "subspace"):
        (key, value), = doc[part].items()
        yield (part, key), f"{part}.{key}"
        if key != "coords":
            yield from (((part, key, i), f"{part}.{key}") for i in range(len(value)))


@st.composite
def malformed_case(draw):
    """A market and matching zero position, one list or row replaced by a
    digit string or a number; the name of the field that holds it."""
    market_doc = copy.deepcopy(draw(st.sampled_from(
        [MARKET_DOCS["mkt-a"], MARKET_DOCS["mkt-b"], BIDASK_DOC])))
    position_doc = {"rows": [[0] * market_doc["d"] for _ in market_doc["probs"]]}
    targets = [(market_doc, path, field) for path, field in _list_fields(market_doc)]
    targets += [(position_doc, ("rows",), "rows")]
    targets += [(position_doc, ("rows", i), "rows") for i in range(len(market_doc["probs"]))]
    doc, path, field = draw(st.sampled_from(targets))
    bad = draw(st.text("0123456789", min_size=1, max_size=3)
               | st.integers(-5, 5) | st.sampled_from([0.5, 2.0]))
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = bad
    return market_doc, position_doc, field


WC = {"wc": {}}
# (wrapping keys, node key, body): documents whose fields are all required
REQUIRED_FIELDS = [
    ((), "var", {"kind": "strong", "level": "1/4"}),
    ((), "shift", {"inner": WC, "u": ["1", "0"]}),
    ((), "translate", {"inner": WC, "y": "wc-fixture"}),
    ((), "convex_combo", {"weight": "1/2", "left": WC, "right": WC}),
    (("of_acceptance",), "hull", {"points": ["wc-fixture"], "rays": []}),
    (("of_acceptance",), "segment_hull", {"y": "wc-fixture", "z": "wc-fixture"}),
]


@st.composite
def missing_field_case(draw):
    """A measure document with one required field of one node left out, the
    node nested in up to two unions, shifts or acceptance round trips; the
    JSON path of the missing field."""
    wrap, key, body = draw(st.sampled_from(REQUIRED_FIELDS))
    field = draw(st.sampled_from(sorted(body)))
    doc, path = {key: {k: v for k, v in body.items() if k != field}}, f"{key}.{field}"
    for outer in reversed(wrap):
        doc, path = {outer: doc}, f"{outer}.{path}"
    for how in draw(st.lists(st.sampled_from(("union", "shift", "round trip")), max_size=2)):
        if how == "union":
            doc, path = {"union": [WC, doc]}, f"union[1].{path}"
        elif how == "shift":
            doc, path = {"shift": {"inner": doc, "u": ["0", "1"]}}, f"shift.inner.{path}"
        else:
            doc, path = {"of_acceptance": {"of_measure": doc}}, f"of_acceptance.of_measure.{path}"
    return doc, f"measure.{path}"


def eval_error(*argv):
    """(exit code, error object) of an ``eval`` on mkt-a at wc-fixture."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["eval", "--market", "mkt-a", "--position", "wc-fixture", *argv])
    return code, json.loads(out.getvalue())["error"]


class TestMalformedDocuments:
    @settings(max_examples=80, deadline=None)
    @given(malformed_case())
    def test_a_string_or_number_for_a_list_exits_two_naming_the_field(self, case):
        market_doc, position_doc, field = case
        with tempfile.TemporaryDirectory() as tmp:
            mkt, pos = Path(tmp, "market.json"), Path(tmp, "position.json")
            mkt.write_text(json.dumps(market_doc))
            pos.write_text(json.dumps(position_doc))
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["eval", "--market", str(mkt), "--position", str(pos),
                             "--measure", "wc"])
        assert code == 2
        error = json.loads(out.getvalue())["error"]
        assert error["kind"] == "MalformedDocument"
        assert f"'{field}'" in error["detail"]

    @pytest.mark.parametrize("flag, doc, path", [
        ("--measure", {"shift": {"of": WC, "u": [1]}}, "measure.shift.inner"),
        ("--measure", {"var": {"kind": "strong"}}, "measure.var.level"),
        ("--acceptance", {"hull": {"points": ["wc-fixture"]}}, "acceptance.hull.rays"),
    ], ids=["shift-inner", "var-level", "hull-rays"])
    def test_detail_names_the_json_path(self, flag, doc, path):
        code, error = eval_error(flag, json.dumps(doc))
        assert code == 2 and error["kind"] == "MalformedDocument"
        assert f"{path} is missing" in error["detail"] and "Error(" not in error["detail"]

    @settings(max_examples=60, deadline=None)
    @given(missing_field_case())
    def test_nested_missing_field_exits_two_naming_its_path(self, case):
        doc, path = case
        code, error = eval_error("--measure", json.dumps(doc))
        assert code == 2 and error["kind"] == "MalformedDocument"
        assert error["detail"].startswith(f"{path} is missing")
        assert "Error(" not in error["detail"]


class TestDecomposeCommand:
    def test_monetary_family(self, capsys):
        code, out = run(capsys, "decompose", "--market", "mkt-a",
                        "--position", "wc-fixture", "--measure", "wc",
                        "--theorem", "monetary")
        assert code == 0
        doc = json.loads(out)
        assert doc["reconstruction"]["verdict"] == "pass"
        assert doc["anchors"] == [{"rows": [["0", "0"], ["1", "2"]]}]

    def test_empty_value_is_degenerate_exit(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [["-1", "0"], ["0", "-2"]]}))
        code, out = run(capsys, "decompose", "--market", "mkt-a",
                        "--position", str(bad), "--measure", "wc",
                        "--theorem", "monetary")
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "EmptyValue"


class TestCertifyCommand:
    def test_excluded_point(self, capsys):
        code, out = run(capsys, "certify", "--market", "mkt-a",
                        "--position", "wc-fixture", "--point", "0,0")
        assert code == 0
        doc = json.loads(out)
        assert doc["certificate"]["valid"]
        assert doc["certificate"]["y"] == ["1", "1"]

    def test_inside_point(self, capsys):
        code, out = run(capsys, "certify", "--market", "mkt-a",
                        "--position", "wc-fixture", "--point", "2,0")
        assert code == 0
        assert json.loads(out)["certificate"] is None

    def test_orthogonal_regime_exit_three(self, capsys, tmp_path):
        pos = tmp_path / "deg.json"
        pos.write_text(json.dumps({"rows": [["5", "-1"], ["5", "-1"]]}))
        code, out = run(capsys, "certify", "--market", "mkt-a",
                        "--position", str(pos), "--point", "0,0")
        assert code == 3
        assert json.loads(out)["error"]["kind"] == "OnlyOrthogonalSeparators"


class TestLinkCommand:
    def test_translated_union_is_star(self, capsys, tmp_path):
        members = [
            {"dominance_at": {"z": {"rows": [["1", "0"], ["0", "1"], ["0", "0"]]}}},
            {"dominance_at": {"z": {"rows": [["0", "2"], ["1", "0"], ["0", "0"]]}}},
        ]
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"rows": [["1", "2"], ["1", "2"], ["1", "2"]]}))
        code, out = run(capsys, "link", "--market", "mkt-b",
                        "--members", json.dumps(members), "--y", str(y),
                        "--budget", "60")
        assert code == 0
        doc = json.loads(out)
        assert doc["report"]["verdict"] == "pass"
        assert "translate" in doc["measure"]

    def test_members_must_be_a_list(self, capsys, tmp_path):
        path = tmp_path / "members.json"
        path.write_text("5")
        for members in (str(path), '{"dominance_at": {"z": "var-fixture"}}'):
            code, out = run(capsys, "link", "--market", "mkt-b", "--members", members,
                            "--y", "var-fixture")
            assert code == 2
            assert json.loads(out)["error"]["kind"] == "MalformedDocument"

    def test_rejected_base_exit_three(self, capsys, tmp_path):
        members = [{"dominance_at": {"z": {"rows": [["1", "0"], ["0", "1"], ["0", "0"]]}}}]
        y = tmp_path / "y.json"
        y.write_text(json.dumps({"rows": [["0", "0"], ["0", "0"], ["0", "0"]]}))
        code, out = run(capsys, "link", "--market", "mkt-b",
                        "--members", json.dumps(members), "--y", str(y))
        assert code == 3


class TestDemos:
    @pytest.mark.parametrize("name", ["remark52", "example51", "var_fixture"])
    def test_demo_matches_expectation(self, capsys, name):
        code, out = run(capsys, "demo", name, "--budget", "60")
        assert code == 0
        assert '"matches_expected": true' in out

    def test_remark52_prints_the_picture(self, capsys):
        code, out = run(capsys, "demo", "remark52", "--budget", "40")
        assert "B != empty, B cap M = empty" in out
