"""Command-line contract: exit codes, determinism, document round trips."""

import contextlib
import copy
import io
import json
import random
import tempfile
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from svrisk import geometry, measures
from svrisk.cli import main, parse_vertices_csv
from svrisk.fixtures import MARKET_DOCS, POSITION_DOCS, market
from svrisk.geometry import sets_equal
from svrisk.measures import VaRStrong, eval_measure
from svrisk.fixtures import position


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def nested_unions(depth: int):
    """The measure document "wc" inside ``depth`` one-part unions."""
    doc = "wc"
    for _ in range(depth):
        doc = {"union": [doc]}
    return doc


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

    def test_text_format_of_an_empty_value(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"rows": [["-1", "0"], ["0", "-2"]]}))
        code, out = run(capsys, "eval", "--market", "mkt-a", "--position", str(bad),
                        "--measure", "wc", "--format", "text")
        assert (code, out) == (0, "empty set\n")

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

    def test_csv_vertices_needs_at_most_two_coordinates(self, capsys, tmp_path):
        argv = three_asset_hull_args(tmp_path)[:5] + ["--measure", "wc", "--format", "csv-vertices"]
        code, out = run(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"] == {"kind": "BadFormat",
                                            "detail": "csv-vertices requires m <= 2"}

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
        (["certify", "--market", "mkt-a", "--position", "wc-fixture", "--point", "0,5"],
         "ShapeMismatch", "portfolio (0, 5) is not in the eligible subspace"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure",
          '{"union": ["wc", {"var": {"kind": "weak", "level": "5/4"}}]}'],
         "BadLevel", "measure.union[1].var"),
        (["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure",
          '{"convex_combo": {"weight": "2", "left": "wc", "right": "wc"}}'],
         "BadLevel", "measure.convex_combo"),
    ] + [  # Fraction reads '_' from Python 3.11 and spaces inside from 3.12
        case for text in ("1 / 2", "1/ 2", "1_000", "1/2_0") for case in (
            (["eval", "--market", "mkt-b", "--measure", "wc", "--position",
              json.dumps({"rows": [[text, "0"], ["0", "0"], ["0", "0"]]})],
             "MalformedDocument", "'rows'"),
            (["certify", "--market", "mkt-a", "--position", "wc-fixture", "--point", f"{text},0"],
             "BadFlag", "--point"))])
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

    @pytest.mark.parametrize("flags, text, names", [
        (["--measure", '{"var": '], None, "measure does not parse as JSON"),
        (["--measure", "FILE"], '{"var": ', "measure does not parse as JSON"),
        (["--acceptance", '{"segment": '], None, "acceptance does not parse as JSON"),
        (["--position", "FILE", "--measure", "wc"], '{"rows": [[1, 2]',
         "position does not parse as JSON"),
        (["--position", "FILE", "--measure", "wc"], "[[1, 2]],",
         "position does not parse as JSON"),
        (["--position", "FILE", "--measure", "wc"], "[[1, 2]]",
         "position must be a JSON object, got list"),
        (["--market", "FILE", "--measure", "wc"], '{"rows": [[1, 2]',
         "market does not parse as JSON"),
        (["--market", "FILE", "--measure", "wc"], "[]", "market must be a JSON object, got list"),
        (["--position", "FILE", "--measure", "wc"], b"\xff{}", "position does not parse as JSON"),
        (["--measure", '{"translate": {"inner": "wc", "y": "FILE"}}'], "[[1, 2]]",
         "measure.translate.y must be a JSON object, got list"),
        (["--measure", '{"translate": {"inner": "wc", "y": "FILE"}}'], '{"rows": ',
         "measure.translate.y does not parse as JSON"),
    ])
    def test_unparsable_documents_name_their_flag(self, capsys, tmp_path, flags, text, names):
        path = tmp_path / "doc.json"
        if text is not None:
            (path.write_bytes if isinstance(text, bytes) else path.write_text)(text)
        argv = {"--market": "mkt-a", "--position": "wc-fixture"}
        for flag, value in zip(flags[::2], flags[1::2]):
            argv[flag] = value.replace("FILE", str(path))
        code, out = run(capsys, "eval", *(arg for item in argv.items() for arg in item))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument" and names in error["detail"]

    @pytest.mark.parametrize("flags, text, name", [
        (["eval", "--position", "var-fixture", "--measure"], json.dumps(nested_unions(250)),
         "measure"),
        (["eval", "--position", "var-fixture", "--measure"], "[" * 10 ** 5 + "]" * 10 ** 5,
         "measure"),
        (["eval", "--position", "var-fixture", "--acceptance"],
         json.dumps({"of_measure": nested_unions(250)}), "acceptance"),
        (["link", "--y", "var-fixture", "--members"],
         json.dumps([{"of_measure": nested_unions(300)}]), "members"),
    ], ids=["measure-nodes", "json-lists", "acceptance-nodes", "members-nodes"])
    def test_deep_nesting_exits_two_naming_the_flag(self, capsys, tmp_path, flags, text, name):
        (path := tmp_path / "doc.json").write_text(text)
        code, out = run(capsys, flags[0], "--market", "mkt-b", *flags[1:], str(path))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument"
        assert error["detail"].lstrip("-").startswith(name)

    def test_a_union_150_deep_evaluates(self, capsys, tmp_path):
        (path := tmp_path / "doc.json").write_text(json.dumps(nested_unions(150)))
        argv = ["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure"]
        assert run(capsys, *argv, str(path)) == run(capsys, *argv, "wc")

    @pytest.mark.parametrize("argv", [
        ["eval", "--position", "var-fixture", "--measure", "wc"],
        ["certify", "--position", "var-fixture", "--point", "0,0"],
    ], ids=["eval", "certify"])
    @pytest.mark.parametrize("flag", ["--seed", "--budget"])
    def test_commands_that_draw_no_samples_take_no_seed_or_budget(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exit_:
            main([argv[0], "--market", "mkt-b", *argv[1:], flag, "0"])
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag} 0" in capsys.readouterr().err

    def test_unparsable_members_name_their_flag(self, capsys):
        code, out = run(capsys, "link", "--market", "mkt-a", "--y", "wc-fixture",
                        "--members", '[{"dominance_at": ')
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument"
        assert error["detail"].startswith("members does not parse as JSON")

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


# every node whose body is an object, with all its fields
OBJECT_BODIES = REQUIRED_FIELDS + [
    ((), "wc", {}),
    (("of_acceptance",), "dominance_at", {"z": "wc-fixture"}),
    (("of_acceptance",), "segment", {"z": "wc-fixture"}),
    (("of_acceptance",), "ray", {"z": "wc-fixture"}),
]


@st.composite
def missing_field_case(draw, extra=False):
    """A measure document with one required field of one node left out, or
    (``extra``) with one field added that the node does not have, the node
    nested in up to two unions, shifts or acceptance round trips; the JSON
    path of that field."""
    wrap, key, body = draw(st.sampled_from(OBJECT_BODIES if extra else REQUIRED_FIELDS))
    if extra:
        field = draw(st.text("abklnstxyz_", min_size=1, max_size=6).filter(lambda f: f not in body))
        doc = {key: {**body, field: draw(st.sampled_from([1, "1/2", [], WC]))}}
    else:
        field = draw(st.sampled_from(sorted(body)))
        doc = {key: {k: v for k, v in body.items() if k != field}}
    path = f"{key}.{field}"
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

    @pytest.mark.parametrize("flag, doc, path", [
        ("--measure", {"of_acceptance": {"dominance_at": {"z": {"rowz": 1}}}},
         "measure.of_acceptance.dominance_at.z"),
        ("--measure", {"translate": {"inner": WC, "y": "EMPTY"}}, "measure.translate.y"),
        ("--acceptance", {"hull": {"points": [3], "rays": []}}, "acceptance.hull.points[0]"),
        ("--acceptance", {"segment": {"z": {"rows": "ab"}}}, "acceptance.segment.z"),
    ], ids=["inline-without-rows", "file-without-rows", "number", "bad-rows"])
    def test_position_errors_name_the_json_path(self, tmp_path, flag, doc, path):
        # "EMPTY" names a file holding {}
        (empty := tmp_path / "empty.json").write_text("{}")
        code, error = eval_error(flag, json.dumps(doc).replace("EMPTY", str(empty)))
        assert code == 2 and error["kind"] == "MalformedDocument"
        assert path in error["detail"] and "{" not in error["detail"]

    @settings(max_examples=60, deadline=None)
    @given(missing_field_case())
    def test_nested_missing_field_exits_two_naming_its_path(self, case):
        doc, path = case
        code, error = eval_error("--measure", json.dumps(doc))
        assert code == 2 and error["kind"] == "MalformedDocument"
        assert error["detail"].startswith(f"{path} is missing")
        assert "Error(" not in error["detail"]

    @settings(max_examples=60, deadline=None)
    @given(missing_field_case(extra=True))
    def test_nested_unknown_field_exits_two_naming_its_path(self, case):
        doc, path = case
        code, error = eval_error("--measure", json.dumps(doc))
        assert code == 2 and error["kind"] == "MalformedDocument"
        assert error["detail"].startswith(f"{path} is not a field of the ")

    @pytest.mark.parametrize("doc, path", [
        ({"wc": 5}, "measure.wc"), ({"wc": "x"}, "measure.wc"), ({"wc": []}, "measure.wc"),
        ({"shift": {"inner": {"wc": None}, "u": ["1", "0"]}}, "measure.shift.inner.wc"),
        ({"of_acceptance": {"segment": ["wc-fixture"]}}, "measure.of_acceptance.segment"),
    ])
    def test_a_body_that_is_not_an_object_is_malformed(self, doc, path):
        code, error = eval_error("--measure", json.dumps(doc))
        assert code == 2 and error["kind"] == "MalformedDocument"
        assert f"node at {path}: the body is not an object" in error["detail"]

    def test_wc_takes_an_empty_object_or_the_shorthand(self):
        values = []
        for doc in ("wc", '{"wc": {}}', '{"union": ["wc", {"wc": {}}]}'):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = main(["eval", "--market", "mkt-a", "--position", "wc-fixture",
                             "--measure", doc])
            values.append((code, out.getvalue()))
        assert values[0][0] == 0 and values == [values[0]] * len(values)


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


ANCHOR = '{"dominance_at": {"z": "var-fixture"}}'
MEMBERS = f"[{ANCHOR}]"
# (command, its flags with values that run it, the document and operand flags
# it reads); every flag is replaced in turn by a bad value or left out
COMMANDS = [
    ("eval", {"--market": "mkt-b", "--position": "var-fixture", "--measure": "wc"},
     ["--market", "--position", "--measure", "--acceptance"]),
    ("check", {"--market": "mkt-b", "--law": "R1", "--measure": "wc", "--budget": "5"},
     ["--market", "--measure"]),
    ("check", {"--market": "mkt-b", "--law": "A4", "--acceptance": ANCHOR,
               "--budget": "5"}, ["--acceptance"]),
    ("decompose", {"--market": "mkt-a", "--position": "wc-fixture", "--measure": "wc",
                   "--theorem": "monetary", "--budget": "5"},
     ["--market", "--position", "--measure"]),
    ("certify", {"--market": "mkt-a", "--position": "wc-fixture", "--point": "0,0"},
     ["--market", "--position", "--point"]),
    ("link", {"--market": "mkt-b", "--y": "var-fixture", "--members": MEMBERS, "--budget": "5"},
     ["--market", "--y", "--members"]),
]
BAD_VALUES = ["MISSING", "{", "[]", "{}", '"x"', "OTHER", "", None]


def run_in_process(capsys, argv) -> tuple[int, str]:
    """(exit code, stdout and stderr) of ``main(argv)``; argparse's exit is a code too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out + captured.err


class TestDocumentArguments:
    @pytest.mark.parametrize("value", BAD_VALUES,
                             ids=["missing-file", "brace", "list", "object", "string",
                                  "other-fixture", "empty", "left-out"])
    @pytest.mark.parametrize("command, flags, flag", [
        pytest.param(command, flags, flag, id=f"{command}{flag}")
        for command, flags, read in COMMANDS for flag in read])
    def test_no_command_prints_a_traceback(self, capsys, tmp_path, command, flags, flag, value):
        flags = dict(flags)
        if flag == "--acceptance" and command == "eval":
            del flags["--measure"]
        flags.pop(flag, None)
        if value is not None:
            other = "var-fixture" if flag == "--market" else "mkt-b"
            flags[flag] = {"MISSING": str(tmp_path / "missing.json"), "OTHER": other}.get(
                value, value)
        code, out = run_in_process(capsys, [command, *(a for kv in flags.items() for a in kv)])
        assert code in range(5) and "Traceback" not in out

    @pytest.mark.parametrize("operands", [[], ["--measure", "wc", "--acceptance", ANCHOR]],
                             ids=["neither", "both"])
    def test_eval_takes_exactly_one_operand(self, capsys, operands):
        code, out = run_in_process(capsys, ["eval", "--market", "mkt-b",
                                            "--position", "var-fixture", *operands])
        assert code == 2
        assert "--measure" in out and "--acceptance" in out and "usage:" in out

    @pytest.mark.parametrize("flag, doc, parser, laws", [
        ("--measure", '{"var": {"kind": "strong", "level": "1/4"}}', "measure_from_doc",
         ["R1", "R2", "R4"]),
        ("--acceptance", ANCHOR, "acceptance_from_doc", ["A2", "A4", "A_eq_ARA"]),
    ], ids=["measure", "acceptance"])
    def test_check_parses_each_operand_once(self, capsys, flag, doc, parser, laws):
        argv = ["check", "--market", "mkt-b", flag, doc, "--budget", "10"]
        argv += [arg for law in laws for arg in ("--law", law)]
        with mock.patch(f"svrisk.cli.{parser}", wraps=getattr(measures, parser)) as parse:
            code, out = run(capsys, *argv)
        assert code in (0, 1) and len(json.loads(out)["reports"]) == 3
        assert parse.call_count == 1

    def test_check_reads_every_operand_it_is_given(self, capsys):
        # R1 reads --measure alone; a malformed --acceptance still fails
        code, out = run_in_process(capsys, ["check", "--market", "mkt-b", "--measure", "wc",
                                            "--acceptance", "{", "--law", "R1"])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument"
        assert error["detail"].startswith("acceptance does not parse as JSON")

    @pytest.mark.parametrize("flags, path, file", [
        (["--position", "mkt-b", "--measure", "wc"], "position", "mkt-b"),
        (["--position", "DIR", "--measure", "wc"], "position", "DIR"),
        (["--market", "MISSING", "--measure", "wc"], "market", "MISSING"),
        (["--acceptance", "MISSING"], "acceptance", "MISSING"),
        (["--measure", '{"translate": {"inner": "wc", "y": "MISSING"}}'], "measure.translate.y",
         "MISSING"),
    ], ids=["missing-position", "directory", "missing-market", "missing-acceptance",
            "missing-inside-a-document"])
    def test_unreadable_files_name_their_flag(self, capsys, tmp_path, flags, path, file):
        names = {"MISSING": str(tmp_path / "missing.json"), "DIR": str(tmp_path)}
        argv = {"--market": "mkt-b", "--position": "var-fixture"}
        for flag, value in zip(flags[::2], flags[1::2]):
            argv[flag] = value.replace("MISSING", names["MISSING"]).replace("DIR", names["DIR"])
        code, out = run_in_process(capsys, ["eval", *(a for kv in argv.items() for a in kv)])
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument"
        assert error["detail"].startswith(f"{path} cannot read the file {names.get(file, file)!r}")

    def test_market_and_positions_take_inline_json(self, capsys):
        inline = ["eval", "--market", json.dumps(MARKET_DOCS["mkt-b"]),
                  "--position", json.dumps(POSITION_DOCS["var-fixture"]), "--measure",
                  json.dumps({"translate": {"inner": "wc", "y": json.dumps(
                      {"rows": [["0", "0"]] * 3})}})]
        named = ["eval", "--market", "mkt-b", "--position", "var-fixture", "--measure",
                 json.dumps({"translate": {"inner": "wc", "y": {"rows": [["0", "0"]] * 3}}})]
        assert run(capsys, *inline) == run(capsys, *named)
        code, out = run(capsys, "link", "--market", "mkt-b", "--members", MEMBERS,
                        "--y", json.dumps(POSITION_DOCS["var-fixture"]), "--budget", "5")
        assert code == 0 and json.loads(out)["report"]["verdict"] == "pass"

    @pytest.mark.parametrize("members, path", [
        ([{"of_measure": "wc"}], "members[0].of_measure"),
        ([json.loads(ANCHOR), {"union": [{"of_measure": "wc"}]}], "members[1].union"),
        ([json.loads(ANCHOR), {"intersection": json.loads(MEMBERS)}],
         "members[1].intersection"),
    ], ids=["of_measure", "union", "intersection"])
    def test_a_member_that_is_not_a_hull_is_malformed(self, capsys, members, path):
        code, out = run(capsys, "link", "--market", "mkt-b", "--y", "var-fixture",
                        "--members", json.dumps(members))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument" and error["detail"].startswith(path)

    @pytest.mark.parametrize("members, path", [
        ([{"dominance_at": {"z": 5}}], "members[0].dominance_at.z"),
        ([json.loads(ANCHOR), {"hull": {"points": ["var-fixture"]}}], "members[1].hull.rays"),
        ([json.loads(ANCHOR), {"cone": {}}], "members[1]"),
    ], ids=["position", "missing-field", "unknown-node"])
    def test_member_errors_name_the_member(self, capsys, members, path):
        code, out = run(capsys, "link", "--market", "mkt-b", "--y", "var-fixture",
                        "--members", json.dumps(members))
        assert code == 2
        error = json.loads(out)["error"]
        assert error["kind"] == "MalformedDocument" and path in error["detail"]
        assert "acceptance" not in error["detail"]
