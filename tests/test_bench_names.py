"""Every svrisk name the benchmark scripts use still resolves.

The scripts under ``bench/`` are read as text, never imported or run.  A
name counts when it is written ``svrisk.<name>...``, imported with
``from svrisk[.<module>] import <name>``, or reached as ``<name>.<attr>``
through such an import.  Two contracts the scan cannot see are tested
directly: the attribute a call result must carry, and the call path a traced
metric is read from.
"""

import ast
import importlib
import inspect
import json
import re
import sys
from pathlib import Path

import pytest

import svrisk
from svrisk.fixtures import market, position

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
DOTTED = re.compile(r"\bsvrisk(?:\.[A-Za-z_]\w*)+")
FROM_IMPORT = re.compile(r"\bfrom (svrisk(?:\.\w+)*) import (\w+(?:, *\w+)*)")


def referenced_names() -> set[str]:
    names = set()
    for path in BENCH.glob("*.py"):
        text = path.read_text()
        names.update(DOTTED.findall(text))
        for module, imported in FROM_IMPORT.findall(text):
            for name in re.split(r", *", imported):
                names.add(f"{module}.{name}")
                names.update(f"{module}.{name}.{attr}" for attr in
                             re.findall(rf"\b{name}\.([A-Za-z_]\w*)", text))
    return names


def resolve(dotted: str):
    """The object a dotted svrisk name denotes, importing submodules on the way."""
    obj, parts = svrisk, dotted.split(".")
    for i, part in enumerate(parts[1:], start=2):
        if not hasattr(obj, part):
            importlib.import_module(".".join(parts[:i]))
        obj = getattr(obj, part)
    return obj


NAMES = sorted(referenced_names())


def test_the_scan_finds_the_benchmark_names():
    assert {"svrisk.Segment", "svrisk.WorstCase", "svrisk.fixtures.market",
            "svrisk.cli.parse_vertices_csv"} <= set(NAMES)


@pytest.mark.parametrize("dotted", NAMES)
def test_name_resolves(dotted):
    resolve(dotted)


def traced_modules() -> tuple[str, ...]:
    """``TRACED_MODULES`` of bench/spans.py, read from the source text."""
    tree = ast.parse((BENCH / "spans.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["TRACED_MODULES"])


LAYER_FUNCTIONS = sorted({tuple(m["name"].split(".")[:2])
                          for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
                          if m["name"].count(".") == 2})


@pytest.mark.parametrize("module", traced_modules())
def test_traced_module_imports(module):
    importlib.import_module(f"svrisk.{module}")


@pytest.mark.parametrize("module, function", LAYER_FUNCTIONS)
def test_per_layer_metric_reads_a_traced_function(module, function):
    # spans.py wraps only public functions defined in the module itself; a
    # metric of a function that is gone or moved would silently read 0
    assert module in traced_modules()
    fn = getattr(importlib.import_module(f"svrisk.{module}"), function, None)
    assert inspect.isfunction(fn) and fn.__module__ == f"svrisk.{module}"


def _var_value():
    return svrisk.eval_measure(market("mkt-b"), svrisk.VaRStrong("1/4"), position("var-fixture"))


def test_convert_rep_result_has_vertices():
    # workloads.py probes a value at ``svrisk.convert_rep(piece).vertices``
    value = _var_value()
    for piece in value.pieces:
        vertices = svrisk.convert_rep(piece).vertices
        assert vertices and all(len(v) == value.dim for v in vertices)


def test_value_at_risk_canonicalizes_an_upper_set_through_upper_set(monkeypatch):
    # spans.py reads measures.value_at_risk.candidate_pieces off the UpperSet
    # that geometry.canonicalize receives from upper_set under value_at_risk
    from svrisk import geometry
    canonicalize, calls = geometry.canonicalize, []

    def spy(a):
        out = canonicalize(a)
        callers = (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name)
        calls.append((callers, type(a), type(out)))
        return out

    monkeypatch.setattr(geometry, "canonicalize", spy)
    _var_value()
    assert (("upper_set", "value_at_risk"), svrisk.UpperSet, svrisk.UpperSet) in calls


def test_worst_case_canonicalizes_an_upper_set_through_upper_set(monkeypatch):
    # spans.py reads measures.worst_case.calls off the calls eval_measure makes,
    # and geometry.canonicalize.pieces_in off the UpperSet upper_set hands it
    from svrisk import geometry, measures
    worst_case, canonicalize, calls = measures.worst_case, geometry.canonicalize, []

    def spy(a):
        out = canonicalize(a)
        callers = (sys._getframe(1).f_code.co_name, sys._getframe(2).f_code.co_name)
        calls.append((callers, type(a), type(out)))
        return out

    monkeypatch.setattr(measures, "worst_case",
                        lambda mkt, x: calls.append("worst_case") or worst_case(mkt, x))
    monkeypatch.setattr(geometry, "canonicalize", spy)
    svrisk.eval_measure(market("mkt-b"), svrisk.WorstCase(), position("var-fixture"))
    assert calls[0] == "worst_case"
    assert (("upper_set", "worst_case"), svrisk.UpperSet, svrisk.UpperSet) in calls
