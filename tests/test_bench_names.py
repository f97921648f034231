"""Every svrisk name the benchmark scripts use still resolves.

The scripts under ``bench/`` are read as text, never imported or run.  A
name counts when it is written ``svrisk.<name>...``, imported with
``from svrisk[.<module>] import <name>``, or reached as ``<name>.<attr>``
through such an import.
"""

import importlib
import re
from pathlib import Path

import pytest

import svrisk

BENCH = Path(__file__).resolve().parent.parent / "bench"
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
