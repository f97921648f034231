"""The statistics of ``.github/bench_pairs.py``, as pure functions.

The script itself runs the benchmark in a clone of the base; only its
summary of the pairs is tested here, with no subprocess.
"""

import importlib.util
import statistics
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / ".github" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", PATH)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

SPECS = [{"name": "t", "better": "lower"}, {"name": "share", "better": "higher"}]


@pytest.mark.parametrize("values", [[3.0], [2.0, 1.0], [5.0, 1.0, 4.0, 2.0], [1.0, 9.0, 2.0, 7.0, 3.0]])
def test_quantiles_are_the_inclusive_ones(values):
    assert bench_pairs.quantile(values, 0.5) == statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        assert (bench_pairs.quantile(values, 0.25), bench_pairs.quantile(values, 0.75)) == (q1, q3)
    else:
        assert bench_pairs.quantile(values, 0.25) == bench_pairs.quantile(values, 0.75) == 3.0


def test_summary_counts_the_pairs_the_change_won_in_each_direction():
    pairs = [({"t": 2.0, "share": 0.5}, {"t": 1.0, "share": 0.4}),
             ({"t": 3.0, "share": 0.5}, {"t": 3.0, "share": 0.6}),
             ({"t": 4.0, "share": 0.5}, {"t": 5.0, "share": 0.7})]
    got = bench_pairs.summarize(pairs, SPECS)
    assert got["t"] == {"base": {"median": 3.0, "q1": 2.5, "q3": 3.5},
                        "change": {"median": 3.0, "q1": 2.0, "q3": 4.0},
                        "better": "lower", "pairs": 3, "change_won": 1}
    # a tie is no win; for a 'higher' metric the larger value wins
    assert got["share"]["change_won"] == 2
    assert got["share"]["change"] == pytest.approx({"median": 0.6, "q1": 0.5, "q3": 0.65})


def test_one_pair_has_its_values_as_quartiles():
    got = bench_pairs.summarize([({"t": 1.0, "share": 1.0}, {"t": 1.0, "share": 1.0})], SPECS)
    assert got["t"]["base"] == got["t"]["change"] == {"median": 1.0, "q1": 1.0, "q3": 1.0}
    assert got["t"]["change_won"] == got["share"]["change_won"] == 0
