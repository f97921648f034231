"""Self-tests of the benchmark harness: python3 -m pytest bench -q"""

import json
import os
import subprocess
import sys
from fractions import Fraction

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def test_operation_list_is_a_function_of_the_seed():
    for workload in ("eval", "checks", "cli"):
        assert workloads.documents(workload, 3) == workloads.documents(workload, 3)
        assert workloads.documents(workload, 3) != workloads.documents(workload, 4)


def test_operation_names_repeat_per_seed():
    def names(seed):
        setup, plan = workloads.build_setup("checks", seed)
        return [op.name for op in workloads.operations("checks", setup, plan)]
    assert names(5) == names(5)
    assert len(set(names(5))) == len(names(5))


def test_every_pass_has_enough_operations_for_p90(tmp_path):
    for workload in ("eval", "checks", "cli"):
        for seed in (1, 2):
            setup, plan = workloads.build_setup(workload, seed, str(tmp_path))
            ops = workloads.operations(workload, setup, plan)
            assert sum(op.when is None for op in ops) >= run.MIN_SAMPLES


def test_seeds_move_one_base_position():
    a, _ = workloads.documents("checks", 3)
    b, _ = workloads.documents("checks", 4)
    for name in ("mkt-b.x0", "m8x2.x1", "m6x3.x0"):
        offsets = {tuple(Fraction(u) - Fraction(v) for u, v in zip(ra, rb))
                   for ra, rb in zip(a[name]["rows"], b[name]["rows"])}
        assert len(offsets) == 1
    offsets = {Fraction(ra[1]) - Fraction(rb[1])
               for ra, rb in zip(a["mkt-a.x0"]["rows"], b["mkt-a.x0"]["rows"])}
    assert offsets == {0}   # mkt-a moves only along M, its first axis


def test_reference_speed_scales_by_the_gauge_around_an_operation():
    readings = iter([0.004, 0.002, 0.006])
    gauge = speed.Gauge(lambda: next(readings), reference=0.002, every=2)
    before, same, after = gauge.read(), gauge.read(), gauge.read()
    assert (before, same, after) == (0.004, 0.004, 0.002)
    assert abs(gauge.scale(0.1, before, after) - 0.1 * 0.002 / 0.003) < 1e-12
    assert gauge.readings == [0.004, 0.002]
    assert speed.kernel_seconds() > 0 and speed.child_seconds() > 0


def test_self_time_on_a_hand_built_tree():
    #   0: [0, 10]  children 1: [1, 4] and 2: [5, 9];  2 has child 3: [6, 8]
    tree = [(1, 0, "p0:a", "f", 1.0, 4.0, None),
            (3, 2, "p0:a", "h", 6.0, 8.0, None),
            (2, 0, "p0:a", "g", 5.0, 9.0, None),
            (0, -1, "p0:a", "f", 0.0, 10.0, None)]
    assert spans.self_times(tree) == {0: 3.0, 1: 3.0, 2: 2.0, 3: 2.0}


def test_layer_metrics_weight_setup_once_and_passes_by_count():
    tree = [(0, -1, "setup", "scenario.load_market", 0.0, 0.002, None),
            (1, -1, "p0:x", "geometry.feasible", 0.0, 0.001, (4, 1)),
            (2, -1, "p1:x", "geometry.feasible", 0.0, 0.003, (4, 0))]
    got = spans.layer_metrics(tree, passes=2)
    assert got["scenario.load_market.calls"] == 1
    assert got["geometry.feasible.calls"] == 1
    assert got["geometry.feasible.rows_in"] == 4
    assert got["geometry.feasible.true_share"] == 0.5
    assert abs(got["geometry.feasible.self_ms"] - 2.0) < 1e-9


def test_p90_needs_a_hundred_samples_for_ten_above():
    value, above = run.percentile(range(100), 0.9)
    assert abs(value - 89.1) < 1e-9 and above == 10
    assert all(run.percentile(range(n), 0.9)[1] >= 10
               for n in range(run.MIN_SAMPLES, 400))
    assert run.percentile(range(50), 0.9)[1] < 10
    assert run.percentile([5, 1, 3], 0.5) == (3, 1)


def test_every_benchmark_metric_is_printed_with_its_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert e2e == dict(run.END_TO_END)
    line = run.result({name: 1.0 for name in e2e}, e2e, 3, 0)
    assert {k: v["unit"] for k, v in line["metrics"].items()} == e2e

    layers = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    specs = {name: (unit, better) for name, unit, better in spans.layer_metric_specs()}
    assert layers == specs
    traced = spans.layer_metrics([], passes=1)
    traced.update({name: 0.0 for name, _, _ in spans.EXTRA_LAYER_METRICS})
    assert set(traced) == set(layers)


def test_workload_reasons_match_benchmark_json():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WHY


def test_wrappers_reach_calls_made_between_modules():
    code = (
        "import spans, svrisk\n"
        "from fractions import Fraction\n"
        "from svrisk import fixtures\n"
        "t = spans.Tracer(); t.install(); t.op = 'p0:x'\n"
        "svrisk.eval_measure(fixtures.market('mkt-b'), svrisk.VaRStrong(Fraction(1, 4)),"
        " fixtures.position('var-fixture'))\n"
        "names = {s[3]: s for s in t.spans}\n"
        "by_id = {s[0]: s for s in t.spans}\n"
        "assert svrisk.measures.feasible is svrisk.geometry.feasible\n"
        "assert by_id[names['measures.value_at_risk'][1]][3] == 'measures.eval_measure'\n"
        "print(sorted(names))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([BENCH, os.path.join(ROOT, "src")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=60).stdout
    assert "geometry.canonicalize" in out and "geometry.feasible" in out


def test_oracle_agrees_with_the_documented_fixture_value():
    market, x = workloads.fixtures.market("mkt-b"), workloads.fixtures.position("var-fixture")
    value = workloads.svrisk.eval_measure(market, workloads.svrisk.VaRStrong(workloads.LEVEL), x)
    assert workloads.verify_value(value, market, "var-strong", x) is None
    assert workloads.verify_value(value, market, "wc", x) is not None
