"""Seeded, closed-loop benchmark of svrisk.

    python3 bench/run.py --workload {eval,checks,cli} --seed N --seconds S --trace {0,1}

Runs from the root of a source checkout and uses ``src/`` directly.  One
caller runs the workload's fixed operation list on seeded inputs (the next
operation starts only after the previous one returned) for a fixed number of
passes: PASSES per 30 s of S.  The count depends on S alone, so a faster
commit does not earn more repetitions.

Times are CPU seconds of the process doing the work (this one for library
calls, the child for a CLI command or a set-up probe, user plus system
time), scaled to reference speed by the gauges in speed.py, which run
between operations.  On a shared host the wall clock of the same work moved
by 25-30% from run to run, and CPU time alone still moves with the speed of
the host's cores; see speed.py.  An operation's figure is the median of its
repetitions at reference speed, and pass_ref_s is one pass rebuilt from
those: the sum over the list.  Raw CPU and wall times stay in the run record.
Every list has at least 100 operations, so p90 keeps ten samples above it.
Every output is checked (see workloads.py) and digested; at the reference
seed the digests must equal bench/reference.json.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one pass
untraced, then wraps svrisk's public functions (spans.py), sets up again and
runs one pass traced; it prints the per-layer metrics, for one set-up plus
one pass, and writes the spans to bench/.run/.  The last line of stdout is
the result as one JSON object.

Without ``src/svrisk`` next to this directory the run exits with code 2 and
prints no result.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUN_DIR = os.path.join(BENCH, ".run")
REFERENCE = os.path.join(BENCH, "reference.json")
REFERENCE_SEED = 1
MIN_SAMPLES = 100        # p90 keeps >= 10 samples above it
PASSES = {"eval": 3, "checks": 3, "cli": 2}   # per 30 s; a pass takes 8-17 s
SETUP_PROBES = 5
CLI_GAUGE_EVERY = 3      # a child gauge costs about half a light CLI command
HARD_STOP_S = 140.0      # a run must end well inside 180 s

END_TO_END = (("setup_s", "s"), ("pass_ref_s", "s"), ("op_ref_ms.p50", "ms"),
              ("op_ref_ms.p90", "ms"), ("peak_rss_mb", "MB"))

HAVE_SRC = os.path.isfile(os.path.join(SRC, "svrisk", "__init__.py"))
if HAVE_SRC:
    sys.path.insert(0, SRC)
    import spans
    import speed
    import workloads


def percentile(samples, q: float) -> tuple[float, int]:
    """Linear-interpolated q-quantile and the number of samples above it."""
    s = sorted(samples)
    h = (len(s) - 1) * q
    lo = math.floor(h)
    value = s[lo] + (h - lo) * (s[min(lo + 1, len(s) - 1)] - s[lo])
    return value, sum(1 for v in s if v > value)


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("SVRISK_")}
    env["PYTHONPATH"] = SRC
    return env


class CliRunner:
    """Runs one CLI command per call; traced children go through traced_cli.py."""

    def __init__(self, tracer=None, workdir: str | None = None):
        self.tracer = tracer
        self.workdir = workdir
        self.env = _child_env()
        self.stdout_bytes = 0
        self.import_ms: list[float] = []
        self._pending: list[tuple[str, str]] = []   # (spans file, op) not yet adopted

    def __call__(self, argv):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "svrisk.cli", *argv]
        else:
            spans_out = os.path.join(self.workdir, f"child-{len(self._pending)}.jsonl.gz")
            self._pending.append((spans_out, self.tracer.op))
            cmd = [sys.executable, os.path.join(BENCH, "traced_cli.py"), spans_out, "--", *argv]
        proc = subprocess.run(cmd, capture_output=True, text=True, env=self.env,
                              cwd=ROOT, timeout=120, check=False)
        if self.tracer is not None:
            self.stdout_bytes += len(proc.stdout.encode())
        return {"code": proc.returncode, "stdout": proc.stdout}

    def collect(self) -> None:
        """Adopt the spans the traced children wrote (outside the timed pass)."""
        for path, op in self._pending:
            header, child = spans.load_spans(path)
            self.tracer.adopt(child, op)
            self.import_ms.append(header["import_ms"])
            os.remove(path)
        self._pending.clear()


class Run:
    """Passes over one operation list, with their latencies and digests.

    ``failed`` maps (pass, op) to the first reason that occurrence failed:
    an exception, an output unlike the first pass's, a failed check or a
    digest unlike the reference.
    """

    def __init__(self, ops, clock, gauge, tracer=None, collect=None):
        self.ops = ops
        self.clock = clock              # CPU seconds of whoever does the work
        self.gauge = gauge              # host speed around each operation
        self.tracer = tracer
        self.collect = collect
        self.walls: list[float] = []
        self.cpus: list[float] = []         # per pass, op CPU seconds by ``clock``
        self.refs: list[float] = []         # per pass, op seconds at reference speed
        self.gauges: list[float] = []       # per pass, median gauge reading
        self.digests: list[dict] = []       # per pass: op -> output digest
        self.first: dict = {}               # results of the first pass
        self.failed: dict[tuple[int, str], str] = {}
        self.op_seconds: dict[str, list[float]] = {}   # at reference speed

    @property
    def attempted(self) -> int:
        return sum(len(v) for v in self.op_seconds.values())

    def fail(self, name: str, reason: str, same_as_first: bool = False) -> None:
        for i, digests in enumerate(self.digests):
            if name in digests and (not same_as_first or digests[name] == self.digests[0][name]):
                self.failed.setdefault((i, name), reason)

    def one_pass(self) -> None:
        results, errors = {}, {}
        tracer = self.tracer
        clock = self.clock
        index = len(self.walls)
        gauge = self.gauge
        first_reading = len(gauge.readings)
        before = gauge.read()
        ref = cpu_sum = 0.0
        start = time.perf_counter()
        for op in self.ops:
            prev = None
            if op.after is not None:
                if op.after not in results:
                    continue
                prev = results[op.after]
                if op.when is not None and not op.when(prev):
                    continue
            if tracer is not None:
                tracer.op = f"p{index}:{op.name}"
            t0 = clock()
            try:
                results[op.name] = op.call(prev)
            except Exception as exc:  # an operation failure is a measured outcome
                errors[op.name] = f"{type(exc).__name__}: {exc}"
            cpu = clock() - t0
            after = gauge.read()
            seconds = gauge.scale(cpu, before, after)
            before = after
            self.op_seconds.setdefault(op.name, []).append(seconds)
            ref += seconds
            cpu_sum += cpu
        self.walls.append(time.perf_counter() - start)
        self.cpus.append(cpu_sum)
        self.refs.append(ref)
        self.gauges.append(statistics.median(gauge.readings[first_reading:]))
        if tracer is not None:
            tracer.active = False
        if self.collect is not None:
            self.collect()
        digests = {name: workloads.digest(workloads.output_doc(r)) for name, r in results.items()}
        digests.update({name: workloads.digest({"error": e.split(":")[0]})
                        for name, e in errors.items()})
        self.digests.append(digests)
        for name, e in errors.items():
            self.failed.setdefault((index, name), e)
        if index == 0:
            self.first = results
        else:
            for name, d in digests.items():
                if self.digests[0].get(name) != d:
                    self.failed.setdefault((index, name), "output differs from the first pass")
        if tracer is not None:
            tracer.active = True

    def repeat(self, passes: int) -> None:
        begin = time.perf_counter()
        while len(self.walls) < passes and time.perf_counter() - begin < HARD_STOP_S:
            self.one_pass()

    def op_figures(self) -> list[float]:
        """Per operation, the median of its repetitions at reference speed."""
        return [statistics.median(v) for v in self.op_seconds.values()]

    def verify(self) -> None:
        """Independent checks of the first pass; a wrong output fails every pass."""
        for op in self.ops:
            if op.name not in self.first:
                continue
            prev = self.first.get(op.after) if op.after else None
            try:
                err = op.verify(self.first[op.name], prev)
            except Exception as exc:  # a check that cannot read the output fails it
                err = f"unreadable output ({type(exc).__name__}: {exc})"
            if err:
                self.fail(op.name, err, same_as_first=True)

    def check_reference(self, workload: str, seed: int) -> None:
        if seed != REFERENCE_SEED or not os.path.exists(REFERENCE):
            return
        with open(REFERENCE, encoding="utf-8") as fh:
            ref = json.load(fh).get(workload, {"ops": {}})["ops"]
        for name in self.digests[0]:
            if ref.get(name) != self.digests[0][name]:
                self.fail(name, "digest differs from the reference", same_as_first=True)
        for name in set(ref) - set(self.digests[0]):
            self.failed.setdefault((0, name), "expected by the reference but not run")

    def slowest(self, k: int = 8) -> dict[str, float]:
        """Reference milliseconds of the k slowest operations."""
        med = {name: statistics.median(v) * 1000.0 for name, v in self.op_seconds.items()}
        return dict(sorted(med.items(), key=lambda kv: -kv[1])[:k])

    def output_digest(self) -> str:
        return workloads.digest(sorted(self.digests[0].items()))


def _write_reference(workload: str, run: Run, findings) -> None:
    data = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = {"seed": REFERENCE_SEED, "output_digest": run.output_digest(),
                      "known_findings": findings,
                      "ops": dict(sorted(run.digests[0].items()))}
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _setup_seconds(workload: str, seed: int, workdir: str) -> list[float]:
    """Fresh processes from start to ready (interpreter, import, documents,
    markets): their CPU seconds at reference speed."""
    cmd = [sys.executable, os.path.abspath(__file__), "--probe-setup", workdir,
           "--workload", workload, "--seed", str(seed)]
    gauge, out = speed.in_child(), []
    for _ in range(SETUP_PROBES):
        before = gauge.read()
        t0 = speed.children_cpu()
        subprocess.run(cmd, check=True, cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL)
        cpu = speed.children_cpu() - t0
        out.append(gauge.scale(cpu, before, gauge.read()))
    return out


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                          cwd=ROOT, check=False)
    return proc.stdout.strip() or "unknown"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "svrisk")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()[:16]


def _prepare(workload, seed, tracer, workdir):
    setup, plan = workloads.build_setup(workload, seed, workdir)
    runner = CliRunner(tracer, workdir) if workload == "cli" else None
    return workloads.operations(workload, setup, plan, runner), runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("eval", "checks", "cli"))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKDIR", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="record this run's output digests in bench/reference.json")
    args = parser.parse_args(argv)

    if not HAVE_SRC:
        print(f"bench: no svrisk sources under {SRC}", file=sys.stderr)
        return 2
    if args.probe_setup:
        _prepare(args.workload, args.seed, None, args.probe_setup)
        return 0
    if args.write_reference and (args.seed != REFERENCE_SEED or args.trace):
        parser.error(f"--write-reference needs --seed {REFERENCE_SEED} --trace 0")

    for tree in (SRC, BENCH):
        compileall.compile_dir(tree, quiet=1)
    # documents and child spans of this process only, so that runs can overlap
    scratch = os.path.join(RUN_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(scratch)
    try:
        return _measure(args, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def _measure(args, scratch: str) -> int:
    if args.workload == "cli":
        clock, gauge = speed.children_cpu, speed.in_child(CLI_GAUGE_EVERY)
    else:
        clock, gauge = time.process_time, speed.in_process()
    ops, runner = _prepare(args.workload, args.seed, None, os.path.join(scratch, "docs"))
    run = Run(ops, clock, gauge)
    run.repeat(1 if args.trace else max(2, round(PASSES[args.workload] * args.seconds / 30)))
    if args.workload == "cli":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    run.verify()
    run.check_reference(args.workload, args.seed)
    findings = workloads.known_findings(ops, run.first)
    runs = [run]

    record = {
        "workload": args.workload, "why": workloads.WHY[args.workload],
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "commit": _commit(), "src_sha256": _src_digest(),
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "loop": "closed, one caller", "passes": len(run.walls),
        "ops_per_pass": len(run.digests[0]),
        "output_digest": run.output_digest(), "known_findings": findings,
    }
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        tracer.op = "setup"
        ops, runner = _prepare(args.workload, args.seed, tracer, os.path.join(scratch, "traced"))
        traced = Run(ops, clock, gauge, tracer, runner.collect if runner else None)
        traced.repeat(1)
        tracer.active = False
        traced.verify()
        runs.append(traced)
        for name, d in traced.digests[0].items():
            if run.digests[0].get(name) != d:
                traced.fail(name, "traced output differs from the untraced one")
        metrics = spans.layer_metrics(tracer.spans, len(traced.walls))
        metrics["cli.import_ms"] = statistics.fmean(runner.import_ms) if runner else 0.0
        metrics["cli.stdout_bytes"] = runner.stdout_bytes / len(traced.walls) if runner else 0.0
        metrics["trace.overhead_share"] = (traced.refs[0] - run.refs[0]) / run.refs[0]
        spans_path = os.path.join(RUN_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl.gz")
        tracer.dump(spans_path, {"workload": args.workload, "seed": args.seed,
                                 "traced_passes": len(traced.walls)})
        record.update({"untraced_pass_ref_s": run.refs, "traced_pass_ref_s": traced.refs,
                       "untraced_pass_cpu_s": run.cpus, "traced_pass_cpu_s": traced.cpus,
                       "untraced_pass_walls_s": run.walls, "traced_pass_walls_s": traced.walls,
                       "traced_passes": len(traced.walls), "spans": len(tracer.spans),
                       "spans_file": os.path.relpath(spans_path, ROOT),
                       "traced_output_digest": traced.output_digest()})
        units = {name: unit for name, unit, _ in spans.layer_metric_specs()}
    else:
        best = run.op_figures()
        p50, above50 = percentile(best, 0.5)
        p90, above90 = percentile(best, 0.9)
        setups = _setup_seconds(args.workload, args.seed, os.path.join(scratch, "probe"))
        metrics = {"setup_s": statistics.median(setups), "pass_ref_s": sum(best),
                   "op_ref_ms.p50": p50 * 1000.0, "op_ref_ms.p90": p90 * 1000.0,
                   "peak_rss_mb": peak_kb / 1024.0}
        record.update({"op_samples": len(best), "repetitions": len(run.walls),
                       "p50_samples_above": above50,
                       "p90_samples_above": above90, "setup_samples": len(setups),
                       "setup_ref_s": setups, "pass_ref_s": run.refs, "pass_cpu_s": run.cpus,
                       "pass_walls_s": run.walls,
                       "gauge_ms": [g * 1000.0 for g in run.gauges],
                       "gauge_reference_ms": gauge.reference * 1000.0,
                       "slowest_ops_ref_ms": run.slowest()})
        units = dict(END_TO_END)

    attempted = sum(r.attempted for r in runs)
    failed = sum(len(r.failed) for r in runs)
    record["failed_share"] = failed / attempted
    record["failures"] = sorted({f"{name}: {why}" for r in runs
                                 for (_i, name), why in r.failed.items()})[:20]
    if args.write_reference:
        _write_reference(args.workload, run, findings)
    print(json.dumps({"record": record}, indent=1))
    for name, value in metrics.items():
        print(f"{name:48s} {value:14.6f} {units[name]}")
    print(json.dumps(result(metrics, units, attempted, failed)))
    return 0


def result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    """The last line of a run: verdict, counts and every metric with its unit."""
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in metrics.items()}}


if __name__ == "__main__":
    sys.exit(main())
