"""Alternating base/change pairs of bench/run.py, written as one JSON file.

    python .github/bench_pairs.py --base REV --workload W [--workload W2 ...]
        [--pairs N] [--seed S] [--seconds T] --out BENCH_<pr>.json

The change is the checkout this script sits in, uncommitted files
included; the base is REV, checked out in a temporary clone that shares
the repository's objects (``git clone --shared``) and writes nothing into
its ``.git``, so a run stopped before its cleanup leaves no worktree entry.
Each tree runs its own bench/run.py, so each times its own src/.  Pair i
runs both sides once, the base first in even pairs and the change first in
odd ones, so neither side always meets a cold or a warm host.

For each end-to-end metric that BENCHMARK.json names, the file gives both
sides' median and quartiles, the pair count and the number of pairs in
which the change read better, plus the raw records of every run, both
commits and the Python version.  The clone is removed on every exit.
Any run that does not end ``correct`` fails the script, and no file is
written.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def quantile(values, q: float) -> float:
    """The linear-interpolated q-quantile of ``values``, one value or more."""
    s = sorted(values)
    h = (len(s) - 1) * q
    lo = int(h)
    return s[lo] + (h - lo) * (s[min(lo + 1, len(s) - 1)] - s[lo])


def summarize(pairs, specs) -> dict:
    """Per metric of ``specs`` (dicts with 'name' and 'better', 'lower' or
    'higher'): each side's median and quartiles over ``pairs``, a list of
    (base, change) dicts of metric values, and the pairs the change won."""
    out = {}
    for spec in specs:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        sides = {side: [p[i][name] for p in pairs] for i, side in enumerate(("base", "change"))}
        out[name] = {
            **{side: {"median": quantile(v, 0.5), "q1": quantile(v, 0.25), "q3": quantile(v, 0.75)}
               for side, v in sides.items()},
            "better": spec["better"], "pairs": len(pairs),
            "change_won": sum(sign * c < sign * b for b, c in zip(sides["base"], sides["change"])),
        }
    return out


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                          check=True).stdout.strip()


def bench_run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One bench/run.py of ``tree``: its record and end-to-end metrics."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed",
                           str(seed), "--seconds", str(seconds)], cwd=tree, env=env,
                          capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    if not result.get("correct"):
        raise SystemExit(f"bench_pairs: {workload} in {tree} is not correct "
                         f"(exit {proc.returncode}): {(lines or [''])[-1]}\n{proc.stderr[-2000:]}")
    record, _ = json.JSONDecoder().raw_decode(proc.stdout)
    return {**record, "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="the git revision to compare against")
    parser.add_argument("--workload", required=True, action="append",
                        choices=("eval", "checks", "cli"))
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        specs = json.load(fh)["end_to_end"]

    base_commit = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    tmp = tempfile.mkdtemp(prefix="bench-pairs-")
    tree = os.path.join(tmp, "base")
    try:
        git("clone", "--quiet", "--shared", "--no-checkout", ROOT, tree)
        subprocess.run(["git", "checkout", "--quiet", "--detach", base_commit], cwd=tree,
                       capture_output=True, check=True)
        workloads = {}
        for w in args.workload:
            runs = []
            for i in range(args.pairs):
                order = ("base", "change") if i % 2 == 0 else ("change", "base")
                pair = {side: bench_run(tree if side == "base" else ROOT, w, args.seed,
                                        args.seconds) for side in order}
                runs.append({"first": order[0], **pair})
            pairs = [(r["base"]["metrics"], r["change"]["metrics"]) for r in runs]
            workloads[w] = {"metrics": summarize(pairs, specs), "runs": runs}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    doc = {
        "base": {"rev": args.base, "commit": base_commit},
        "change": {"commit": git("rev-parse", "HEAD"),
                   "uncommitted": bool(git("status", "--porcelain", "--", "src", "bench"))},
        "python": platform.python_version(), "seed": args.seed, "seconds": args.seconds,
        "pairs": args.pairs, "workloads": workloads,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    for w, entry in workloads.items():
        for name, m in entry["metrics"].items():
            print(f"{w:7s} {name:14s} base {m['base']['median']:.6g} change "
                  f"{m['change']['median']:.6g} won {m['change_won']}/{m['pairs']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
