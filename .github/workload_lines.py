"""Report which lines of src/svrisk no benchmark workload reaches.

    python .github/workload_lines.py [--seed N]

Reads src/ and bench/ of the checkout it sits in.  One in-process pass
of each workload in bench/workloads.py (eval, checks, cli) runs at the
seed under ``sys.settrace``, set-up included; a cli command goes through
``svrisk.cli.main`` with its output captured.  The trace starts before
svrisk is imported, so definitions count as reached.  Outputs are not
judged here: bench/run.py does that.

Prints Markdown: reached/executable line counts per module, then each
function (by its top-level qualified name, nested code included) with
lines that no workload ran.  A line is executable when some code object
compiled from the module maps an instruction to it.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
PKG = os.path.dirname(importlib.util.find_spec("svrisk").origin)
WORKLOADS = ("eval", "checks", "cli")


def code_lines(path: str) -> dict[str, set[int]]:
    """Per top-level qualified name, the lines its code objects execute."""
    with open(path, encoding="utf-8") as fh:
        top = compile(fh.read(), path, "exec")
    out: dict[str, set[int]] = {}
    stack = [top]
    while stack:
        code = stack.pop()
        name = getattr(code, "co_qualname", code.co_name).split(".<locals>")[0]
        out.setdefault(name, set()).update(line for _, _, line in code.co_lines() if line)
        stack += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return out


def line_runs(lines) -> str:
    """Sorted line numbers as runs: 3-5, 9."""
    runs: list[list[int]] = []
    for n in sorted(lines):
        if runs and n == runs[-1][1] + 1:
            runs[-1][1] = n
        else:
            runs.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def run_workloads(seed: int, workdir: str) -> dict[str, int]:
    """One pass of each workload, set-up included; per workload the number
    of operations that raised."""
    import svrisk.cli
    import workloads

    def cli_runner(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = svrisk.cli.main(argv)
        return {"code": code, "stdout": out.getvalue()}

    raised = {}
    for w in WORKLOADS:
        setup, plan = workloads.build_setup(w, seed, os.path.join(workdir, w))
        results, raised[w] = {}, 0
        for op in workloads.operations(w, setup, plan, cli_runner):
            prev = results.get(op.after)
            if op.after is not None and (op.after not in results
                                         or op.when is not None and not op.when(prev)):
                continue
            try:
                results[op.name] = op.call(prev)
            except Exception:  # the benchmark judges failures; a raise still reaches lines
                raised[w] += 1
    return raised


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    seed = parser.parse_args().seed
    reached: set[tuple[str, int]] = set()
    prefix = PKG + os.sep

    def local(frame, event, arg):
        reached.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def tracer(frame, event, arg):
        if not frame.f_code.co_filename.startswith(prefix):
            return None
        return local(frame, event, arg)

    with tempfile.TemporaryDirectory() as workdir:
        sys.settrace(tracer)
        try:
            raised = run_workloads(seed, workdir)
        finally:
            sys.settrace(None)

    rows, gaps, total = [], [], [0, 0]
    for fname in sorted(f for f in os.listdir(PKG) if f.endswith(".py")):
        path = os.path.join(PKG, fname)
        hit = {line for f, line in reached if f == path}
        per_name = code_lines(path)
        lines = set().union(*per_name.values())
        rows.append(f"| {fname} | {len(lines & hit)} | {len(lines)} |")
        total[0] += len(lines & hit)
        total[1] += len(lines)
        for name, own in sorted(per_name.items()):
            if missed := own - hit:
                gaps.append(f"| {fname[:-3]}.{name} | {len(missed)} of {len(own)} "
                            f"| {line_runs(missed)} |")
    print(f"### src/svrisk lines reached by one pass of each workload (seed {seed})\n")
    print("operations that raised: " + ", ".join(f"{w} {n}" for w, n in raised.items()) + "\n")
    print("| module | reached | executable |\n|---|---:|---:|")
    print("\n".join(rows))
    print(f"| **all** | **{total[0]}** | **{total[1]}** |\n")
    print("### functions with lines no workload ran\n")
    print("| function | unreached lines | line numbers |\n|---|---:|---|")
    print("\n".join(gaps))
    return 0


if __name__ == "__main__":
    sys.exit(main())
