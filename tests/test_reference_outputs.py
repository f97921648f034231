"""Output documents stay byte-identical to the benchmark's reference digests.

One pass of the ``eval`` and ``checks`` workloads runs at the reference seed
through ``bench/run.py``'s own pass loop, which digests each operation's
output document (or its error kind), and every digest must equal the one
recorded in ``bench/reference.json``.  The bench scripts are imported, never
changed.
"""

import json
import os
import sys
import time

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")
sys.path.insert(0, BENCH)

import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", ["eval", "checks"])
def test_one_pass_matches_the_reference_digests(workload):
    with open(run.REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)[workload]["ops"]
    setup, plan = workloads.build_setup(workload, run.REFERENCE_SEED)
    ops = workloads.operations(workload, setup, plan)
    # a constant gauge: the pass is run for its digests, not its times
    one_pass = run.Run(ops, time.process_time, speed.Gauge(lambda: 1.0, 1.0))
    one_pass.one_pass()
    assert one_pass.digests[0] == reference
