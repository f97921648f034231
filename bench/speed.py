"""Host speed, measured by fixed reference work run between operations.

On a shared host the CPU itself runs the same Python code up to 1.75x slower
for stretches of 5-20 seconds (other tenants on the same cores), and CPU
time does not leave that out.  So the benchmark runs a small fixed kernel of
exact rational arithmetic (stdlib ``fractions`` only, no svrisk code) around
every operation, and scales the operation's CPU time by how fast the kernel
ran around it:

    reference time = CPU time * reference / mean(gauge before, gauge after)

that is, the time the operation would take on a host where the gauge takes
its reference time.  A change of svrisk moves the operation, not the gauge,
so it shows in full; a slow stretch of the host moves both and cancels.  Raw
CPU and wall times stay in the run record.

Two gauges: the kernel in this process (REF_KERNEL_S) for library calls, and
a fresh interpreter running this file (REF_CHILD_S) for child processes (CLI
commands, set-up probes), whose time is mostly interpreter start and imports.
"""

from __future__ import annotations

import gc
import os
import resource
import subprocess
import sys
import time
from fractions import Fraction

REF_KERNEL_S = 0.002   # CPU seconds of one kernel run in this process
REF_CHILD_S = 0.070    # CPU seconds of a fresh interpreter running this file

_ROWS = [tuple(Fraction(i * j % 7 - 3, j + 1) for j in range(4)) for i in range(24)]


def kernel() -> Fraction:
    """Dot products and comparisons of small fractions, like svrisk's rows."""
    best = Fraction(0)
    for a in _ROWS:
        for b in _ROWS[:6]:
            s = sum(x * y for x, y in zip(a, b))
            if s > best:
                best = s
    return best


def kernel_seconds() -> float:
    """CPU seconds of one kernel run, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.process_time()
        kernel()
        return time.process_time() - t0
    finally:
        if enabled:
            gc.enable()


def children_cpu() -> float:
    """User plus system seconds of all waited-for child processes."""
    r = resource.getrusage(resource.RUSAGE_CHILDREN)
    return r.ru_utime + r.ru_stime


def child_seconds() -> float:
    """CPU seconds of a fresh interpreter that runs the kernel once."""
    t0 = children_cpu()
    subprocess.run([sys.executable, os.path.abspath(__file__)], check=True,
                   stdout=subprocess.DEVNULL)
    return children_cpu() - t0


class Gauge:
    """Reads one gauge; ``every`` > 1 re-measures only on every n-th read."""

    def __init__(self, measure, reference: float, every: int = 1):
        self.measure = measure
        self.reference = reference
        self.every = every
        self.readings: list[float] = []   # every measurement taken
        self._reads = 0

    def read(self) -> float:
        if self._reads % self.every == 0:
            self.readings.append(self.measure())
        self._reads += 1
        return self.readings[-1]

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of CPU at reference speed, by the readings around it."""
        return seconds * self.reference / ((before + after) / 2.0)


def in_process() -> Gauge:
    return Gauge(kernel_seconds, REF_KERNEL_S)


def in_child(every: int = 1) -> Gauge:
    return Gauge(child_seconds, REF_CHILD_S, every)


if __name__ == "__main__":
    kernel()
