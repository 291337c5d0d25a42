"""The host a run measured on: a fixed probe and a description.

The probe is a fixed pure-Python computation that imports nothing from
the program under test.  The workloads run it between timed units, so
every run records how fast the host itself was while it measured.  It
is reported next to the other metrics and never divides them: on a
2-CPU host the probe tracked the Python-bound pipeline passes but not
the numpy-bound solve, so scaling by it would trade one error for
another.
"""

from __future__ import annotations

import os
import platform
import time

#: Iterations of the probe loop (about 10 ms of pure-Python work).
PROBE_ITERATIONS = 100_000


def probe_ms() -> float:
    """Milliseconds the running host takes for a fixed integer loop."""
    start = time.perf_counter()
    acc = 0
    for i in range(PROBE_ITERATIONS):
        acc = (acc * 31 + i) % 1_000_003
    elapsed = time.perf_counter() - start
    if acc < 0:  # never true; keeps the loop's result live
        raise ArithmeticError(acc)
    return elapsed * 1e3


def describe() -> dict:
    """CPU count and interpreter/library versions of the running host."""
    import numpy

    return {
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }
