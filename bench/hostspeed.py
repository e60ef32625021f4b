"""Host speed, measured with a fixed piece of pure-Python work.

The machines this benchmark runs on are shared. Under load from other
tenants the same CPU-bound episode takes up to twice as long for minutes at
a time, and process CPU time stretches with the wall, so raw times of the
CPU-bound workloads spread between runs by more than any bound a change
could be held to. For those workloads the benchmark times this loop
between chunks and scales each chunk's times by ``REFERENCE_S`` over the
loop's time around it: times read as on a host that runs the loop in
``REFERENCE_S``. The loop does what the engine does most, building small
containers and encoding JSON, so it slows with the engine.
"""

from __future__ import annotations

import json
import time

LOOPS = 1000
REFERENCE_S = 0.0035  # about what the loop takes on a quiet 2-vCPU Xeon virtual machine


def calibrate() -> float:
    """Seconds the loop takes now; the first pass only warms up."""
    for _ in range(2):
        start = time.perf_counter()
        table = {}
        size = 0
        for i in range(LOOPS):
            table[i & 63] = json.dumps([i, "calibrate", i / 7.0, {"k": i & 7}])
            size += len(table[i & 63])
        elapsed = time.perf_counter() - start
    return elapsed


def scale(before_s: float, after_s: float) -> float:
    """Factor from times taken between two calibrations to reference times."""
    return 2.0 * REFERENCE_S / (before_s + after_s)
