"""A reference kernel for scaling measured times to the machine's speed.

The VM this benchmark was written on changes speed by up to ±20% from
one second to the next and by up to 40% for minutes at a time.  Process
CPU time moves with wall time, so the cause is the host, not time spent
descheduled.  A time measured in one run is therefore scaled by
REFERENCE_S / k, where k is the time this fixed pure-Python kernel takes
around it on the same CPU.  The result reads as the time on a machine
where the kernel takes exactly REFERENCE_S.  The raw times are reported
next to the scaled ones.
"""

from __future__ import annotations

import os
import time

REFERENCE_S = 0.001
_ITERATIONS = 9000


def kernel_s() -> float:
    """Seconds one pass of the kernel takes now."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(_ITERATIONS):
        table[i % 97] = table.get(i % 53, 0) + i
    return time.perf_counter() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor that turns a time bracketed by two kernel passes into
    reference time."""
    return REFERENCE_S / ((before_s + after_s) / 2)


def pin_to_one_cpu() -> int:
    """Keep this process, and the children it starts, on one CPU, so the
    kernel runs on the CPU that does the work.  The load is one closed-loop
    caller, so nothing runs in parallel that this would serialize."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu
