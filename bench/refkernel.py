"""The reference kernel used to rescale operation times.

A shared machine runs a fixed piece of pure-Python work slower or faster
from one minute to the next.  The kernel below does the kinds of work eisq
does (dict and tuple traffic, big-integer arithmetic, a Jacobi-symbol
loop).  After every operation it runs back to back for a quarter of that
operation's time.  An operation's wall time, times NOMINAL_S over the
kernel time measured beside it, is its time on the reference machine.
The kernel never calls eisq, so no change to the program can move it.
"""

from __future__ import annotations

import statistics
import time

from checks import jacobi

# median kernel time on the reference machine (see README.md)
NOMINAL_S = 0.00035

_MUL = 0x2545F4914F6CDD1D_9E3779B97F4A7C15
_MASK = (1 << 127) - 1


def kernel() -> int:
    table: dict[tuple[int, int], int] = {}
    x = 0x853C49E6748FEA9B
    acc = 0
    for i in range(48):
        x = (x * _MUL + i) & _MASK
        key = (x >> 120, i & 7)
        table[key] = table.get(key, 0) + (x & 0xFF)
        acc += jacobi(x >> 63, (x & 0xFFFFFFFFFFFF) | 1)
    return acc + len(table)


def window(budget_s: float) -> float:
    """Median wall time of back-to-back kernel runs filling budget_s, in seconds.

    One short run is at the mercy of a timer tick or of the caches the
    previous operation left behind; a window that grows with the
    operation it stands beside measures the machine over that stretch."""
    times = []
    clock = time.perf_counter
    end = clock() + budget_s
    while True:
        t0 = clock()
        kernel()
        t1 = clock()
        times.append(t1 - t0)
        if t1 >= end and len(times) >= 3:
            return statistics.median(times)
