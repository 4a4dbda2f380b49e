"""The reference loop that every timed span of the benchmark is normalised by.

The loop is fixed pure-Python work (``Fraction`` construction, products and
sums into a small dict), calls no superdeform code and keeps about fifty
small objects alive, so the program's heap does not slow it.  A span's
wall time t is reported as ``t * R0 / R``, where R is the loop's wall time
measured right before and right after the span.  The result is still in
seconds: seconds on a machine where the loop takes R0.
"""

import gc
import statistics
import time
from fractions import Fraction

REF_ITERATIONS = 3000

# Median wall time of one reference loop (Python 3.11.7, 2-core x86-64
# virtual machine, when the benchmark was written).  A constant: changing
# it rescales every time metric.
R0 = 0.0200


def _work(n):
    table = {}
    for i in range(n):
        a = Fraction(i % 7 - 3, i % 5 + 1)
        b = Fraction(i % 11 + 1, i % 3 + 2)
        key = (i % 13, i % 4)
        table[key] = table.get(key, 0) + a * b
    return table


def reference(repeat=1):
    """Median wall time of ``repeat`` reference loops, with the cyclic
    collector paused."""
    times = []
    gc.disable()
    try:
        for _ in range(repeat):
            t0 = time.perf_counter()
            _work(REF_ITERATIONS)
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def normalise(raw, r_before, r_after):
    """Scale a raw span time to the reference machine."""
    return raw * R0 / ((r_before + r_after) / 2)
