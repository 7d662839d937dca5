"""Machine speed, measured next to the operations whose times it rescales.

The benchmark runs on a few cores of a shared host whose speed changes in
steps as other tenants come and go: the same pure-Python loop takes
nearly twice as long in one spell as in the next, and a spell lasts from
seconds to minutes. A run's raw wall times follow those spells, not the code.

So the benchmark times ``reference_loop``, a fixed piece of interpreter
work that imports nothing from the package, at least every
``INTERVAL_S`` seconds between operations, and reports each operation's
wall time multiplied by ``REFERENCE_S`` over the loop's mean time just
before and just after it: the time the operation would take on a host
where the loop takes ``REFERENCE_S``. A change to the package moves the
operations' times and not the loop's, so it shows in full.

The loop is pure Python, like most of the package today. Code that runs
mostly in a BLAS slows down less in a slow spell than the loop does, so
its rescaled times are the less steady ones.
"""

import math
from time import perf_counter

# The loop's time on the benchmark's 2-vCPU sandbox in a fast spell.
REFERENCE_S = 0.9e-3
# Longest stretch of operations between two measurements.
INTERVAL_S = 0.1
REPEATS = 3


def reference_loop():
    """Fixed interpreter work: float maths, calls, list and dict traffic."""
    total = 0.0
    values = []
    for i in range(1, 5000):
        total += math.sin(i * 1e-3) / i
        values.append(total * 0.5)
        if i % 7 == 0:
            values.pop()
    table = {k: k * 2.0 for k in range(400)}
    return total + sum(table.values()) + len(values)


def measure():
    """Seconds one reference loop takes now: the best of REPEATS runs."""
    best = math.inf
    for _ in range(REPEATS):
        start = perf_counter()
        reference_loop()
        best = min(best, perf_counter() - start)
    return best


def factor(before, after):
    """Multiplier that rescales a wall time measured between two loop times."""
    return REFERENCE_S / (0.5 * (before + after))
