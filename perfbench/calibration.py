"""A fixed piece of pure-Python work that measures the machine's speed now.

The benchmark runs on machines shared with other tenants, whose load makes
the same interpreted code run up to a fifth slower for tens of seconds at a
time.  Timing this loop right before each query tracks that drift closely,
and run.py scales query times by it (see run.py).  The loop uses nothing
from the package, so no change to the package can move it.
"""
from __future__ import annotations

from time import perf_counter

_TABLE = list(range(211))


def calibrate() -> float:
    """Seconds taken by one pass of the fixed loop (about a millisecond)."""
    w = _TABLE
    n = len(w)
    acc = 0
    start = perf_counter()
    for r in range(40):
        for i in range(n):
            j = (i * 7 + r) % n
            if w[j] < w[i]:
                acc += w[j]
            else:
                acc -= 1
    return perf_counter() - start
