"""A fixed reference kernel, timed beside the workload to follow the host's speed.

On a shared host the CPU's speed drifts by tens of percent over seconds to
minutes, and CPU time drifts with it, so raw times of unchanged code differ
between runs taken at different moments.  The benchmark times this kernel
right before and right after every operation and every set-up, and reports
each time as it would read on a host where the kernel takes `NOMINAL_S`:

    reported = measured * NOMINAL_S / (kernel time measured beside it)

The kernel mixes what the workloads spend their time on: interpreted Python
arithmetic, numpy array maths and exact rational arithmetic on big
integers.  It never calls fockradial, so no change to the package moves it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from time import perf_counter

import numpy as np

# roughly the kernel's best-of-3 time on a 2-core x86-64 VM with CPython 3.11
NOMINAL_S = 5.0e-4

_X = np.linspace(0.0, 3.0, 2048)


def _kernel():
    total = 0
    for i in range(6000):
        total += i * i % 7
    total += float((np.exp(-_X * _X) * np.cos(_X)).sum())
    acc = Fraction(0)
    for k in range(32):
        acc += Fraction(math.comb(200, k), 7**k)
    return total, acc


def reference_s(repeats: int = 3) -> float:
    """Best of `repeats` timings of the kernel, in seconds."""
    best = math.inf
    for _ in range(repeats):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two kernel timings into reference seconds."""
    return NOMINAL_S / (0.5 * (before + after))
