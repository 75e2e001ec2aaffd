"""Host-speed calibration: a fixed kernel timed next to every request.

On a shared virtual machine each vCPU switches, every second or so, between
a fast state and one up to twice as slow, as other tenants load the core it
shares; process CPU time slows with it.  The benchmark therefore pins itself
and every process it starts to one CPU (:func:`pin`), times a fixed kernel of
the same kind of work as fdcorr's (an exact ``Fraction`` elimination on a
Vandermonde system, like the moment-system oracle, and a float weighted sum
of sine samples, like ``study``) just before and just after every request,
and reports each time at nominal host speed::

    normalized = measured * NOMINAL_S / (mean kernel time around the request)

``NOMINAL_S`` is a fixed constant, about one kernel call's time in the fast
state of a 2-core Xeon virtual machine under Python 3.11, so normalized times
read in seconds on that machine when nothing else loads it.  A change to
fdcorr moves the request time and not the kernel, so it moves the normalized
time by the same factor; a change in host speed moves both and cancels.
"""

from __future__ import annotations

import math
import os
import time
from fractions import Fraction

NOMINAL_S = 0.016
REPS = 2  # kernel calls per calibration point

_SIZE = 16
_NODES = [Fraction(i - 7, 3) for i in range(_SIZE)]
_WEIGHTS = [1.0 / (i + 1) for i in range(12)]


def kernel() -> tuple[Fraction, float]:
    """Fixed work: eliminate a 16-node rational Vandermonde system, then sum
    4000 weighted sine stencils."""
    rows = [[x**j for x in _NODES] for j in range(_SIZE)]
    rhs = [Fraction(0)] * _SIZE
    rhs[2] = Fraction(2)
    for col in range(_SIZE):
        for row in range(col + 1, _SIZE):
            factor = rows[row][col] / rows[col][col]
            if factor:
                for k in range(col, _SIZE):
                    rows[row][k] -= factor * rows[col][k]
                rhs[row] -= factor * rhs[col]
    total = 0.0
    for j in range(4000):
        h = 1e-3 * 1.001**j
        total += sum(w * math.sin(100.0 * math.pi * (0.3 + (i - 6) * h)) for i, w in enumerate(_WEIGHTS)) / h
    return rhs[-1], total


def pin() -> int | None:
    """Run this process, and every process it starts, on one CPU: the one
    where the kernel is fastest now.

    The benchmark runs one request at a time, so one CPU is all it uses.  A
    vCPU of a shared host switches between a fast and a slow state as other
    tenants load its sibling; a process that migrates mixes the states of
    both within one request, and the kernel timed on one CPU then does not
    tell the speed the request ran at.  Returns the CPU, or None where
    affinity cannot be set.
    """
    try:
        allowed = sorted(os.sched_getaffinity(0))
        best = None
        for cpu in allowed * 2:
            os.sched_setaffinity(0, {cpu})
            kernel()
            start = time.perf_counter()
            kernel()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best[0]:
                best = (elapsed, cpu)
        os.sched_setaffinity(0, {best[1]})
        return best[1]
    except (AttributeError, OSError):
        return None


def measure() -> float:
    """Mean time of ``REPS`` kernel calls: one calibration point."""
    start = time.perf_counter()
    for _ in range(REPS):
        kernel()
    return (time.perf_counter() - start) / REPS


def normalize(seconds: list[float], cal: list[tuple[float, float]]) -> list[float]:
    """Each time at nominal host speed.

    ``cal[i]`` holds the calibration points taken just before and just after
    sample ``i``.  Host speed changes state every second or so, so a sample
    is scaled by its own two points only, not by points further away.
    """
    return [value * NOMINAL_S / (sum(points) / len(points)) for value, points in zip(seconds, cal)]
