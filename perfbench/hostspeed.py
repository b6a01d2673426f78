"""How fast the shared host runs right now, and times scaled to a reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed changes
by up to about 1.5x from one stretch of tens of seconds to the next, as
other tenants come and go.  So the harness runs a fixed calibration unit
(a few BLAS matrix products and an interpreter loop, the two kinds of
work the program does) just before each timed op, outside the op's own
clock.  An op's reported time is its wall time scaled by
``REFERENCE_S / unit time``: the time it would have taken had the host
run the unit in ``REFERENCE_S``.  The unit never calls qprospect, so a
change to the program cannot change what it measures.
"""

import statistics
import time

import numpy as np

#: the calibration unit's time at the reference speed: about its median
#: on a 2-vCPU Linux VM with single-threaded OpenBLAS
REFERENCE_S = 0.5e-3
#: units per calibration; their median is the calibration's reading
UNITS = 3

_MATRIX = np.random.default_rng(0).standard_normal((96, 96))


def unit_s() -> float:
    """Wall time of one calibration unit."""
    start = time.perf_counter()
    for _ in range(8):
        _MATRIX @ _MATRIX
    total = 0
    for i in range(3000):
        total += i * i
    return time.perf_counter() - start


def calibrate(units: int = UNITS) -> float:
    """Median time of ``units`` calibration units, run back to back."""
    return statistics.median(unit_s() for _ in range(units))


def scaled(wall_s: float, unit: float) -> float:
    """``wall_s`` at the reference speed, given the unit time measured beside it."""
    return wall_s * REFERENCE_S / unit
