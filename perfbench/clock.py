"""Wall times rescaled to a reference host speed.

The machines this benchmark runs on share their cores with other tenants,
and their speed for a pure-Python process drifts by up to 1.8x within a
minute.  A raw wall time then says more about the neighbours than about
spherelam.  So every timed interval is bracketed by a fixed pure-Python
calibration loop (integers, fractions, dict and tuple work, like
spherelam's own), and reported as

    wall time * CAL_REFERENCE_S / (mean of the loop's times around it)

that is, in seconds of a host on which the loop takes exactly 1 ms.  The
raw wall times are kept in the run record.  The loop must never change:
every figure is in its units.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

CAL_REFERENCE_S = 1e-3

# A workload whose operations are whole interpreters is calibrated by an
# interpreter start instead (``python -c pass``).  Reference: a host where
# that takes 50 ms.
CHILD_REFERENCE_S = 50e-3

# Name of the span a traced run gives the calibrations.
CALIBRATION_SPAN = "bench.calibration"


def _loop() -> int:
    s = 0
    f = Fraction(0)
    d = {}
    for i in range(400):
        s += i * i % 7
        f += Fraction(i % 5 + 1, i % 7 + 1)
        d[i % 50, s % 3] = i
    return s + len(d) + f.denominator


def calibration_s(reps: int = 1) -> float:
    """Seconds the calibration loop takes now (median of reps)."""
    times = []
    for _ in range(reps):
        start = perf_counter()
        _loop()
        times.append(perf_counter() - start)
    return statistics.median(times)


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds, for an interval
    between two calibrations."""
    return CAL_REFERENCE_S / ((before + after) / 2)
