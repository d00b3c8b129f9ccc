"""Calibration of times to a fixed host speed.

The speed of a shared host drifts: on a shared 2-vCPU Linux VM under
Python 3.11, the same op took from 206 to 337 ms in different 12-second
windows, while its ratio to a fixed pure-Python Fraction loop stayed
within a few percent.  Each op therefore comes with reference-loop times
measured next to it, in the process that ran the op (a cold child times
the loop after its op, outside its timed region), and every reported time
is scaled by REF_MS over the median reference time around it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

REF_MS = 10.0  # reference-loop time that calibrated times are scaled to


def reference_s() -> float:
    """Time of a fixed pure-Python Fraction loop: a gauge of the host's current speed."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 1500):
        acc += Fraction(1, k) * Fraction(k + 1, k + 2)
    return time.perf_counter() - t0


def reference_pair() -> tuple[float, float]:
    return reference_s(), reference_s()


def calibrate(times: list[float], refs: list[tuple[float, ...]]) -> list[float]:
    """Scale times[i] by REF_MS over the median of the reference times of items i-1..i+1."""
    out = []
    for i, t in enumerate(times):
        window = [x for pair in refs[max(0, i - 1):i + 2] for x in pair]
        out.append(t * (REF_MS / 1000.0) / statistics.median(window))
    return out
