"""Host-speed calibration for the end-to-end timings.

The benchmark's host shares its CPUs with other work, and its speed drifts
by up to 2x over minutes, in CPU time as much as in wall time.  Medians
over passes remove short bursts but not a slow spell that lasts a whole
run.  So a fixed kernel is timed next to each measured interval, and an
interval of t seconds is reported as t * REFERENCE_S / c, where c is the
kernel's time measured alongside it: seconds at the host speed where the
kernel takes REFERENCE_S.  The raw wall times are reported as well.

The kernel mixes what the package spends its time on: QUADPACK
integrating a Python callable, and plain interpreted arithmetic.  It uses
scipy and the standard library only, never the package under test, so a
change to the package cannot move it.
"""

from __future__ import annotations

import math
import statistics
import time

from scipy.integrate import quad

# Median kernel time measured on the reference host: a 2-vCPU Intel Xeon
# VM with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1.
REFERENCE_S = 0.0072


def _integrand(z: float, c: float) -> float:
    return math.exp(-z) * math.log1p(c * z)


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    t0 = time.perf_counter()
    for k in range(60):
        quad(_integrand, 0.0, 40.0, args=(1.0 + k % 8,),
             epsrel=1e-11, limit=200, points=(0.1, 1.0, 10.0))
    s = 0.0
    for i in range(20000):
        s += math.log1p(i * 1e-3)
    return time.perf_counter() - t0


def scale(seconds: float, kernel_samples) -> float:
    """seconds at reference speed, from kernel times taken alongside them."""
    return seconds * REFERENCE_S / statistics.median(kernel_samples)
