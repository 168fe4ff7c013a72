"""Machine-speed calibration for the timed metrics.

The machine the benchmark runs on is shared.  Its speed for identical
work drifts by up to ~40% over seconds to minutes (measured with a
fixed kernel here), which is more than the bounds the benchmark gates
on.  So every operation is bracketed by a fixed kernel that never
touches the program: interpreted Python arithmetic plus small float32
matrix products, the two kinds of work the workloads do.  A time the
benchmark reports is the measured wall time scaled to the speed at
which that kernel takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / kernel time around the measurement

A change to the program moves the measured time and leaves the kernel
alone, so it shows in full; a slower machine moves both and cancels.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.06
_PY_ITERATIONS = 600_000
_MATMULS = 600
_SIDE = 96


def kernel_s() -> float:
    """Wall time of one run of the calibration kernel."""
    a = np.linspace(-1.0, 1.0, _SIDE * _SIDE, dtype=np.float32).reshape(_SIDE, _SIDE)
    out = np.empty_like(a)
    start = time.perf_counter()
    total = 0
    for i in range(_PY_ITERATIONS):
        total += (i * i) % 7
    for _ in range(_MATMULS):
        np.dot(a, a, out=out)
    return time.perf_counter() - start


def scale(before_s: float, after_s: float) -> float:
    """Factor taking times measured between two kernel runs to reference speed."""
    return REFERENCE_S / ((before_s + after_s) / 2.0)
