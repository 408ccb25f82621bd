"""Host-speed calibration for the timed metrics.

On a shared host the core's speed drifts: the same round takes up to twice
as long in a slow phase of a few seconds, and the medians of whole runs move
by a third over an hour, while CPU time moves with wall time (the core is
slowed, not taken away).  The benchmark therefore runs a fixed kernel right
before and right after every timed stretch and rescales the stretch's time to
the speed at which the kernel takes REFERENCE_S seconds:

    scaled = measured * REFERENCE_S / mean(kernel before, kernel after)

The process is pinned to one CPU, since each vCPU's speed drifts on its
own.  The kernel uses numpy only, never the program, so a change to the
program moves the scaled time exactly as it moves the measured one.  Its two
parts are elementwise complex arithmetic with gathers on a state of 8192
entries, like a generator apply, and plain interpreted Python, like import,
parsing and the CLI's own code.  Of the mixes tried on a shared 2-vCPU VM
(these two, a dense complex matrix product in and out of cache, and every
combination), this one tracked the host's speed best on `ladder` and
`configs`, and within the noise of the best on `sweep`.
"""

from __future__ import annotations

import time

import numpy as np

# one pass of the kernel on a 2-vCPU Intel Xeon VM at 2.0 GHz, BLAS on one
# thread, in a fast phase of the host; a fixed constant, never re-measured
REFERENCE_S = 0.020
STATE = 8192
ELEMENTWISE_PASSES = 180
PYTHON_ITEMS = 45000


class Calibration:
    """The fixed kernel and its inputs, built once per process."""

    def __init__(self):
        rng = np.random.default_rng(20260101)
        self.a = rng.standard_normal(STATE) + 1j * rng.standard_normal(STATE)
        self.b = rng.standard_normal(STATE) + 1j * rng.standard_normal(STATE)
        self.gather = rng.permutation(STATE)
        self.words = [f"k{i % 997}" for i in range(PYTHON_ITEMS)]
        self.kernel()

    def kernel(self) -> float:
        x = self.a.copy()
        for _ in range(ELEMENTWISE_PASSES):
            x = x * self.b + x[self.gather]
            x /= np.abs(x).max() + 1.0
        counts: dict = {}
        for word in self.words:
            counts[word] = counts.get(word, 0) + len(word)
        return float(abs(x[0])) + len(counts)

    def seconds(self) -> float:
        """Wall time of one pass of the kernel."""
        t0 = time.perf_counter()
        self.kernel()
        return time.perf_counter() - t0

    @staticmethod
    def scale(before: float, after: float) -> float:
        """Factor that turns seconds measured between two kernel passes
        into seconds at the reference speed."""
        return 2.0 * REFERENCE_S / (before + after)
