"""Machine-speed reference for normalising timings.

The benchmark's host runs at a speed that drifts by up to ~1.6x, both
within seconds and between minutes; CPU time drifts with wall time, so the
cause is contention outside the process, not scheduling.  A fixed kernel of
the kinds of work pfcc does (small numpy ops behind Python calls, plus an
SVD and small dense products as in the learner and the Riccati solver) is
timed in short slices between the ops of a run.  A time divided by the
speed factor around it is in reference-speed seconds: the time the work
would take on a machine where one slice takes ``REF_SLICE_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Slice time of the reference machine, in seconds.
REF_SLICE_S = 2.5e-3

#: Kernel repetitions per slice.
SLICE_REPEATS = 10


class Speedometer:
    """Times slices of a fixed kernel; slices are taken at the boundaries of
    equal-sized blocks of ops, including one after the last block."""

    def __init__(self):
        rng = np.random.default_rng(0)
        m = rng.normal(size=(4, 4))
        self._m = m @ m.T + 4.0 * np.eye(4)
        self._v = rng.normal(size=4)
        self._x = rng.normal(size=(2, 1))
        self._eye = np.eye(4)
        self._tall = rng.normal(size=(48, 24))
        self._square = rng.normal(size=(16, 16))
        self.slices: list[float] = []

    def _kernel(self) -> float:
        m, v = self._m, self._v
        r = np.kron(np.eye(2), self._x)
        g = np.linalg.solve(m + self._eye, v)
        np.allclose(m, m.T, atol=1e-12, rtol=0.0)
        np.linalg.cholesky(m)
        y = m @ v - 0.5 * (m @ g) + r.sum()
        np.linalg.svd(self._tall, full_matrices=False)
        s = self._square
        return float(np.linalg.norm(y)) + float((s @ s @ s).sum())

    def slice(self) -> None:
        t0 = time.perf_counter()
        for _ in range(SLICE_REPEATS):
            self._kernel()
        self.slices.append(time.perf_counter() - t0)

    @property
    def total_s(self) -> float:
        return sum(self.slices)

    def factor(self) -> float:
        """How much slower than the reference the machine ran over all
        slices (mean slice time over ``REF_SLICE_S``)."""
        return statistics.fmean(self.slices) / REF_SLICE_S

    def normalise(self, times: list[float], every: int) -> list[float]:
        """``times[i]`` divided by the speed factor of its block of
        ``every`` ops: the mean of the two slices that bound the block."""
        s = self.slices
        return [t * 2.0 * REF_SLICE_S / (s[i // every] + s[i // every + 1])
                for i, t in enumerate(times)]
