"""Host-speed calibration: report op times in reference-host seconds.

The benchmark shares a small machine with other tenants, and their load
changes the speed of every process on it -- compute, memory and the
interpreter alike -- by 10-25 % over minutes.  Medians of raw wall
times therefore drift between two sets of runs of identical code.

A fixed calibration kernel, independent of the program under test,
runs right before every timed op (before every time slice on
``serve``).  Each op's wall time is multiplied by
``NOMINAL_S / kernel_time``: a host running at half speed doubles both,
and the product stays put.  The reported times are thus what the op
would take on a host where the kernel takes :data:`NOMINAL_S`; the raw
wall-clock medians are kept in the run report next to them.
"""

from __future__ import annotations

import time

import numpy as np

#: Kernel time on a quiet 2-core x86-64 host (OpenBLAS, one thread).
NOMINAL_S = 0.025


class Calibrator:
    """The fixed kernel: a small matmul, a random-access scatter, a
    streaming pass and an interpreter loop, about 25 ms in all."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._matrix = rng.random((256, 256))
        self._index = rng.integers(0, 1 << 21, size=1 << 21)
        self._values = rng.random(1 << 21)
        self.samples: list[float] = []

    def kernel_seconds(self) -> float:
        start = time.perf_counter()
        for _ in range(4):
            self._matrix @ self._matrix
        np.bincount(self._index, weights=self._values, minlength=1 << 21)
        float((self._values * 1.0001).sum())
        total = 0
        for i in range(20_000):
            total += i * i
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def factor(self) -> float:
        """Multiplier turning the next op's wall time into reference time."""
        return NOMINAL_S / self.kernel_seconds()
