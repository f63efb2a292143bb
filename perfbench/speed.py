"""A fixed calibration kernel that tracks the machine's current speed.

On the 2-core VM the benchmark was built on, the effective CPU speed drifts
by tens of percent over tens of seconds: the same five datasets took
1.3-1.9 s in consecutive chunks, with wall and CPU time moving together,
so no run length averages the drift out.  The benchmark therefore runs this
kernel right before and right after every dataset and rescales the
dataset's time by NOMINAL_S / (mean kernel time): a time then reads as it
would on this machine at its nominal speed.  The kernel mixes what the
workloads spend their time on (a LAPACK eigensolve, small NumPy array
operations, interpreted Python) and is benchmark code, so no change to
the program can change it.
"""

from __future__ import annotations

import time

import numpy as np

# median kernel time on the machine the bounds were set on (2-core x86-64
# VM, OpenBLAS 0.3.31 SkylakeX kernels, one thread)
NOMINAL_S = 0.020


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(20091025)
        sym = rng.normal(size=(120, 120))
        self._sym = sym + sym.T
        self._points = rng.normal(size=(400, 2))

    def seconds(self) -> float:
        """Wall time of one run of the kernel."""
        start = time.perf_counter()
        for _ in range(4):
            np.linalg.eigh(self._sym)
        for i in range(50):
            x = self._points[i:i + 50]
            diff = x[:, None, :] - x[None, :, :]
            np.median(np.sqrt((diff * diff).sum(axis=-1)))
            np.quantile(x[:, 0], [0.25, 0.5, 0.75])
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        return time.perf_counter() - start

    def factor(self, before: float, after: float) -> float:
        """Rescaling of a time measured between two kernel runs."""
        return NOMINAL_S / (0.5 * (before + after))
