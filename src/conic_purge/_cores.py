"""Whether a second thread has a CPU of its own: the one gate of every
overlap in the library (the spectrum beside the rescue in ``pipeline``,
the Monte Carlo draw ahead of its count in ``geometry``).  Callers read
:func:`spare_core` at call time, so replacing it here reaches them all."""

from __future__ import annotations

import functools
import os
from pathlib import Path

import numpy as np


@functools.cache
def openblas_threads():
    """The thread-count getter of the OpenBLAS bundled with numpy's wheels,
    or None when numpy bundles none (another BLAS, or a source build)."""
    import ctypes
    libs = (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")
    for lib in sorted(libs):
        dll = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            getter = getattr(dll, name, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                return getter
    return None


def spare_core() -> bool:
    """Whether the BLAS leaves one of this process's CPUs free for a worker
    thread: numpy's OpenBLAS runs on fewer threads than there are usable
    CPUs.  On one CPU, or with OpenBLAS on as many threads as CPUs (its
    default), the worker only competes with the caller, and the overlap
    measured slower than the serial code; with a BLAS whose threads
    cannot be read the work stays serial."""
    getter = openblas_threads()
    if getter is None:
        return False
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    return getter() < cpus
