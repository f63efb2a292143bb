"""The worker thread of every overlap in the library (the spectrum beside
the rescue in ``pipeline``, with the graph and check in row halves from
``spectral``, and the Monte Carlo draw ahead of its count in
``geometry``): :class:`Worker` starts, stops and joins it, and
:func:`spare_core`, whether it has a CPU of its own, is the one gate.
Callers read the gate at call time, so replacing it here reaches them
all."""

from __future__ import annotations

import contextvars
import functools
import os
import threading
from collections.abc import Callable
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


class Worker:
    """``work()`` on one worker thread while the ``with`` body runs here.

    The worker runs in a copy of the caller's context, so ``np.errstate``
    and every other context variable hold there too.  On every exit from
    the body, ``stop()``, when given, wakes a worker that may wait for
    the body, and then the worker is joined, so no thread outlives the
    ``with``.  An error the worker raised is raised then, in place of any
    error of the body; otherwise ``result`` holds what ``work`` returned.
    """

    def __init__(self, work: Callable[[], object], *,
                 stop: Callable[[], None] | None = None):
        self._work, self._stop = work, stop
        self.result = self._error = None

    def _run(self) -> None:
        try:
            self.result = self._work()
        except BaseException as exc:  # raised on the caller, at the join
            self._error = exc

    def __enter__(self) -> Worker:
        self._thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._run,))
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        if self._stop is not None:
            self._stop()
        self._thread.join()
        if self._error is not None:
            raise self._error
