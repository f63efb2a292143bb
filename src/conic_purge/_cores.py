"""The worker threads of every overlap in the library (the spectrum beside
the rescue in ``pipeline``, with the graph and check in row halves from
``spectral``, and the Monte Carlo draw ahead of its count in
``geometry``): :class:`Worker` runs an overlap's work on a thread of one
small process-wide pool, and :func:`spare_core`, whether that thread has
a CPU of its own, is the one gate.  Callers read the gate at call time,
so replacing it here reaches them all.

The pool keeps the threads that have run a job and wait for the next:
an overlap takes one of them, or starts a thread when none waits, so
calls reuse a bounded set of daemon threads, never more than the most
overlaps that ran at once.  A thread started per overlap cost a warm
ellipsoid3d dataset ~1200-1400 minor page faults, all on the worker,
where a reused one mostly costs none (getrusage, 2-CPU x86-64 VM)."""

from __future__ import annotations

import contextvars
import functools
import os
import queue
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


# the pool's threads that wait for a job; list.pop and list.append are
# atomic, so the list needs no lock, which a forked child could inherit
# held
_idle: list[_PoolThread] = []


class _PoolThread:
    """A daemon thread that runs the jobs put on ``jobs``, one at a time,
    and waits on the idle list between them; None ends it.  A job returns
    the lock that tells its caller it has ended."""

    def __init__(self):
        self.jobs = queue.SimpleQueue()
        self.thread = threading.Thread(target=self._serve, daemon=True,
                                       name="conic_purge-worker")
        self.thread.start()

    def _serve(self) -> None:
        while (job := self.jobs.get()) is not None:
            done = job()
            # the job holds the caller's work, its arrays and its context:
            # none of it stays here while the thread waits
            del job
            # back on the list before the caller goes on, so that the
            # caller's next overlap finds this thread
            _idle.append(self)
            done.release()


def _empty_pool() -> list[threading.Thread]:
    """Empty the idle list and tell each of its threads to end; returns
    those threads.  A forked child runs it, since there the list names
    threads of the parent, which the child does not have."""
    ended = []
    while True:
        try:
            idle = _idle.pop()
        except IndexError:
            return ended
        idle.jobs.put(None)
        ended.append(idle.thread)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_empty_pool)


class Worker:
    """``work()`` on a worker thread while the ``with`` body runs here.

    The thread is one that waits on the pool's idle list, or a new one
    when none waits; it goes back on the list once ``work`` has ended,
    keeping no reference to it or to its context.  ``work`` runs in a
    copy of the caller's context, so ``np.errstate`` and every other
    context variable hold there too.  On every exit from the body,
    ``stop()``, when given, wakes a worker that may wait for the body, and
    then the ``with`` waits until ``work`` has ended.  An error the worker
    raised is raised then, in place of any error of the body; otherwise
    ``result`` holds what ``work`` returned.
    """

    def __init__(self, work: Callable[[], object], *,
                 stop: Callable[[], None] | None = None):
        self._work, self._stop = work, stop
        self.result = self._error = None
        self._done = threading.Lock()

    def _run(self, context: contextvars.Context) -> threading.Lock:
        try:
            self.result = context.run(self._work)
        except BaseException as exc:  # raised on the caller, at the wait
            self._error = exc
        return self._done

    def __enter__(self) -> Worker:
        self._done.acquire()
        try:
            thread = _idle.pop()
        except IndexError:
            thread = _PoolThread()
        thread.jobs.put(functools.partial(self._run,
                                          contextvars.copy_context()))
        return self

    def __exit__(self, *exc_info) -> None:
        if self._stop is not None:
            self._stop()
        self._done.acquire()
        if self._error is not None:
            raise self._error
