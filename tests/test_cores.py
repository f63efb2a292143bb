import contextvars
import os
import signal
import subprocess
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest

from conic_purge import _cores, detect_points, make_dataset
from conftest import FREEZE_SCENARIOS

# a context variable the worker must see with the caller's value
_LABEL = contextvars.ContextVar("label", default="unset")


def idle_threads():
    return [waiting.thread for waiting in _cores._idle]


def end_idle_threads():
    for thread in _cores._empty_pool():
        thread.join(timeout=30)
        assert not thread.is_alive()


@pytest.fixture
def empty_pool():
    """The pool empty when the test starts, and emptied again after it,
    through the handler a forked child runs; the idle threads are ended,
    not left behind."""
    end_idle_threads()
    yield
    end_idle_threads()


class TestWorker:
    """The one worker helper of the overlaps: work on a pool thread per
    ``with``, run in a copy of the caller's context, waited for on every
    exit, its error raised in place of the body's."""

    def test_result_and_one_thread(self, threads):
        with _cores.Worker(lambda: threading.current_thread()) as worker:
            here = threading.current_thread()
        assert threads == [worker.result] and worker.result is not here

    def test_worker_error_wins_over_the_callers(self, threads):
        def fails():
            raise KeyError("worker")

        with pytest.raises(KeyError, match="worker") as caught:
            with _cores.Worker(fails):
                raise ValueError("caller")
        # the caller's error stays reachable as the context
        assert isinstance(caught.value.__context__, ValueError)
        assert len(threads) == 1

    def test_worker_error_raised_when_the_body_succeeds(self, threads):
        def fails():
            raise RuntimeError("worker")

        body_ran = []
        with pytest.raises(RuntimeError, match="worker"):
            with _cores.Worker(fails):
                body_ran.append(True)
        assert body_ran == [True] and len(threads) == 1

    def test_caller_error_joins_the_worker(self, threads):
        # the worker outlasts the body's error; the with waits for it
        # before the error leaves, so its result has landed by then and
        # its thread waits for the next work
        def slow():
            time.sleep(0.05)
            return "done"

        with pytest.raises(ValueError, match="caller"):
            with _cores.Worker(slow) as worker:
                raise ValueError("caller")
        assert worker.result == "done"
        assert threads[0] in idle_threads()

    @pytest.mark.parametrize("body_fails", [False, True])
    def test_stop_wakes_a_waiting_worker_on_every_exit(self, threads,
                                                       body_fails):
        # the worker waits for the body until stop() tells it to end
        wake, calls, ended = threading.Event(), [], []

        def stop():
            calls.append(not ended)
            wake.set()

        def waits():
            assert wake.wait(timeout=30)
            ended.append(True)
            return "woken"

        try:
            with _cores.Worker(waits, stop=stop) as worker:
                if body_fails:
                    raise ValueError("caller")
        except ValueError:
            assert body_fails
        # stop() ran once, before the wait, while the worker still waited
        assert calls == [True] and worker.result == "woken"

    def test_worker_sees_the_callers_errstate_and_context(self, threads):
        def state():
            return np.geterr(), _LABEL.get()

        token = _LABEL.set("caller")
        try:
            with np.errstate(under="raise", over="ignore"):
                with _cores.Worker(state) as worker:
                    pass
        finally:
            _LABEL.reset(token)
        errors, label = worker.result
        assert (errors["under"], errors["over"], label) == \
            ("raise", "ignore", "caller")

    def test_worker_context_is_a_copy(self, threads):
        # what the worker sets stays in its copy of the context
        with _cores.Worker(lambda: _LABEL.set("worker")):
            pass
        assert _LABEL.get() == "unset"


class TestPool:
    """Workers reuse a bounded set of daemon threads: a ``with`` takes an
    idle one, or starts one when none is idle, and the thread waits again
    once the work has ended, holding nothing of it."""

    def test_consecutive_workers_share_a_thread(self, empty_pool):
        with _cores.Worker(threading.current_thread) as first:
            pass
        with _cores.Worker(threading.current_thread) as second:
            pass
        assert first.result is second.result
        assert idle_threads() == [first.result]
        assert first.result.daemon

    def test_thread_count_steady_over_overlapped_calls(self, empty_pool,
                                                       monkeypatch):
        monkeypatch.setattr(_cores, "spare_core", lambda: True)
        cfg = FREEZE_SCENARIOS["typical2d"]
        pts = make_dataset(cfg).points

        def outcome():
            out = detect_points(pts, "both", seed=cfg.seed)
            return out.labels.outlier.tobytes(), out.model.values.tobytes()

        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "flag budget|no eligible",
                                    RuntimeWarning)
            first = outcome()  # the warm-up starts the pool's one thread
            before = threading.active_count()
            for _ in range(20):
                assert outcome() == first
                assert threading.active_count() == before
        assert len(idle_threads()) == 1

    def test_failed_work_leaves_its_thread_usable(self, empty_pool):
        ran_on = []

        def fails():
            ran_on.append(threading.current_thread())
            raise KeyError("worker")

        with pytest.raises(KeyError, match="worker"):
            with _cores.Worker(fails):
                pass
        with _cores.Worker(threading.current_thread) as worker:
            pass
        assert [worker.result] == ran_on == idle_threads()

    def test_finished_work_and_context_are_released(self, empty_pool):
        # the waiting thread holds neither the work nor its context, so
        # what they alone reference is freed when the with exits
        def made():
            data = np.ones(1000)
            return weakref.ref(data), lambda: data.sum()

        held, work = made()
        with _cores.Worker(work):
            pass
        del work
        assert held() is None

        def in_context():
            data = np.ones(1000)
            _LABEL.set(data)
            with _cores.Worker(_LABEL.get):
                pass
            return weakref.ref(data)

        held = contextvars.Context().run(in_context)
        # a context variable caches the last value it saw: replace that
        contextvars.Context().run(_LABEL.set, "unset")
        assert held() is None

    def test_concurrent_workers_use_distinct_threads(self, empty_pool):
        # each work waits for the other, so both run at once
        met = threading.Barrier(2, timeout=30)

        def meet():
            met.wait()
            return threading.current_thread()

        with _cores.Worker(meet) as outer:
            with _cores.Worker(meet) as inner:
                pass
        assert outer.result is not inner.result
        assert set(idle_threads()) == {outer.result, inner.result}
        # the pool holds its two threads and starts no third
        before = threading.active_count()
        with _cores.Worker(threading.current_thread) as after:
            pass
        assert after.result in (outer.result, inner.result)
        assert threading.active_count() == before

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="no os.fork")
    def test_forked_child_runs_a_worker(self, empty_pool):
        # the child has none of the parent's threads: its pool starts empty
        with _cores.Worker(lambda: None):
            pass
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                with _cores.Worker(lambda: 42) as worker:
                    pass
                code = 0 if worker.result == 42 else 2
            finally:
                os._exit(code)
        deadline = time.monotonic() + 30
        while (ended := os.waitpid(pid, os.WNOHANG))[0] == 0:
            if time.monotonic() > deadline:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                pytest.fail("the forked child's worker never ran")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(ended[1]) == 0

    def test_interpreter_exits_with_an_idle_worker(self):
        # an overlapped call leaves a daemon thread waiting on the idle
        # list; the interpreter still exits at once
        script = "\n".join([
            "import warnings",
            "from conic_purge import (_cores, detect_points,"
            " ellipse_from_eccentricity, make_dataset, ExperimentConfig)",
            "_cores.spare_core = lambda: True",
            "cfg = ExperimentConfig(model=ellipse_from_eccentricity(5.0,"
            " 0.95), n_inliers=100, n_outliers=50, sigma0=0.01, sigma1=2.0,"
            " seed=102)",
            "warnings.filterwarnings('ignore', 'flag budget|no eligible',"
            " RuntimeWarning)",
            "detect_points(make_dataset(cfg).points, 'both', seed=cfg.seed)",
            "print(len(_cores._idle))",
        ])
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=30)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "1\n"
