import contextvars
import threading
import time

import numpy as np
import pytest

from conic_purge import _cores

# a context variable the worker must see with the caller's value
_LABEL = contextvars.ContextVar("label", default="unset")


@pytest.fixture
def started(monkeypatch):
    """The threads started while the test runs; on exit none is left."""
    threads = []

    class Recorded(threading.Thread):
        def start(self):
            threads.append(self)
            super().start()

    before = threading.active_count()
    monkeypatch.setattr(threading, "Thread", Recorded)
    yield threads
    assert threading.active_count() == before
    assert not any(t.is_alive() for t in threads)


class TestWorker:
    """The one worker helper of the overlaps: one thread per ``with``, run
    in a copy of the caller's context, joined on every exit, its error
    raised in place of the body's."""

    def test_result_and_one_thread(self, started):
        with _cores.Worker(lambda: threading.current_thread()) as worker:
            here = threading.current_thread()
        assert started == [worker.result] and worker.result is not here

    def test_worker_error_wins_over_the_callers(self, started):
        def fails():
            raise KeyError("worker")

        with pytest.raises(KeyError, match="worker") as caught:
            with _cores.Worker(fails):
                raise ValueError("caller")
        # the caller's error stays reachable as the context
        assert isinstance(caught.value.__context__, ValueError)
        assert len(started) == 1

    def test_worker_error_raised_when_the_body_succeeds(self, started):
        def fails():
            raise RuntimeError("worker")

        body_ran = []
        with pytest.raises(RuntimeError, match="worker"):
            with _cores.Worker(fails):
                body_ran.append(True)
        assert body_ran == [True] and len(started) == 1

    def test_caller_error_joins_the_worker(self, started):
        # the worker outlasts the body's error; it is joined before the
        # error leaves the with, so its result has landed by then
        def slow():
            time.sleep(0.05)
            return "done"

        with pytest.raises(ValueError, match="caller"):
            with _cores.Worker(slow) as worker:
                raise ValueError("caller")
        assert worker.result == "done"
        assert not started[0].is_alive()

    @pytest.mark.parametrize("body_fails", [False, True])
    def test_stop_wakes_a_waiting_worker_on_every_exit(self, started,
                                                       body_fails):
        # the worker waits for the body until stop() tells it to end
        wake, calls = threading.Event(), []

        def stop():
            calls.append(started[0].is_alive())
            wake.set()

        def waits():
            assert wake.wait(timeout=30)
            return "woken"

        try:
            with _cores.Worker(waits, stop=stop) as worker:
                if body_fails:
                    raise ValueError("caller")
        except ValueError:
            assert body_fails
        # stop() ran once, before the join, while the worker still waited
        assert calls == [True] and worker.result == "woken"

    def test_worker_sees_the_callers_errstate_and_context(self, started):
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

    def test_worker_context_is_a_copy(self, started):
        # what the worker sets stays in its copy of the context
        with _cores.Worker(lambda: _LABEL.set("worker")):
            pass
        assert _LABEL.get() == "unset"
