import dataclasses
import os
import sys
import threading
import typing
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_purge import (ConicCoeffs, ConicPurgeError, ConvergenceFailure,
                         DegenerateBandwidth, DegenerateConfiguration,
                         EllipsoidParams, NotAnEllipse, NotAnEllipsoid,
                         ExperimentConfig, QuadricCoeffs, RefineConfig,
                         TooFewPoints, detect_points,
                         ellipse_from_eccentricity, make_dataset, refine,
                         run_experiment)
from conic_purge import _cores, modelfit, pipeline, proximity, spectral
from conic_purge.pipeline import (PIPELINES, DetectionOutcome, RunRecord,
                                  sweep_configs, sweep_trial_seed)
from conic_purge.proximity import proximity_stage

from conftest import (FREEZE_SCENARIOS, LARGE_SPECTRUM_SCENARIO,
                      random_rotation, rescue_mask, warm_pool)


TYPICAL = ExperimentConfig(model=ellipse_from_eccentricity(5.0, 0.95),
                           n_inliers=100, n_outliers=30, sigma0=0.05,
                           sigma1=2.0, seed=17)


@st.composite
def scenarios(draw):
    dim = draw(st.sampled_from([2, 3]))
    n_inliers = draw(st.integers(12, 300))
    n_outliers = draw(st.integers(0, min(n_inliers, 400 - n_inliers)))
    sigma0 = draw(st.sampled_from([0.0, 0.01, 0.1]))
    sigma1 = draw(st.sampled_from([0.1, 1.0, 5.0]))
    if dim == 2:
        model = ellipse_from_eccentricity(
            draw(st.floats(1.0, 10.0)), draw(st.floats(0.0, 0.95)))
    else:
        axes = np.array(sorted(draw(st.lists(st.floats(1.0, 8.0),
                                             min_size=3, max_size=3)),
                               reverse=True))
        model = EllipsoidParams(np.zeros(3), axes, np.eye(3))
    return ExperimentConfig(model=model, n_inliers=n_inliers,
                            n_outliers=n_outliers, sigma0=sigma0,
                            sigma1=sigma1, seed=draw(st.integers(0, 2**32)))


class TestDetectPoints:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfg=scenarios())
    def test_stage_both_equals_chain(self, cfg):
        # overlapped, stage "both" hands refine the rescue the caller ran
        # beside the eigensolve; the chained stage "model" computes its own
        pts = make_dataset(cfg).points
        overlap = mock.patch.object(pipeline, "_spectrum_beside_rescue",
                                    wraps=pipeline._spectrum_beside_rescue)
        with mock.patch.object(_cores, "spare_core", lambda: True), \
                overlap as overlapped:
            both = overlapped_outcome(pts, seed=cfg.seed)
        assert overlapped.call_count == 1
        try:
            prox = proximity_labels(pts, cfg.seed)
            chained = detect_points(pts, "model", seed=cfg.seed,
                                    init_labels=prox)
        except (ConicPurgeError, ValueError) as exc:
            assert both == (type(exc), str(exc))
        else:
            assert both == (outcome_bits(prox, chained.fit),
                            outcome_bits(chained.labels, chained.fit))

    def test_unknown_stage(self):
        data = make_dataset(TYPICAL)
        with pytest.raises(ValueError):
            detect_points(data.points, "bogus")

    def test_unknown_stage_refused_before_ransac(self):
        data = make_dataset(TYPICAL)
        with pytest.raises(ValueError, match="unknown stage 'bogus'"):
            detect_points(data.points, "bogus", ransac_k=10)

    def test_ransac_branch(self):
        data = make_dataset(TYPICAL)
        out = detect_points(data.points, seed=1, ransac_k=100)
        assert out.proximity_labels is None
        assert out.fit.iterations == 100

    @pytest.mark.parametrize("stage", ["proximity", "model", "both"])
    def test_ransac_k_overrides_every_stage(self, stage):
        data = make_dataset(TYPICAL)
        out = detect_points(data.points, stage, seed=1, ransac_k=100)
        fit = modelfit.vanilla_ransac(data.points, iterations=100, rng_seed=1)
        assert out.proximity_labels is None
        assert out.labels.outlier.tobytes() == fit.labels.outlier.tobytes()
        assert out.model.values.tobytes() == fit.model.values.tobytes()


def quiet(fn, *args, **kwargs):
    """``fn``'s value with the proximity stage's decision warnings muted."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "flag budget|no eligible",
                                RuntimeWarning)
        return fn(*args, **kwargs)


def proximity_labels(pts, seed):
    """The labels of stage "proximity".  Its direct fit of the inliers,
    which stage "both" does not make, is the only step that raises a fit
    error; the labels are then read from the stage itself."""
    try:
        return quiet(detect_points, pts, "proximity", seed=seed).labels
    except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid):
        return quiet(proximity_stage, pts, None, seed)


def outcome_bits(labels, fit):
    return (labels.outlier.tobytes(), tuple(labels.stage),
            fit.model.values.tobytes(), fit.iterations, fit.converged)


def serial_outcome(pts, eligibility=None, refine_cfg=None, seed=0):
    """The two stages one after the other, or the type and message of what
    they raised."""
    try:
        prox = quiet(proximity_stage, pts, eligibility, seed)
        fit = refine(pts, prox, refine_cfg)
    except (ConicPurgeError, ValueError) as exc:
        return type(exc), str(exc)
    return outcome_bits(prox, fit), outcome_bits(fit.labels, fit)


def overlapped_outcome(pts, eligibility=None, refine_cfg=None, seed=0):
    try:
        out = quiet(detect_points, pts, "both", eligibility, refine_cfg,
                    seed=seed)
    except (ConicPurgeError, ValueError) as exc:
        return type(exc), str(exc)
    return (outcome_bits(out.proximity_labels, out.fit),
            outcome_bits(out.labels, out.fit))


@pytest.fixture
def solved_on(monkeypatch):
    """The thread on which each ``spectrum_of_points`` call ran, with its
    ``np.geterr()``."""
    ran = []
    original = proximity.spectrum_of_points

    def recorded(*args, **kwargs):
        ran.append((threading.current_thread(), np.geterr()))
        return original(*args, **kwargs)

    monkeypatch.setattr(proximity, "spectrum_of_points", recorded)
    return ran


class TestOverlap:
    """Stage "both" solves the spectrum on a worker thread beside refine's
    rescue start; its outcome and errors are those of the two stages run
    one after the other, and its worker thread waits for the next call
    once the call returns."""

    @pytest.fixture(autouse=True)
    def spare_core(self, monkeypatch):
        # the overlap runs only where the BLAS leaves a CPU free, which
        # depends on the machine; these tests are about the overlap itself
        monkeypatch.setattr(_cores, "spare_core", lambda: True)

    @pytest.mark.parametrize("scenario", [*sorted(FREEZE_SCENARIOS), "large"])
    def test_matches_serial(self, scenario, threads, solved_on):
        cfg = FREEZE_SCENARIOS.get(scenario, LARGE_SPECTRUM_SCENARIO)
        pts = make_dataset(cfg).points
        assert overlapped_outcome(pts, cfg.eligibility, cfg.refine,
                                  cfg.seed) == \
            serial_outcome(pts, cfg.eligibility, cfg.refine, cfg.seed)
        assert len(threads) == 1
        assert solved_on[0][0] is threads[0]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(cfg=scenarios())
    def test_matches_serial_on_generated_scenarios(self, cfg):
        pts = make_dataset(cfg).points
        warm_pool()
        before = threading.active_count()
        assert overlapped_outcome(pts, seed=cfg.seed) == \
            serial_outcome(pts, seed=cfg.seed)
        assert threading.active_count() == before

    def test_concurrent_calls(self, threads):
        # more callers than cores, switching often: each call still gets
        # its own spectrum and rescue start
        cases = [FREEZE_SCENARIOS[name] for name in ("typical2d", "ransac2d")]
        data = [make_dataset(cfg).points for cfg in cases]
        expected = [serial_outcome(pts, seed=cfg.seed)
                    for pts, cfg in zip(data, cases)]
        results = {}

        def call(i):
            out = detect_points(data[i % 2], "both", seed=cases[i % 2].seed)
            results[i] = (outcome_bits(out.proximity_labels, out.fit),
                          outcome_bits(out.labels, out.fit))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "flag budget|no eligible",
                                        RuntimeWarning)
                callers = [threading.Thread(target=call, args=(i,))
                           for i in range(6)]
                for caller in callers:
                    caller.start()
                for caller in callers:
                    caller.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(caller.is_alive() for caller in callers)
        assert results == {i: expected[i % 2] for i in range(6)}
        assert len(threads) == 6  # one worker per call

    def test_spectral_error_wins(self, monkeypatch, threads, solved_on):
        def fail(lp, *, on_solved=None):
            raise ConvergenceFailure("planted")

        def rescue_fails(*args):
            raise RuntimeError("planted rescue")

        pts = make_dataset(FREEZE_SCENARIOS["typical2d"]).points
        monkeypatch.setattr(proximity, "generalized_eigs", fail)
        with pytest.raises(ConvergenceFailure, match="planted"):
            detect_points(pts, "both")
        assert solved_on[0][0] is threads[0]
        # the spectral stage comes first, so its error beats the rescue's
        monkeypatch.setattr(modelfit, "_multistart_concentrate", rescue_fails)
        with pytest.raises(ConvergenceFailure, match="planted"):
            detect_points(pts, "both")
        assert len(threads) == 2

    @pytest.mark.parametrize("planted", [None, "report", "rescue"])
    def test_check_failure_wins(self, monkeypatch, threads, planted):
        # a real residual-check failure, raised on the worker after it
        # handed the spectrum over, beats what the caller raised meanwhile,
        # and the report hook never sees the unverified spectrum
        def fails(*args, **kwargs):
            raise RuntimeError(f"planted {planted}")

        pts = make_dataset(FREEZE_SCENARIOS["typical2d"]).points
        monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 0.0)
        if planted == "report":
            monkeypatch.setattr(proximity, "eigenvector_flag_report", fails)
        elif planted == "rescue":
            monkeypatch.setattr(modelfit, "_multistart_concentrate", fails)
        seen = []
        with pytest.raises(ConvergenceFailure, match="exceeds tolerance"):
            detect_points(pts, "both",
                          on_report=lambda *made: seen.append(made))
        assert seen == [] and len(threads) == 1
        assert overlapped_outcome(pts) == serial_outcome(pts)

    def test_report_error_beats_refine(self, monkeypatch, threads):
        def fails(*args, **kwargs):
            raise RuntimeError("planted report")

        pts = make_dataset(FREEZE_SCENARIOS["typical2d"]).points
        events = []
        monkeypatch.setattr(proximity, "eigenvector_flag_report", fails)
        monkeypatch.setattr(pipeline, "refine",
                            lambda *args, **kwargs: events.append("refine"))
        with pytest.raises(RuntimeError, match="planted report"):
            detect_points(pts, "both",
                          on_report=lambda *made: events.append(made))
        assert events == [] and len(threads) == 1

    def test_report_built_while_the_check_runs(self, monkeypatch, threads):
        # the worker's hand-off waits until the caller has built the
        # report, so the check can only end after it
        reported = threading.Event()
        waited = []
        original_eigs = proximity.generalized_eigs
        original_report = proximity.eigenvector_flag_report

        def eigs(lp, *, on_solved=None):
            def hand_off(spectrum):
                on_solved(spectrum)
                waited.append(reported.wait(timeout=30))
            return original_eigs(lp, on_solved=on_solved and hand_off)

        def report(*args):
            made = original_report(*args)
            reported.set()
            return made

        monkeypatch.setattr(proximity, "generalized_eigs", eigs)
        monkeypatch.setattr(proximity, "eigenvector_flag_report", report)
        cfg = FREEZE_SCENARIOS["typical2d"]
        pts = make_dataset(cfg).points
        assert overlapped_outcome(pts, seed=cfg.seed) == \
            serial_outcome(pts, seed=cfg.seed)
        assert waited == [True] and len(threads) == 1

    @pytest.mark.parametrize("detect_all", [False, True])
    def test_report_is_of_the_returned_spectrum(self, detect_all, threads,
                                                monkeypatch):
        returned = []
        original = proximity.spectrum_of_points

        def recorded(*args, **kwargs):
            returned.append(original(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(proximity, "spectrum_of_points", recorded)
        cfg = FREEZE_SCENARIOS["ransac2d"]
        pts = make_dataset(cfg).points
        made = []
        quiet(detect_points, pts, "both", seed=cfg.seed,
              on_report=lambda *args: made.append(args),
              detect_all=detect_all)
        (spectrum, report), = made
        assert spectrum is returned[0] and len(threads) == 1
        assert report_bits(report) == report_bits(
            proximity.eigenvector_flag_report(
                spectrum, proximity.EligibilityConfig(), cfg.seed,
                detect_all))

    def test_duplicate_points(self, monkeypatch, threads):
        # the worker fails before its hand-off; the caller does not hang
        handed = []
        original = proximity.generalized_eigs
        monkeypatch.setattr(proximity, "generalized_eigs",
                            lambda lp, **kwargs: handed.append(lp)
                            or original(lp, **kwargs))
        pts = np.repeat(np.array([[0.0, 1.0], [2.0, 0.0], [1.0, 3.0]]), 10,
                        axis=0)
        outcome = []
        caller = threading.Thread(
            target=lambda: outcome.append(overlapped_outcome(pts)),
            daemon=True)
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert outcome == [serial_outcome(pts)]
        assert outcome[0][0] is DegenerateBandwidth
        assert handed == [] and len(threads) == 1  # one worker

    def test_overflowing_distances(self, threads):
        # finite coordinates whose squared distances would overflow are
        # refused before the graph is built, without a numpy warning
        t = np.linspace(0.0, 2.0 * np.pi, 60, endpoint=False)
        pts = np.c_[3.0 * np.cos(t), np.sin(t)] * 1e200
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            overlapped = overlapped_outcome(pts)
            assert overlapped == serial_outcome(pts)
        assert overlapped[0] is DegenerateBandwidth
        assert "would overflow" in overlapped[1]

    def test_rescue_error(self, monkeypatch, threads):
        def rescue_fails(*args):
            raise RuntimeError("planted rescue")

        pts = make_dataset(FREEZE_SCENARIOS["ellipsoid3d"]).points
        monkeypatch.setattr(modelfit, "_multistart_concentrate", rescue_fails)
        with pytest.raises(RuntimeError, match="planted rescue"):
            quiet(detect_points, pts, "both")
        assert len(threads) == 1

    @pytest.mark.parametrize("n_outliers, seed, rotated", [
        (50, 1, False), (50, 2, True), (150, 3, True), (0, 4, False),
        (10, 5, True)])
    def test_matches_serial_in_3d(self, n_outliers, seed, rotated, threads,
                                  solved_on):
        base = FREEZE_SCENARIOS["ellipsoid3d"]
        model = base.model
        if rotated:
            model = EllipsoidParams(model.center + 1.0, model.semi_axes,
                                    random_rotation(np.random.default_rng(seed)))
        cfg = dataclasses.replace(base, model=model, n_outliers=n_outliers,
                                  seed=seed)
        pts = make_dataset(cfg).points
        assert overlapped_outcome(pts, seed=seed) == \
            serial_outcome(pts, seed=seed)
        assert len(threads) == 1
        assert solved_on[0][0] is threads[0]

    @staticmethod
    def _loops(monkeypatch, fail=None):
        """Record each ``_classification_loop`` call as whether refine was
        running, and set the returned event at the first; ``fail(start)``
        may raise in place of the loop."""
        calls, in_refine, entered = [], [], threading.Event()
        original_loop = modelfit._classification_loop
        original_refine = pipeline.refine

        def loop(pts, start, *args):
            calls.append(bool(in_refine))
            entered.set()
            if fail is not None:
                fail(start)
            return original_loop(pts, start, *args)

        def refine_(*args, **kwargs):
            in_refine.append(True)
            return original_refine(*args, **kwargs)

        monkeypatch.setattr(modelfit, "_classification_loop", loop)
        monkeypatch.setattr(pipeline, "refine", refine_)
        return calls, entered

    @staticmethod
    def _solve_after(monkeypatch, event):
        """The worker solves the spectrum only once ``event`` is set."""
        original = proximity.spectrum_of_points

        def waiting(*args, **kwargs):
            assert event.wait(timeout=60), "the caller ran no rescue loop"
            return original(*args, **kwargs)

        monkeypatch.setattr(proximity, "spectrum_of_points", waiting)

    def test_rescue_loop_runs_beside_the_solve(self, monkeypatch, threads):
        # the spectrum waits for the rescue's loop, so the caller must run
        # the loop itself before the hand-off; refine then runs only the
        # plain trajectory
        cfg = FREEZE_SCENARIOS["ellipsoid3d"]
        pts = make_dataset(cfg).points
        expected = serial_outcome(pts, seed=cfg.seed)
        calls, entered = self._loops(monkeypatch)
        self._solve_after(monkeypatch, entered)
        assert overlapped_outcome(pts, seed=cfg.seed) == expected
        assert calls == [False, True]

    def test_caller_runs_the_rescue_loop_after_the_hand_off(
            self, monkeypatch, threads):
        # the rescue start waits until the spectrum is solved: the caller
        # still runs the loop, and refine then runs only the plain one
        cfg = FREEZE_SCENARIOS["ellipsoid3d"]
        pts = make_dataset(cfg).points
        expected = serial_outcome(pts, seed=cfg.seed)
        solved = threading.Event()
        original_solve = proximity.spectrum_of_points
        original_start = pipeline.rescue_start

        def solve(*args, **kwargs):
            try:
                return original_solve(*args, **kwargs)
            finally:
                solved.set()

        def start_late(*args):
            assert solved.wait(timeout=60)
            return original_start(*args)

        monkeypatch.setattr(proximity, "spectrum_of_points", solve)
        monkeypatch.setattr(pipeline, "rescue_start", start_late)
        calls, _ = self._loops(monkeypatch)
        assert overlapped_outcome(pts, seed=cfg.seed) == expected
        assert calls == [False, True]

    @pytest.mark.parametrize("error", [DegenerateConfiguration,
                                       NotAnEllipsoid, RuntimeError])
    def test_rescue_loop_errors(self, monkeypatch, threads, error):
        # the rescue's loop fails on the caller: a fit error is a rescue
        # without an outcome, and anything else is raised by refine after
        # the plain trajectory, as serially
        cfg = FREEZE_SCENARIOS["ellipsoid3d"]
        pts = make_dataset(cfg).points
        mask = rescue_mask(pts)

        def fail(start):
            if np.array_equal(start, mask):
                raise error("planted loop")

        calls, entered = self._loops(monkeypatch, fail)
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="planted loop"):
                serial_outcome(pts, seed=cfg.seed)
        else:
            expected = serial_outcome(pts, seed=cfg.seed)
        calls.clear()
        entered.clear()
        self._solve_after(monkeypatch, entered)
        if error is RuntimeError:
            with pytest.raises(RuntimeError, match="planted loop"):
                quiet(detect_points, pts, "both", seed=cfg.seed)
            assert calls == [False, True, True]
        else:
            assert overlapped_outcome(pts, seed=cfg.seed) == expected
            assert calls == [False, True]

    @pytest.mark.parametrize("points, refine_cfg", [
        (np.ones((11, 2)), None),
        (np.where(np.arange(40)[:, None] == 7, np.nan, 1.0)
         * np.ones((40, 2)), None),
        (np.ones(40), None),
        (make_dataset(FREEZE_SCENARIOS["typical2d"]).points[:, :1], None),
        (np.hstack([make_dataset(FREEZE_SCENARIOS["ellipsoid3d"]).points,
                    np.ones((350, 1))]), None),
        (make_dataset(FREEZE_SCENARIOS["typical2d"]).points,
         RefineConfig(min_points=4)),
    ], ids=["K=11", "non-finite", "1-D", "1-column", "4-columns",
            "min_points"])
    def test_refused_input_starts_no_thread(self, points, refine_cfg,
                                            threads):
        serial = serial_outcome(points, refine_cfg=refine_cfg)
        assert overlapped_outcome(points, refine_cfg=refine_cfg) == serial
        assert serial[0] in (TooFewPoints, ValueError)
        assert threads == []

    def test_errstate_reaches_the_worker(self, threads, solved_on):
        pts = make_dataset(FREEZE_SCENARIOS["typical2d"]).points
        with np.errstate(over="ignore", divide="raise"):
            detect_points(pts, "both")
        (thread, state), = solved_on
        assert thread is threads[0]
        assert (state["over"], state["divide"]) == ("ignore", "raise")
        # the heat kernel underflows: raised on the worker, as serially
        with np.errstate(under="raise"):
            with pytest.raises(FloatingPointError, match="underflow"):
                proximity_stage(pts)
            with pytest.raises(FloatingPointError, match="underflow"):
                detect_points(pts, "both")
        assert solved_on[-1][0] is threads[-1]

    @pytest.mark.parametrize("stage", ["proximity", "model"])
    def test_other_stages_run_serially(self, stage, threads):
        pts = make_dataset(FREEZE_SCENARIOS["typical2d"]).points
        quiet(detect_points, pts, stage)
        assert threads == []

    def test_no_spare_core_runs_serially(self, monkeypatch, threads):
        monkeypatch.setattr(_cores, "spare_core", lambda: False)
        cfg = FREEZE_SCENARIOS["ellipsoid3d"]
        pts = make_dataset(cfg).points
        assert overlapped_outcome(pts, seed=cfg.seed) == \
            serial_outcome(pts, seed=cfg.seed)
        assert threads == []

    @pytest.mark.parametrize("spare", [True, False])
    @pytest.mark.parametrize("detect_all", [False, True])
    def test_report_hook_sees_the_stage_report(self, monkeypatch, spare,
                                               detect_all, threads,
                                               solved_on):
        # the hook gets the one spectrum and report the stage uses, before
        # refine runs, with the core spare (spectrum on the worker) or not
        monkeypatch.setattr(_cores, "spare_core", lambda: spare)
        cfg = FREEZE_SCENARIOS["typical2d"]
        pts = make_dataset(cfg).points
        events = []
        original_refine = pipeline.refine
        monkeypatch.setattr(pipeline, "refine", lambda *args, **kwargs:
                            events.append("refine")
                            or original_refine(*args, **kwargs))
        out = quiet(detect_points, pts, "both", seed=cfg.seed,
                    on_report=lambda spectrum, report: events.append(
                        (spectrum, report)),
                    detect_all=detect_all)
        assert len(solved_on) == 1
        assert len(threads) == int(spare)
        assert solved_on[0][0] is (threads[0] if spare
                                   else threading.current_thread())
        assert (outcome_bits(out.proximity_labels, out.fit),
                outcome_bits(out.labels, out.fit)) == \
            serial_outcome(pts, seed=cfg.seed)
        (spectrum, report), called = events
        assert called == "refine"
        expected = proximity.spectrum_of_points(pts)
        assert spectrum.eigenvalues.tobytes() == \
            expected.eigenvalues.tobytes()
        assert spectrum.eigenvectors.tobytes() == \
            expected.eigenvectors.tobytes()
        assert report_bits(report) == report_bits(
            proximity.eigenvector_flag_report(
                expected, proximity.EligibilityConfig(), cfg.seed,
                detect_all))

    def test_report_hook_on_stage_proximity(self, threads):
        cfg = FREEZE_SCENARIOS["ransac2d"]
        pts = make_dataset(cfg).points
        seen = []
        out = quiet(detect_points, pts, "proximity", seed=cfg.seed,
                    on_report=lambda *made: seen.append(made))
        plain = quiet(detect_points, pts, "proximity", seed=cfg.seed)
        assert out.labels.outlier.tobytes() == plain.labels.outlier.tobytes()
        assert out.model.values.tobytes() == plain.model.values.tobytes()
        assert len(seen) == 1 and threads == []

    @pytest.mark.parametrize("stage", ["model", "both"])
    def test_report_hook_not_called_without_a_spectrum(self, stage):
        # stage "model" makes no spectrum, and K=11 fails the stage's
        # point check before one is solved
        seen = []
        hook = lambda *made: seen.append(made)  # noqa: E731
        if stage == "model":
            pts = make_dataset(FREEZE_SCENARIOS["typical2d"]).points
            detect_points(pts, stage, on_report=hook)
        else:
            with pytest.raises(TooFewPoints):
                detect_points(np.ones((11, 2)), stage, on_report=hook)
        assert seen == []


def report_bits(report):
    return [(idx, lam, hf, trusted, None if flags is None else flags.tobytes())
            for idx, lam, hf, trusted, flags in report]


class TestSpareCore:
    """The overlap needs a usable CPU that numpy's OpenBLAS leaves free."""

    @pytest.mark.parametrize("blas, cpus, spare", [
        (1, {0, 1}, True), (1, {0}, False), (2, {0, 1}, False),
        (2, {0, 1, 2}, True), (None, {0, 1}, False)])
    def test_blas_threads_against_cpus(self, monkeypatch, blas, cpus, spare):
        monkeypatch.setattr(_cores, "openblas_threads",
                            lambda: None if blas is None else lambda: blas)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus,
                            raising=False)
        assert _cores.spare_core() is spare

    def test_reads_the_running_blas(self):
        getter = _cores.openblas_threads()
        if getter is None:
            pytest.skip("numpy bundles no OpenBLAS here")
        assert getter() >= 1


@pytest.mark.parametrize("record", [DetectionOutcome, RunRecord])
def test_record_annotations_resolve(record):
    hints = typing.get_type_hints(record)
    assert set(hints) == {f.name for f in dataclasses.fields(record)}
    if record is DetectionOutcome:
        assert hints["model"] == ConicCoeffs | QuadricCoeffs


class TestRunExperiment:
    def test_record_reproducible(self):
        a = run_experiment(TYPICAL)
        b = run_experiment(TYPICAL)
        assert a.nonoverlap == b.nonoverlap
        assert a.precision == b.precision
        assert np.array_equal(a.final_labels.outlier, b.final_labels.outlier)
        assert a.model_json == b.model_json

    def test_overflowing_scale_records_a_failure(self):
        # the proximity stage refuses coordinates whose squared distances
        # overflow with a library error, which the record keeps as an
        # infinite fitting error
        cfg = ExperimentConfig(model=ellipse_from_eccentricity(1e200, 0.5),
                               n_inliers=50, n_outliers=10, sigma0=1e197,
                               sigma1=1e199, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            record = run_experiment(cfg)
        assert record.nonoverlap == float("inf")
        assert record.proximity_labels is None

    @pytest.mark.parametrize("seed", [103, 1, 2, 3])
    def test_ellipsoid_records_with_and_without_a_spare_core(
            self, monkeypatch, seed):
        # the overlapped stages and the drawn-ahead scoring give the
        # records of the serial ones, which perfbench does not measure
        cfg = dataclasses.replace(FREEZE_SCENARIOS["ellipsoid3d"], seed=seed)
        records = []
        for spare in (True, False):
            monkeypatch.setattr(_cores, "spare_core", lambda: spare)
            warm_pool()
            before = threading.active_count()
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "flag budget|no eligible",
                                        RuntimeWarning)
                records.append(run_experiment(cfg))
            assert threading.active_count() == before
        overlapped, serial = [
            (rec.final_labels.outlier.tobytes(), tuple(rec.final_labels.stage),
             rec.proximity_labels.outlier.tobytes(), rec.model_json,
             rec.nonoverlap, rec.precision, rec.recall, rec.f1)
            for rec in records]
        assert overlapped == serial
        assert np.isfinite(overlapped[4])

    def test_all_pipelines_run(self):
        for pipeline in PIPELINES:
            rec = run_experiment(TYPICAL, pipeline, ransac_k=80)
            assert rec.pipeline == pipeline
            assert np.isfinite(rec.nonoverlap)

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            run_experiment(TYPICAL, "bogus")


class TestSweepCells:
    def test_seed_derivation_stable(self):
        assert sweep_trial_seed(1, 2, 3) == sweep_trial_seed(1, 2, 3)
        assert sweep_trial_seed(1, 2, 3) != sweep_trial_seed(1, 2, 4)
        assert sweep_trial_seed(1, 2, 3) != sweep_trial_seed(1, 3, 3)

    def test_cell_rows(self):
        # one (grid value, trial) cell of a sweep, as the sweep loop runs it
        (cfg,) = sweep_configs(TYPICAL, "n_outliers", [20])
        cfg = dataclasses.replace(cfg, seed=sweep_trial_seed(9, 0, 0))
        runs = [run_experiment(cfg, pipeline, 100)
                for pipeline in ("two_stage", "no_elimination")]
        assert len(runs) == 2
        for run in runs:
            assert float(run.config.n_outliers) == 20.0
            assert run.pipeline in PIPELINES
            assert run.nonoverlap >= 0.0
            assert 0.0 <= run.precision <= 1.0 and 0.0 <= run.recall <= 1.0

    def test_bad_vary_field(self):
        with pytest.raises(ValueError):
            sweep_configs(TYPICAL, "seed", [1])
