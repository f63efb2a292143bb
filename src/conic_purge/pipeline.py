"""End-to-end detection runs: stage composition, records, sweep configs."""

from __future__ import annotations

import queue
import time
from collections.abc import Callable
from dataclasses import dataclass, replace

import numpy as np

from . import _cores, proximity
from .errors import ConicPurgeError, typed_number
from .geometry import (ConicCoeffs, QuadricCoeffs, ellipse_from_conic,
                       ellipsoid_from_quadric, nonoverlap_ratio)
from .modelfit import (FitResult, RefineConfig, _dim_tools,
                       fit_ellipse_direct, fit_ellipsoid_direct, refine,
                       rescue_start, vanilla_ransac)
from .proximity import DetectionLabels, EligibilityConfig, proximity_stage
from .spectral import MAX_POINTS, RowHalves, Spectrum
from .synth import ExperimentConfig, detection_metrics, make_dataset

__all__ = [
    "DetectionOutcome",
    "RunRecord",
    "detect_points",
    "run_experiment",
    "sweep_trial_seed",
    "sweep_configs",
    "PIPELINES",
]

PIPELINES = ("two_stage", "no_elimination", "ransac")

# from this many points on, the overlapped stages also share the graph
# build and the eigenpair check between the two threads.  Below it the
# caller's rescue start and report take about as long as the worker's
# graph and solve, and moving work to the caller did not pay: split,
# detect_points ran 12% slower at K=150 and 2-8% faster at K=250-450 in
# 2-D, but 12-17% slower at K=150-250 and within 2% at K=350-500 in 3-D;
# from K=650 on it ran 7-9% faster in both, and 11% at K=500 in 2-D
# (2 CPUs, OpenBLAS on one thread, worker threads reused, medians of 24
# calls per K; BENCH_pool.json, first measured in BENCH_splithalves.json)
SPLIT_MIN_POINTS = 500

# the config fields a sweep may vary, with the cast of their grid values
_SWEEP_CASTS = {"n_inliers": int, "n_outliers": int, "sigma0": float,
                "sigma1": float}


@dataclass(frozen=True)
class DetectionOutcome:
    labels: DetectionLabels
    proximity_labels: DetectionLabels | None
    model: ConicCoeffs | QuadricCoeffs
    fit: FitResult | None
    timings_ms: dict


@dataclass(frozen=True)
class RunRecord:
    """Everything measured in one trial; recomputable from (config, seed)."""

    config: ExperimentConfig
    pipeline: str
    final_labels: DetectionLabels
    proximity_labels: DetectionLabels | None
    model_json: dict | None
    nonoverlap: float
    precision: float
    recall: float
    f1: float
    timings_ms: dict


def _direct_fit(points: np.ndarray):
    if points.shape[1] == 2:
        return fit_ellipse_direct(points)
    return fit_ellipsoid_direct(points)


def model_params_from_coeffs(model):
    """Parametric form of a fitted coefficient vector."""
    if isinstance(model, ConicCoeffs):
        return ellipse_from_conic(model)
    return ellipsoid_from_quadric(model)


def _overlaps(pts: np.ndarray, refine_cfg: RefineConfig) -> bool:
    """Whether the two stages should overlap on ``pts``: a core is spare,
    and ``pts`` pass the checks the proximity stage makes before its graph
    work and refine's checks of the points and of ``min_points``.  Other
    points take the serial path, which raises what it always did."""
    if pts.ndim != 2 or not proximity.MIN_POINTS <= pts.shape[0] <= MAX_POINTS:
        return False
    try:
        _dim_tools(pts, refine_cfg.min_points)
    except ValueError:
        return False
    return _cores.spare_core()


def _spectrum_beside_rescue(pts: np.ndarray, eligibility: EligibilityConfig,
                            refine_cfg: RefineConfig, seed: int,
                            detect_all: bool):
    """``spectrum_of_points`` on a :class:`~conic_purge._cores.Worker`
    while this thread runs refine's rescue trajectory and then
    ``eigenvector_flag_report``; returns the spectrum, the report and
    refine's keywords.

    The eigensolve releases the GIL and the rescue is Python-heavy, so
    this split, not the reverse, keeps both cores busy.  The worker hands
    the spectrum over before ``generalized_eigs`` verifies its eigenpairs,
    and the report, which only reads it, is built while the check runs.
    From ``SPLIT_MIN_POINTS`` points on, this thread also builds half of
    the graph with the worker before computing the rescue during the
    eigensolve, and takes row blocks of the check once its report is
    made (:class:`~conic_purge.spectral.RowHalves`).  The worker runs in
    a copy of the caller's context (its ``np.errstate`` included) and has
    ended before anything is returned or raised, so only a verified
    spectrum leaves this function.  Errors keep the serial order: the
    worker's (the check's ``ConvergenceFailure`` included) wins over the
    report's.  The rescue trajectory, which needs no labels, runs here to
    its end (:func:`~conic_purge.modelfit.rescue_start`), before or after
    the hand-off; a loop whose fit fails is a rescue without an outcome,
    as in refine.  A rescue that raised anything else is left to refine,
    which computes it again and raises in its own order.
    """
    # refuses points as the worker's first step would, before it starts
    halves = (RowHalves(pts, eligibility.bandwidth_rank)
              if pts.shape[0] >= SPLIT_MIN_POINTS else None)
    # the spectrum once solved, or None once the worker ends without one
    handed = queue.SimpleQueue()

    def solve():
        try:
            if halves is None:
                return proximity.spectrum_of_points(pts, eligibility,
                                                    on_solved=handed.put)
            return proximity.generalized_eigs(halves.build(1),
                                              on_solved=handed.put)
        finally:
            handed.put(None)  # a failure before the hand-off must not block

    report = None
    stop = None if halves is None else halves.release
    with _cores.Worker(solve, stop=stop) as worker:
        if halves is not None:
            halves.build(0)
        try:
            given = {"rescue": rescue_start(pts, refine_cfg)}
        except Exception:
            given = {}
        spectrum = handed.get()
        if spectrum is not None:
            try:
                report = proximity.eigenvector_flag_report(
                    spectrum, eligibility, seed, detect_all)
            finally:
                if halves is not None:
                    halves.check(spectrum)
    return worker.result, report, given


def detect_points(points: np.ndarray, stage: str = "both",
                  eligibility: EligibilityConfig | None = None,
                  refine_cfg: RefineConfig | None = None,
                  seed: int = 0,
                  init_labels: DetectionLabels | None = None,
                  ransac_k: int | None = None,
                  on_report: Callable[[Spectrum, list[tuple]], None]
                  | None = None,
                  detect_all: bool = False) -> DetectionOutcome:
    """Run the requested stage(s) on raw points.

    stage "proximity" stops after the graph stage (the reported model is a
    direct fit of its inliers); "model" refines from ``init_labels`` (all
    points when omitted); "both" chains the two.  ``ransac_k`` switches to
    the consensus-sampling baseline instead.

    ``on_report``, on stages "proximity" and "both", is called with the
    proximity stage's spectrum and its ``eigenvector_flag_report`` once
    both are made and before the stage reads its labels from them, so
    before refine runs; ``detect_all`` has the report run the detector on
    every eligible vector, not only the trusted ones.  The stage uses that
    same spectrum and report, so it solves the spectrum once.

    Stage "both" solves the spectrum on a worker thread, a reused thread
    of the helper of every overlap (:class:`~conic_purge._cores.Worker`),
    while the caller runs refine's rescue trajectory, which needs no
    labels, to its end (:func:`~conic_purge.modelfit.rescue_start`).  The
    caller then builds the report while the worker verifies the
    eigenpairs.  This happens when numpy's OpenBLAS leaves one of the
    process's CPUs free (it runs on fewer threads than there are usable
    CPUs); otherwise the stages run one after the other.  From
    ``SPLIT_MIN_POINTS`` points on, the caller first runs the graph passes
    over one row half while the worker runs them over the other, computes
    the rescue trajectory during the eigensolve, and after its report
    takes row blocks of the eigenpair check
    (:class:`~conic_purge.spectral.RowHalves`); the worker is still the
    only other thread.  Either way the outcome, the spectrum and report
    handed to ``on_report`` and any error are those of the serial stages:
    the worker's error wins over the caller's, and the worker has ended
    before ``on_report`` is called, so the hook only sees a verified
    spectrum, and before this returns or raises.  When they overlap,
    ``timings_ms["proximity_ms"]`` covers the rescue trajectory too, and
    ``"model_ms"`` the rest of refine.
    """
    pts = np.asarray(points, dtype=float)
    eligibility = eligibility or EligibilityConfig()
    refine_cfg = refine_cfg or RefineConfig()
    timings: dict = {}

    if ransac_k is not None:
        start = time.perf_counter()
        fit = vanilla_ransac(pts, iterations=ransac_k, rng_seed=seed,
                             tau_scale=refine_cfg.tau_scale)
        timings["model_ms"] = 1e3 * (time.perf_counter() - start)
        return DetectionOutcome(fit.labels, None, fit.model, fit, timings)

    prox_labels = None
    given = {}  # refine's rescue start, when computed beside the spectrum
    if stage in ("proximity", "both"):
        start = time.perf_counter()
        spectrum = report = None
        if stage == "both" and _overlaps(pts, refine_cfg):
            spectrum, report, given = _spectrum_beside_rescue(
                pts, eligibility, refine_cfg, seed, detect_all)
        elif on_report is not None and pts.shape[0] >= proximity.MIN_POINTS:
            spectrum = proximity.spectrum_of_points(pts, eligibility)
            report = proximity.eigenvector_flag_report(
                spectrum, eligibility, seed, detect_all)
        if on_report is not None and spectrum is not None:
            on_report(spectrum, report)
        prox_labels = proximity_stage(pts, eligibility, seed, report)
        timings["proximity_ms"] = 1e3 * (time.perf_counter() - start)
        if stage == "proximity":
            model = _direct_fit(pts[prox_labels.inlier])
            return DetectionOutcome(prox_labels, prox_labels, model, None,
                                    timings)
        initial = prox_labels
    elif stage == "model":
        initial = init_labels if init_labels is not None else \
            DetectionLabels(np.zeros(pts.shape[0], dtype=bool), "model")
    else:
        raise ValueError(f"unknown stage {stage!r}")

    start = time.perf_counter()
    fit = refine(pts, initial, refine_cfg, **given)
    timings["model_ms"] = 1e3 * (time.perf_counter() - start)
    return DetectionOutcome(fit.labels, prox_labels, fit.model, fit, timings)


def run_experiment(cfg: ExperimentConfig, pipeline: str = "two_stage",
                   ransac_k: int = 1000) -> RunRecord:
    """Generate the scenario for ``cfg`` and run one pipeline over it.

    The fitting error is the non-overlap ratio against the ground-truth
    model; detection quality is scored against the ground-truth labels.
    A degenerate or non-elliptic fit records an infinite error.
    """
    if pipeline not in PIPELINES:
        raise ValueError(f"unknown pipeline {pipeline!r}")
    data = make_dataset(cfg)
    pts = data.points
    k = pts.shape[0]
    timings: dict = {}
    prox_labels = None
    model_json = None
    nonoverlap = float("inf")
    labels = DetectionLabels(np.zeros(k, dtype=bool), "model")
    try:
        if pipeline == "two_stage":
            outcome = detect_points(pts, "both", cfg.eligibility, cfg.refine,
                                    seed=cfg.seed)
            labels, prox_labels = outcome.labels, outcome.proximity_labels
            model, timings = outcome.model, outcome.timings_ms
        elif pipeline == "no_elimination":
            start = time.perf_counter()
            model = _direct_fit(pts)
            timings["model_ms"] = 1e3 * (time.perf_counter() - start)
        else:
            outcome = detect_points(pts, "model", cfg.eligibility, cfg.refine,
                                    seed=cfg.seed, ransac_k=ransac_k)
            labels, timings = outcome.labels, outcome.timings_ms
            model = outcome.model
        params = model_params_from_coeffs(model)
        model_json = params.to_json_dict()
        nonoverlap = nonoverlap_ratio(params, cfg.model)
    except ConicPurgeError:
        pass  # keep inf error and whatever labels were reached
    scores = detection_metrics(labels, data.truth)
    return RunRecord(cfg, pipeline, labels, prox_labels, model_json,
                     nonoverlap, scores["precision"], scores["recall"],
                     scores["f1"], timings)


def sweep_trial_seed(master_seed: int, param_index: int,
                     trial_index: int) -> int:
    """Stable 64-bit seed of one sweep trial, from the master seed and the
    trial's grid and trial indexes."""
    seq = np.random.SeedSequence([int(master_seed), int(param_index),
                                  int(trial_index)])
    return int(seq.generate_state(1, np.uint64)[0])


def sweep_configs(base: ExperimentConfig, vary: str,
                  grid) -> list[ExperimentConfig]:
    """``base`` with its field ``vary`` set to each grid value in turn.

    Raises ValueError, naming ``vary`` or ``grid[i]``, for a field a sweep
    cannot vary, a value its field cannot take (see
    :func:`~conic_purge.errors.typed_number`) or a config it makes invalid.
    """
    cast = _SWEEP_CASTS.get(vary) if isinstance(vary, str) else None
    if cast is None:
        raise ValueError(f"vary {vary!r} is not one of "
                         f"{', '.join(_SWEEP_CASTS)}")
    configs = []
    for i, value in enumerate(grid):
        where = f"grid[{i}] {value!r}"
        try:
            typed = typed_number(cast, value, f"grid[{i}]")
        except ValueError as exc:
            raise ValueError(f"{exc} for {vary}") from None
        try:
            configs.append(replace(base, **{vary: typed}))
        except ValueError as exc:
            raise ValueError(f"{where} for {vary}: {exc}") from None
    return configs

