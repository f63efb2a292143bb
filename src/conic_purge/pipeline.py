"""End-to-end detection runs: stage composition, records, sweep configs."""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConicPurgeError, typed_number
from .geometry import (ConicCoeffs, QuadricCoeffs, ellipse_from_conic,
                       ellipsoid_from_quadric, nonoverlap_ratio)
from .modelfit import (FitResult, RefineConfig, fit_ellipse_direct,
                       fit_ellipsoid_direct, refine, vanilla_ransac)
from .proximity import DetectionLabels, EligibilityConfig, proximity_stage
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


def detect_points(points: np.ndarray, stage: str = "both",
                  eligibility: EligibilityConfig | None = None,
                  refine_cfg: RefineConfig | None = None,
                  seed: int = 0,
                  init_labels: DetectionLabels | None = None,
                  ransac_k: int | None = None,
                  report: list[tuple] | None = None) -> DetectionOutcome:
    """Run the requested stage(s) on raw points.

    stage "proximity" stops after the graph stage (the reported model is a
    direct fit of its inliers); "model" refines from ``init_labels`` (all
    points when omitted); "both" chains the two.  ``ransac_k`` switches to
    the consensus-sampling baseline instead.  ``report`` is the proximity
    stage's ``eigenvector_flag_report`` when the caller already has it.
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
    if stage in ("proximity", "both"):
        start = time.perf_counter()
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
    fit = refine(pts, initial, refine_cfg)
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

