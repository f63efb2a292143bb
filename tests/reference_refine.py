"""Reference model-consistency refinement for the tests.

Before the rescue's concentration steps (C-steps) became one stacked
kernel, ``modelfit`` wrote the C-step twice: two batched steps that refit
each sample on its half-set in distance order, then a one-row loop that
refit the best sample on its half-set in index order through the public
fitter; the trimmed objective was written twice as well.  The functions
below are that implementation, copied verbatim, with the classification
loop it called and the batched fit and row normaliser of the same
version, so the differential tests compare ``refine`` with the code it
replaced bit for bit.  The helpers that did not change are imported;
so are the public fitters, whose normaliser is pinned to its old version
by a test of its own.  One later change is applied to the copy: when the
plain trajectory's start fit fails, ``refine`` returns the rescue
trajectory's result instead of raising, and raises only when there is no
rescue trajectory either.
"""

import numpy as np

from conic_purge.errors import (DegenerateConfiguration, NotAnEllipse,
                                NotAnEllipsoid, TooFewPoints)
from conic_purge.geometry import _SIGN_EPS, _interior, _is_ellipse
from conic_purge.modelfit import (_CYCLE_WINDOW, _MULTISTART_SAMPLES,
                                  _MULTISTART_SEED, FitResult, RefineConfig,
                                  _dim_tools, _fit_direct_raw,
                                  _median_distance, _model_type,
                                  _robust_inlier_mask, signed_residuals)
from conic_purge.proximity import DetectionLabels

from reference_draws import _minimal_samples


def _normalize_coeff_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """:func:`_normalize_coeffs` applied to each row of an (S, m) stack.

    Returns the normalized rows and a mask of the rows that were finite
    and nonzero; the other rows come back as zeros.
    """
    norm = np.linalg.norm(values, axis=1)
    valid = np.isfinite(norm) & (norm != 0.0)
    values = np.where(valid[:, None], values, 0.0) / np.where(valid, norm,
                                                              1.0)[:, None]
    big = np.abs(values) > _SIGN_EPS
    lead = values[np.arange(values.shape[0]), np.argmax(big, axis=1)]
    flip = big.any(axis=1) & (lead < 0.0)
    return np.where(flip[:, None], -values, values), valid


def _fit_direct_batch(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct fits of an (S, n, 2) or (S, n, 3) stack of point samples.

    :func:`_fit_direct_raw`, then unit-norm/sign normalization and
    geometry's ellipse or ellipsoid test, row by row as array operations.
    Row i equals ``fit_ellipse_direct(samples[i]).values`` (or the
    ellipsoid fit) up to the rounding of the row-wise normalization, and
    the accept/reject decisions are the same.
    Returns the (S, 6) or (S, 10) unit-norm coefficients and a mask of the
    samples whose one-sample fit succeeds; the other rows are zero.
    """
    raw, ok = _fit_direct_raw(samples)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        values, valid = _normalize_coeff_rows(raw)
        ok &= valid
        ok &= (_is_ellipse(values) if samples.shape[2] == 2
               else _interior(values)[0])
    values[~ok] = 0.0
    return values, ok


def _concentrate(pts: np.ndarray, model, fitter, min_points: int):
    """Refit on the tightest half of the data until that set stabilizes.

    Standard least-trimmed-squares concentration: each refit on the
    smallest-residual half cannot be worse on that half, so the model
    walks toward the dominant structure even when the starting fit is
    inflated by heavy symmetric contamination.  Inliers are the majority
    by assumption, so the half-set at the fixpoint is essentially clean.
    """
    k = pts.shape[0]
    half = max(min_points, (k + 1) // 2)
    core = None
    for _ in range(30):
        dist = np.abs(signed_residuals(pts, model))
        tight = np.zeros(k, dtype=bool)
        tight[np.argsort(dist, kind="stable")[:half]] = True
        if core is not None and np.array_equal(tight, core):
            break
        try:
            model = fitter(pts[tight])
        except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid):
            break
        core = tight
    return model, core


def _classification_loop(pts, model, inliers, reference, fitter,
                         min_points, cfg):
    """Spec loop: classify all points against the threshold, refit, repeat.

    ``reference`` seeds the first threshold estimate; successive
    classifications are compared to each other, with ``inliers`` (the
    initial labeling) counting as the zeroth.  Cycles resolve to the
    iterate with the smallest median inlier residual.
    """
    seen = {inliers.tobytes()}
    history = [(inliers, model)]
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        signed = signed_residuals(pts, model)
        updated, _tau = _robust_inlier_mask(signed, signed[reference],
                                            cfg.tau_scale)
        if np.array_equal(updated, inliers):
            converged = True
            break
        if np.count_nonzero(updated) < min_points:
            break
        key = updated.tobytes()
        if key in seen:
            inliers, model = min(
                history, key=lambda it: _median_distance(pts, it[1], it[0]))
            break
        try:
            model_next = fitter(pts[updated])
        except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid):
            break
        inliers, model = updated, model_next
        reference = updated
        seen.add(key)
        history.append((inliers, model))
        if len(history) > _CYCLE_WINDOW:
            seen.discard(history[0][0].tobytes())
            history.pop(0)
    return model, inliers, iterations, converged


def _trimmed_objective(pts, model, half: int) -> float:
    dist = np.abs(signed_residuals(pts, model))
    return float(np.sum(np.sort(dist)[:half]))


def _multistart_concentrate(pts, fitter, min_points):
    """Best trimmed fit over seeded random minimal samples.

    Two concentration steps per sample, then full concentration from the
    best one: the classic way to reach the global trimmed optimum when
    every available starting fit is captured by structured contamination.
    Fully deterministic for a given point order.  The samples are drawn
    one per seeded child as always, but fitted, concentrated and scored as
    one batch; a sample whose concentration refit fails keeps its last
    model, and the earliest smallest trimmed objective wins.
    """
    k = pts.shape[0]
    half = max(min_points, (k + 1) // 2)
    samples = _minimal_samples(k, min_points, _MULTISTART_SEED,
                               _MULTISTART_SAMPLES)
    values, ok = _fit_direct_batch(pts[samples])
    active = ok.copy()
    for _ in range(2):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        dist = np.abs(signed_residuals(pts, values[rows]))
        tight = np.argsort(dist, axis=1, kind="stable")[:, :half]
        refit, good = _fit_direct_batch(pts[tight])
        values[rows[good]] = refit[good]
        active[rows[~good]] = False
    dist = np.sort(np.abs(signed_residuals(pts, values)), axis=1)
    objective = dist[:, :half].sum(axis=1)
    objective[~(ok & (objective < np.inf))] = np.inf
    best = int(np.argmin(objective))
    if objective[best] == np.inf:
        return None, None
    return _concentrate(pts, _model_type(pts)(values[best]), fitter,
                        min_points)


def refine(points: np.ndarray, initial: DetectionLabels,
           cfg: RefineConfig | None = None) -> FitResult:
    """Iterative model-consistency reclassification from an initial labeling.

    Fits on the initial inliers and iterates the classify/refit loop to a
    fixpoint.  A second trajectory guards against fits captured by
    structured contamination by concentrating seeded random minimal-sample
    fits on the tightest half of the data.  The result whose model has the
    smallest trimmed residual sum wins, the plain trajectory breaking
    ties, which keeps re-running refine on its own output a no-op.  The
    rescue's minimal samples are fitted and concentrated as one batch,
    with the same seeded samples and tie-breaks as one at a time; the
    returned model is always a one-sample fit, the one-row case of the
    same stacked kernel.
    """
    cfg = cfg or RefineConfig()
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, cfg.min_points)
    first = initial.inlier.copy()
    if np.count_nonzero(first) < min_points:
        raise TooFewPoints(
            f"refinement needs at least {min_points} initial inliers")
    # amended after the copy: a failed plain start fit leaves the rescue
    # trajectory to stand alone, and is raised only without one
    outcomes = []
    try:
        model = fitter(pts[first])
    except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid) as exc:
        plain_error = exc
    else:
        outcomes.append(_classification_loop(pts, model, first.copy(), first,
                                             fitter, min_points, cfg))
    half = max(min_points, (pts.shape[0] + 1) // 2)

    # the rescue route must not depend on the starting labels, otherwise
    # re-running refine on its own output could surface new candidates
    multi_model, multi_core = _multistart_concentrate(pts, fitter, min_points)
    if multi_core is not None:
        outcomes.append(_classification_loop(pts, multi_model,
                                             multi_core.copy(), multi_core,
                                             fitter, min_points, cfg))
    if not outcomes:
        raise plain_error
    model, inliers, iterations, converged = min(
        outcomes, key=lambda out: _trimmed_objective(pts, out[0], half))
    stage = np.where(inliers == initial.inlier, initial.stage, "model")
    return FitResult(model, DetectionLabels(~inliers, stage),
                     iterations, converged)
