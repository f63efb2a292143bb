"""Stage 2: direct least-squares fitting plus model-consistency refinement.

The refinement starts from the proximity stage's inlier set, fits an
algebraic model, reclassifies every point by its gradient-normalized
residual against a robust threshold, refits, and repeats to a fixpoint.
A consensus-sampling baseline and the classic success-probability formula
round out the module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, NoValidModel, NotAnEllipse,
                     NotAnEllipsoid, TooFewPoints)
from .geometry import (ConicCoeffs, QuadricCoeffs, _coeffs_from_matrix,
                       _interior, _is_ellipse, _matrix_from_coeffs,
                       _normalize_coeff_rows, signed_residuals)
from .proximity import DetectionLabels

__all__ = [
    "RefineConfig",
    "FitResult",
    "fit_ellipse_direct",
    "fit_ellipsoid_direct",
    "refine",
    "vanilla_ransac",
    "ransac_success_prob",
    "MIN_POINTS_ELLIPSE",
    "MIN_POINTS_ELLIPSOID",
]

MIN_POINTS_ELLIPSE = 5
MIN_POINTS_ELLIPSOID = 9

MAD_TO_SIGMA = 1.4826  # consistency factor for Gaussian residuals
_TAU_FLOOR = 1e-12
_CYCLE_WINDOW = 16


@dataclass(frozen=True)
class RefineConfig:
    """Knobs for the iterative reclassification."""

    tau_scale: float = 3.0
    max_iter: int = 50
    # None: 5 for ellipses, 9 for ellipsoids; an explicit value may not be
    # smaller than that, since the minimal samples are drawn at this size
    min_points: int | None = None

    def __post_init__(self):
        if not 0.0 < self.tau_scale < math.inf:
            raise ValueError("tau_scale must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class FitResult:
    model: ConicCoeffs | QuadricCoeffs
    labels: DetectionLabels
    iterations: int
    converged: bool


def _denormalize_quadratic(coeff_mat: np.ndarray, mean: np.ndarray,
                           scale: np.ndarray) -> np.ndarray:
    """Map quadratic-form matrices of normalized points to world coordinates.

    The (S, d+1, d+1) homogeneous matrices were fitted to points shifted
    by the (S, d) means and divided by the (S,) scales.
    """
    dim = coeff_mat.shape[-1] - 1
    t = np.eye(dim + 1) / scale[:, None, None]
    t[:, dim, dim] = 1.0
    t[:, :dim, dim] = -mean / scale[:, None]
    return np.swapaxes(t, 1, 2) @ coeff_mat @ t


def _conic_batch(u: np.ndarray):
    """Ellipse-specific fits of normalized (S, n, 2) samples.

    The numerically stable split of the scatter matrix of
    (x^2, xy, y^2, x, y, 1) under the constraint 4AC - B^2 = 1.  Returns
    the normalized-frame quadratic-form matrices and a mask of the samples
    with an admissible solution.
    """
    x, y = u[..., 0], u[..., 1]
    d1 = np.stack([x * x, x * y, y * y], axis=-1)
    d2 = np.stack([x, y, np.ones_like(x)], axis=-1)
    s1 = np.swapaxes(d1, 1, 2) @ d1
    s2 = np.swapaxes(d1, 1, 2) @ d2
    s3 = np.swapaxes(d2, 1, 2) @ d2
    # a stacked solve fails as a whole on one exactly singular block; the
    # LU of slogdet flags the same blocks, which get a harmless stand-in
    ok = np.linalg.slogdet(s3)[0] != 0.0
    s3[~ok] = np.eye(3)
    t_mat = -np.linalg.solve(s3, np.swapaxes(s2, 1, 2))
    m = s1 + s2 @ t_mat
    m_reduced = np.stack([m[:, 2] / 2.0, -m[:, 1], m[:, 0] / 2.0], axis=1)
    evals, evecs = np.linalg.eig(m_reduced)
    vecs = np.real(evecs)
    cond = 4.0 * vecs[:, 0] * vecs[:, 2] - vecs[:, 1] ** 2
    admissible = ~(np.abs(evals.imag) > 1e-8 * (1.0 + np.abs(evals.real)))
    admissible &= cond > 0.0
    ok &= admissible.any(axis=1)
    # the earliest of the largest admissible eigenvectors
    best = np.argmax(np.where(admissible, cond, -np.inf), axis=1)
    a1 = vecs[np.arange(len(vecs)), :, best]
    a2 = (t_mat @ a1[..., None])[..., 0]
    return _matrix_from_coeffs(np.concatenate([a1, a2], axis=1)), ok


def _quadric_batch(u: np.ndarray):
    """Unit-norm quadric fits of normalized (S, n, 3) samples.

    The smallest right singular vector of the design matrix of
    (x^2, y^2, z^2, xy, xz, yz, x, y, z, 1); the mask keeps the samples
    whose solution is unique (rank 9).
    """
    x, y, z = u[..., 0], u[..., 1], u[..., 2]
    design = np.stack([x * x, y * y, z * z, x * y, x * z, y * z,
                       x, y, z, np.ones_like(x)], axis=-1)
    # with fewer than 10 rows the null vector is only in the full basis
    _, svals, vt = np.linalg.svd(design, full_matrices=design.shape[1] < 10)
    ok = ~((svals[:, 0] == 0.0) | (svals[:, 8] < 1e-10 * svals[:, 0]))
    return _matrix_from_coeffs(vt[:, -1]), ok


def _fit_direct_raw(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct fits of an (S, n, 2) or (S, n, 3) stack, before normalization.

    Each sample is shifted to its centroid and scaled to unit RMS
    coordinate, fitted by :func:`_conic_batch` or :func:`_quadric_batch`
    and mapped back to world coordinates, read through geometry's
    coefficient table.  Returns the (S, 6) or (S, 10) coefficient rows
    and a mask of the samples that are not all one point and pass the
    admissibility (conic) or rank (quadric) test.
    """
    conic = samples.shape[2] == 2
    if samples.shape[1] < (MIN_POINTS_ELLIPSE if conic
                           else MIN_POINTS_ELLIPSOID):
        raise TooFewPoints("a direct fit needs at least 5 (2-D) or 9 (3-D) "
                           "points per sample")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        mean = samples.mean(axis=1)
        shifted = samples - mean[:, None, :]
        scale = np.sqrt(np.mean(shifted ** 2, axis=(1, 2)))
        spread = scale != 0.0
        scale[~spread] = 1.0
        mat, ok = (_conic_batch if conic else _quadric_batch)(
            shifted / scale[:, None, None])
        w = _denormalize_quadratic(mat, mean, scale)
    return _coeffs_from_matrix(w), ok & spread


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


def _fit_one(points, dim: int) -> np.ndarray:
    """Raw coefficient row of the direct fit of one (n, dim) sample."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != dim:
        raise ValueError(f"expected an (n, {dim}) point array")
    raw, ok = _fit_direct_raw(pts[None])
    if not ok[0]:
        raise DegenerateConfiguration(
            "degenerate sample: coincident points, a singular scatter "
            "block, no admissible ellipse or a non-unique quadric")
    return raw[0]


def fit_ellipse_direct(points: np.ndarray) -> ConicCoeffs:
    """Direct least-squares ellipse fit of (n, 2) points, n >= 5.

    Minimizes the algebraic residual under the ellipse-specific constraint
    4AC - B^2 = 1 (the one-sample case of the stacked kernel); returns a
    true ellipse or raises DegenerateConfiguration.
    """
    coeffs = ConicCoeffs(_fit_one(points, 2))
    if not coeffs.is_ellipse:
        raise DegenerateConfiguration("fit degenerated to a non-ellipse")
    return coeffs


def fit_ellipsoid_direct(points: np.ndarray) -> QuadricCoeffs:
    """Least-squares unit-norm quadric fit of (n, 3) points, n >= 9.

    Raises DegenerateConfiguration when the quadric is not unique (e.g.
    coplanar points) and NotAnEllipsoid when it is another surface.
    """
    coeffs = QuadricCoeffs(_fit_one(points, 3))
    if not coeffs.is_ellipsoid:
        raise NotAnEllipsoid("best quadric is not an ellipsoid")
    return coeffs


def _dim_tools(pts: np.ndarray, min_points: int | None):
    if pts.ndim != 2 or pts.shape[1] not in (2, 3):
        raise ValueError("points must be (n, 2) or (n, 3)")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
    if pts.shape[1] == 2:
        fitter, floor = fit_ellipse_direct, MIN_POINTS_ELLIPSE
    else:
        fitter, floor = fit_ellipsoid_direct, MIN_POINTS_ELLIPSOID
    if min_points is None:
        return fitter, floor
    if min_points < floor:
        raise ValueError(f"min_points must be at least {floor} for "
                         f"{pts.shape[1]}-D points, got {min_points}")
    return fitter, min_points


def _robust_inlier_mask(signed: np.ndarray, reference: np.ndarray,
                        tau_scale: float) -> tuple[np.ndarray, float]:
    """Threshold |residual - center| at tau_scale robust standard deviations.

    Center and scale come from the reference residuals (the current
    inliers), using the median and the scaled median absolute deviation.
    """
    center = float(np.median(reference))
    scale = float(np.median(np.abs(reference - center)))
    tau = max(tau_scale * MAD_TO_SIGMA * scale, _TAU_FLOOR)
    return np.abs(signed - center) <= tau, tau


def _median_distance(pts, model, mask) -> float:
    return float(np.median(np.abs(signed_residuals(pts, model))[mask]))


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


_MULTISTART_SEED = 0x5EED
_MULTISTART_SAMPLES = 60
# residual entries per batch of vanilla_ransac trials: bounds the (block, n)
# temporaries next to the (iterations, n) distance array at any n
_BLOCK_ENTRIES = 1 << 16


def _minimal_samples(n: int, size: int, seed: int, count: int) -> np.ndarray:
    """(count, size) indices: one draw without replacement per seeded trial."""
    return np.array([
        np.random.default_rng(child).choice(n, size=size, replace=False)
        for child in np.random.SeedSequence(seed).spawn(count)])


def _model_type(pts: np.ndarray):
    return ConicCoeffs if pts.shape[1] == 2 else QuadricCoeffs


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
    model = fitter(pts[first])
    half = max(min_points, (pts.shape[0] + 1) // 2)

    # the rescue route must not depend on the starting labels, otherwise
    # re-running refine on its own output could surface new candidates
    outcomes = [_classification_loop(pts, model, first.copy(), first, fitter,
                                     min_points, cfg)]
    multi_model, multi_core = _multistart_concentrate(pts, fitter, min_points)
    if multi_core is not None:
        outcomes.append(_classification_loop(pts, multi_model,
                                             multi_core.copy(), multi_core,
                                             fitter, min_points, cfg))
    model, inliers, iterations, converged = min(
        outcomes, key=lambda out: _trimmed_objective(pts, out[0], half))
    stage = np.where(inliers == initial.inlier, initial.stage, "model")
    return FitResult(model, DetectionLabels(~inliers, stage),
                     iterations, converged)


def vanilla_ransac(points: np.ndarray, iterations: int = 1000,
                   inlier_threshold: float | None = None, rng_seed: int = 0,
                   tau_scale: float = 3.0) -> FitResult:
    """Classic consensus baseline: best of ``iterations`` minimal samples.

    Every trial fits a random minimal sample; the model with the largest
    consensus set wins (earliest trial breaking ties) and is refit on that
    set.  Consensus needs one threshold shared by all trials for counts to
    be comparable: when none is given it is tau_scale robust standard
    deviations, with the scale calibrated from the best (smallest) median
    absolute residual any trial achieved.  Each trial draws its sample
    from its own seeded child generator; the trials are then fitted and
    scored in batches of about 65k residual entries, which changes neither
    the samples nor the tie-breaks.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, None)
    n = pts.shape[0]
    if n < min_points:
        raise TooFewPoints(f"need at least {min_points} points")
    samples = _minimal_samples(n, min_points, rng_seed, iterations)
    values = np.empty((iterations, 6 if pts.shape[1] == 2 else 10))
    ok = np.empty(iterations, dtype=bool)
    distances = np.empty((iterations, n))
    medians = np.empty(iterations)
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, iterations, step):
        block = slice(start, start + step)
        values[block], ok[block] = _fit_direct_batch(pts[samples[block]])
        np.abs(signed_residuals(pts, values[block]), out=distances[block])
        medians[block] = np.median(distances[block], axis=1)
    if not ok.any():
        raise NoValidModel("every minimal sample was degenerate")
    if inlier_threshold is not None:
        tau = inlier_threshold
    else:
        # fmin skips NaN medians, as a running min() over the trials would
        best_med = float(np.fmin.reduce(medians[ok]))
        tau = max(tau_scale * MAD_TO_SIGMA * best_med, _TAU_FLOOR)
    counts = np.where(ok, np.count_nonzero(distances <= tau, axis=1), -1)
    best = int(np.argmax(counts))
    best_mask = distances[best] <= tau
    best_model = _model_type(pts)(values[best])
    if counts[best] >= min_points:
        try:
            best_model = fitter(pts[best_mask])
        except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid,
                TooFewPoints):
            pass  # keep the minimal-sample model
    labels = DetectionLabels(~best_mask, "model")
    return FitResult(best_model, labels, iterations, True)


def ransac_success_prob(w: float, n: int, k: int) -> float:
    """Probability that k minimal samples contain at least one all-inlier one.

    w is the inlier fraction, n the minimal sample size:
    1 - (1 - w^n)^k.
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("w must lie in (0, 1]")
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return 1.0 - (1.0 - w ** n) ** k
