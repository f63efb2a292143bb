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

The stacked fit (``_fit_direct_raw`` with the kernels it calls) and the
threshold and cycle medians (``_robust_inlier_mask``,
``_median_distance``) are copied verbatim from the version that still
built its design matrices with ``np.stack`` and took ``np.median``, so
they keep checking ``modelfit`` after it cut their per-call work.
"""

import numpy as np

from conic_purge.errors import (DegenerateConfiguration, NotAnEllipse,
                                NotAnEllipsoid, TooFewPoints)
from conic_purge.geometry import (_SIGN_EPS, _coeffs_from_matrix, _interior,
                                  _is_ellipse, _matrix_from_coeffs)
from conic_purge.modelfit import (_CYCLE_WINDOW, _MULTISTART_SAMPLES,
                                  _MULTISTART_SEED, _TAU_FLOOR, MAD_TO_SIGMA,
                                  MIN_POINTS_ELLIPSE, MIN_POINTS_ELLIPSOID,
                                  FitResult, RefineConfig, _dim_tools,
                                  _model_type, signed_residuals)
from conic_purge.proximity import DetectionLabels

from reference_draws import _minimal_samples


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
