"""Stage 2: direct least-squares fitting plus model-consistency refinement.

The refinement starts from the proximity stage's inlier set, fits an
algebraic model, reclassifies every point by its gradient-normalized
residual against a robust threshold, refits, and repeats to a fixpoint.
A consensus-sampling baseline and the classic success-probability formula
round out the module.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._draws import seeded_choices
from .errors import (DegenerateConfiguration, NoValidModel, NotAnEllipse,
                     NotAnEllipsoid, TooFewPoints, typed_number)
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
    "rescue_start",
    "RescueTrajectory",
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
# the fit errors that end a trajectory without an outcome
_FIT_ERRORS = (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid)


@dataclass(frozen=True)
class RefineConfig:
    """Knobs for the iterative reclassification."""

    tau_scale: float = 3.0
    max_iter: int = 50
    # None: 5 for ellipses, 9 for ellipsoids; an explicit value may not be
    # smaller than that, since the minimal samples are drawn at this size
    min_points: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "max_iter",
                           typed_number(int, self.max_iter, "max_iter"))
        if self.min_points is not None:
            object.__setattr__(self, "min_points",
                               typed_number(int, self.min_points, "min_points"))
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
    ellipsoid fit) bit for bit, and the accept/reject decisions are the
    same.
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


def _classification_loop(pts, start, fitter, min_points, cfg):
    """Spec loop: classify all points against the threshold, refit, repeat.

    Starts from the fit of the ``start`` mask, whose residuals also seed
    the first threshold estimate; successive classifications are compared
    to each other, with ``start`` counting as the zeroth.  Cycles resolve
    to the iterate with the smallest median inlier residual.
    """
    model = fitter(pts[start])
    inliers = start
    history = [(inliers, model)]
    converged = False
    iterations = 0
    for iterations in range(1, cfg.max_iter + 1):
        signed = signed_residuals(pts, model)
        updated, _tau = _robust_inlier_mask(signed, signed[inliers],
                                            cfg.tau_scale)
        if np.array_equal(updated, inliers):
            converged = True
            break
        if np.count_nonzero(updated) < min_points:
            break
        if any(np.array_equal(updated, mask) for mask, _ in history):
            inliers, model = min(
                history, key=lambda it: _median_distance(pts, it[1], it[0]))
            break
        try:
            model_next = fitter(pts[updated])
        except _FIT_ERRORS:
            break
        inliers, model = updated, model_next
        history.append((inliers, model))
        if len(history) > _CYCLE_WINDOW:
            history.pop(0)
    return model, inliers, iterations, converged


# residual entries per row block of the C-step stack: each float64
# temporary of a block stays at or below 128 KiB, glibc's default mmap
# threshold.  typical2d's 60 x 150 stack stays one block; vanilla_ransac's
# 8k blocks would split it, and rescue_start there took 9.3 ms against
# 7.9 (medians of 8 interleaved runs of 40 calls, OpenBLAS on one thread)
_STACK_BLOCK_ENTRIES = 1 << 14


def _row_blocks(rows: int, n: int) -> list[slice]:
    """Slices of consecutive rows of an (rows, n) stack, each of at most
    ``_STACK_BLOCK_ENTRIES`` entries (one row when a row holds more)."""
    step = max(1, _STACK_BLOCK_ENTRIES // n)
    return [slice(start, start + step) for start in range(0, rows, step)]


def _trimmed_objectives(pts, values, half: int) -> np.ndarray:
    """Sum of the ``half`` smallest absolute residuals of each (S, m) row,
    computed a row block at a time."""
    out = np.empty(values.shape[0])
    for block in _row_blocks(values.shape[0], pts.shape[0]):
        dist = np.sort(np.abs(signed_residuals(pts, values[block])), axis=1)
        out[block] = dist[:, :half].sum(axis=1)
    return out


def _concentrate(pts, values, half: int, steps: int):
    """Up to ``steps`` concentration steps (C-steps) of an (S, m) model stack.

    Each step refits every active row on its ``half`` smallest-residual
    points, taken in index order: least-trimmed-squares concentration
    (Rousseeuw & Van Driessen 1999), which cannot worsen a row's sum over
    its half-set.  A row stops when its half-set repeats, since the refit
    would give the same bits, and when the batch fit rejects its refit; it
    keeps its last model.  The rows do not interact: a row of a stack
    equals that row run alone, so the stack runs one row block
    (:func:`_row_blocks`) after another, which bounds the working set.
    Returns the models and the (S, half) indexes of each row's last fitted
    half-set, -1 in a row never refitted.
    """
    values = values.copy()
    cores = np.full((values.shape[0], half), -1)
    for block in _row_blocks(values.shape[0], pts.shape[0]):
        _concentrate_rows(pts, values[block], cores[block], steps)
    return values, cores


def _concentrate_rows(pts, values, cores, steps: int) -> None:
    """:func:`_concentrate` on one row block, in place on its views."""
    half = cores.shape[1]
    active = np.arange(values.shape[0])
    for _ in range(steps):
        dist = np.abs(signed_residuals(pts, values[active]))
        tight = np.sort(np.argsort(dist, axis=1, kind="stable")[:, :half],
                        axis=1)
        moved = (tight != cores[active]).any(axis=1)
        active, tight = active[moved], tight[moved]
        if active.size == 0:
            break
        refit, good = _fit_direct_batch(pts[tight])
        active, tight = active[good], tight[good]
        values[active], cores[active] = refit[good], tight


_MULTISTART_SEED = 0x5EED
_MULTISTART_SAMPLES = 60
# distance entries per block of vanilla_ransac's distance pass: each (block, n)
# temporary of the residual kernel is ~64 KiB, small enough to stay in the
# L2 cache next to the (iterations, n) distance array at any n
_BLOCK_ENTRIES = 1 << 13


def _minimal_samples(n: int, size: int, seed: int, count: int) -> np.ndarray:
    """(count, size) indices: one draw without replacement per seeded trial.

    Trial i's sample is the one of its own child generator,
    ``default_rng(SeedSequence(seed).spawn(count)[i]).choice(n, size,
    replace=False)``; :func:`seeded_choices` computes all of them together,
    bit for bit, without building the children.
    """
    return seeded_choices(n, size, seed, count)


# typed: a size that only compares equal to an int (5.0) still fails the
# draw, as it would uncached
@functools.lru_cache(maxsize=8, typed=True)
def _rescue_samples(n: int, size: int) -> np.ndarray:
    """Read-only (60, size) minimal samples of the multistart rescue.

    Its seed is fixed, so the draw depends only on (n, size) and is made
    once per pair; the array is shared by every later call.
    """
    samples = _minimal_samples(n, size, _MULTISTART_SEED, _MULTISTART_SAMPLES)
    samples.flags.writeable = False
    return samples


def _model_type(pts: np.ndarray):
    return ConicCoeffs if pts.shape[1] == 2 else QuadricCoeffs


def _multistart_concentrate(pts, min_points, half):
    """Start mask of the rescue trajectory: the best trimmed half-set.

    Two concentration steps per seeded random minimal sample, then full
    concentration from the best one: the classic way to reach the global
    trimmed optimum when every available starting fit is captured by
    structured contamination.  Fully deterministic for a given point
    order.  The samples are drawn one per seeded child under a fixed
    seed, so they are drawn once per (n, min_points) and reused read-only
    (:func:`_rescue_samples`); they are fitted as one batch and
    concentrated as one stack by :func:`_concentrate`, the kernel the
    full concentration runs on its one row; the earliest smallest trimmed
    objective wins.  Returns the final half-set of ``half`` points as a
    mask, or None when no sample fits or the best one's first refit fails.
    """
    values, ok = _fit_direct_batch(pts[_rescue_samples(len(pts), min_points)])
    if not ok.any():
        return None
    values, _ = _concentrate(pts, values[ok], half, 2)
    objective = _trimmed_objectives(pts, values, half)
    objective[~(objective < np.inf)] = np.inf
    best = int(np.argmin(objective))
    if objective[best] == np.inf:
        return None
    _, core = _concentrate(pts, values[best:best + 1], half, 30)
    if core[0, 0] < 0:
        return None
    start = np.zeros(len(pts), dtype=bool)
    start[core[0]] = True
    return start


_UNSET = object()  # refine's ``rescue`` when the caller has none


def _trim_size(pts: np.ndarray, min_points: int) -> int:
    """Points in a trimmed half-set: at least half of them, and a sample."""
    return max(min_points, (pts.shape[0] + 1) // 2)


class RescueTrajectory:
    """:func:`refine`'s rescue trajectory on one set of points.

    ``start`` is the best trimmed half-set of
    :func:`_multistart_concentrate` as a mask, or None when there is none.
    The trajectory's classification loop from it runs on the first
    :meth:`finish`, by whoever calls it first: a caller with time to spare
    or refine.
    """

    __slots__ = ("start", "_loop_args", "_outcome")

    def __init__(self, start, pts, fitter, min_points: int,
                 cfg: RefineConfig):
        self.start = start
        self._loop_args = (pts, start, fitter, min_points, cfg)
        self._outcome = _UNSET

    def finish(self):
        """The loop's (model, inliers, iterations, converged), computed
        once.  None when there is no start or when the loop's fit failed
        (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid): refine
        treats both as no rescue outcome.  Any other error propagates and
        leaves the trajectory unfinished."""
        if self._outcome is _UNSET:
            outcome = None
            if self.start is not None:
                try:
                    outcome = _classification_loop(*self._loop_args)
                except _FIT_ERRORS:
                    pass
            self._outcome = outcome
        return self._outcome


def rescue_start(points: np.ndarray,
                 cfg: RefineConfig | None = None) -> RescueTrajectory:
    """:func:`refine`'s rescue trajectory on ``points``, started.

    Its start and its loop depend on the points and ``cfg`` only, never on
    a labeling, so a caller may compute the start here, run the loop
    (:meth:`RescueTrajectory.finish`) beside other work, and hand the
    trajectory, finished or not, to ``refine(points, ..., cfg,
    rescue=...)``.  Raises ValueError, as refine does, for points that are
    not finite (n, 2) or (n, 3) rows and for a ``min_points`` below the
    fit's minimum.
    """
    cfg = cfg or RefineConfig()
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, cfg.min_points)
    start = _multistart_concentrate(pts, min_points,
                                    _trim_size(pts, min_points))
    return RescueTrajectory(start, pts, fitter, min_points, cfg)


def refine(points: np.ndarray, initial: DetectionLabels,
           cfg: RefineConfig | None = None, *,
           rescue=_UNSET) -> FitResult:
    """Iterative model-consistency reclassification from an initial labeling.

    Two trajectories run the same classify/refit loop to a fixpoint, each
    from the one-sample fit of its start mask.  The plain one starts from
    the initial inliers.  The rescue guards against fits captured by
    structured contamination: it starts from the half-set that seeded
    random minimal-sample fits concentrate on (see :func:`rescue_start`).
    The result whose model has the smallest trimmed residual sum wins, the
    plain trajectory breaking ties, which keeps re-running refine on its
    own output a no-op.  When the start fit of one trajectory fails, the
    other's result stands alone; the plain trajectory's error is raised
    only when both fail.

    The keyword-only ``rescue`` is the trajectory ``rescue_start(points,
    cfg)`` returned, finished or not, when the caller already has it, or
    None for no rescue; refine computes it otherwise, after its own
    checks, and finishes it after the plain trajectory.  The result is the
    same bits either way.
    """
    cfg = cfg or RefineConfig()
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, cfg.min_points)
    if np.count_nonzero(initial.inlier) < min_points:
        raise TooFewPoints(
            f"refinement needs at least {min_points} initial inliers")
    half = _trim_size(pts, min_points)

    # the rescue route must not depend on the starting labels, otherwise
    # re-running refine on its own output could surface new candidates
    if rescue is _UNSET:
        rescue = RescueTrajectory(_multistart_concentrate(pts, min_points,
                                                          half),
                                  pts, fitter, min_points, cfg)
    try:
        plain = _classification_loop(pts, initial.inlier, fitter,
                                     min_points, cfg)
    except _FIT_ERRORS as exc:
        plain, error = None, exc
    rescued = None if rescue is None else rescue.finish()
    outcomes = [out for out in (plain, rescued) if out is not None]
    if not outcomes:
        raise error
    best = int(np.argmin(_trimmed_objectives(
        pts, np.stack([out[0].values for out in outcomes]), half)))
    model, inliers, iterations, converged = outcomes[best]
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
    absolute residual any trial achieved; a given threshold must be
    positive and finite.  Each trial's sample is the one its own seeded
    child generator draws; all of them are computed together
    (:func:`_minimal_samples`) and fitted as one batch.  The distances are
    written in blocks of about 8k entries.  A trial's median is taken
    only when it can lower the best median so far: a trial with at most
    (n - 1) // 2 distances at or below it has a larger lower-middle order
    statistic, so a larger (or NaN) median.  Rejected trials and an
    explicit threshold take no median.  None of this changes the samples,
    the threshold, the counts or the tie-breaks.  Raises NoValidModel when
    no valid trial has a point within the threshold: every median NaN, or
    a given threshold below every distance.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if inlier_threshold is not None and not 0.0 < inlier_threshold < math.inf:
        raise ValueError(f"inlier_threshold must be positive and finite, "
                         f"got {inlier_threshold}")
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, None)
    n = pts.shape[0]
    if n < min_points:
        raise TooFewPoints(f"need at least {min_points} points")
    samples = _minimal_samples(n, min_points, rng_seed, iterations)
    values, ok = _fit_direct_batch(pts[samples])
    if not ok.any():
        raise NoValidModel("every minimal sample was degenerate")
    distances = np.empty((iterations, n))
    low = (n - 1) // 2
    # NaN until a median is taken: fmin skips NaN medians, and when all of
    # them are NaN the threshold is NaN, as a min over every trial would be
    best_med = math.nan
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, iterations, step):
        block = slice(start, start + step)
        dist = distances[block]
        np.abs(signed_residuals(pts, values[block]), out=dist)
        if inlier_threshold is not None:
            continue
        rows = ok[block]
        if not math.isnan(best_med):
            rows = rows & (np.count_nonzero(dist <= best_med, axis=1) > low)
        if rows.any():
            best_med = float(np.fmin.reduce(
                np.median(dist[rows], axis=1), initial=best_med))
    if inlier_threshold is not None:
        tau = inlier_threshold
    else:
        tau = max(tau_scale * MAD_TO_SIGMA * best_med, _TAU_FLOOR)
    counts = np.where(ok, np.count_nonzero(distances <= tau, axis=1), -1)
    best = int(np.argmax(counts))
    if counts[best] == 0:
        if math.isnan(tau):
            raise NoValidModel("every trial's median distance is NaN, so no "
                               "point lies within the inlier threshold")
        raise NoValidModel(f"no point lies within the inlier threshold "
                           f"{tau:g} of any trial's model")
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
