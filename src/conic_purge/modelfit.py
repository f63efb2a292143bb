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
                       _normalize_coeff_rows, _residual_and_grad,
                       _squared_norm, signed_residuals)
from .proximity import DetectionLabels

__all__ = [
    "RefineConfig",
    "FitResult",
    "fit_ellipse_direct",
    "fit_ellipsoid_direct",
    "refine",
    "rescue_start",
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


# (first, second) coordinate of each quadratic monomial, in the column
# order of the design matrices of _conic_batch and _quadric_batch
_MONOMIALS = {2: ((0, 0), (0, 1), (1, 1)),
              3: ((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2))}
_EYES = {3: np.eye(3), 4: np.eye(4)}
# the conic's reduced matrix: rows 2, 1 and 0 of m, halved, negated, halved
_REDUCE = np.array([[0.5], [-1.0], [0.5]])


def _denormalize_quadratic(coeff_mat: np.ndarray, mean: np.ndarray,
                           scale: np.ndarray) -> np.ndarray:
    """Map quadratic-form matrices of normalized points to world coordinates.

    The (S, d+1, d+1) homogeneous matrices were fitted to points shifted
    by the (S, d) means and divided by the (S,) scales.
    """
    dim = coeff_mat.shape[-1] - 1
    t = _EYES[dim + 1] / scale[:, None, None]
    t[:, dim, dim] = 1.0
    t[:, :dim, dim] = -mean / scale[:, None]
    return np.swapaxes(t, 1, 2) @ coeff_mat @ t


def _conic_batch(design: np.ndarray):
    """Ellipse-specific fits of (S, n, 6) design matrices.

    Row i of a sample's matrix is (x^2, xy, y^2, x, y, 1) at its i-th
    normalized point.  The numerically stable split of its scatter matrix
    under the constraint 4AC - B^2 = 1.  Returns the normalized-frame
    quadratic-form matrices and a mask of the samples with an admissible
    solution.
    """
    d1, d2 = design[..., :3], design[..., 3:]
    s1 = np.swapaxes(d1, 1, 2) @ d1
    s2 = np.swapaxes(d1, 1, 2) @ d2
    s3 = np.swapaxes(d2, 1, 2) @ d2
    # a stacked solve fails as a whole on one exactly singular block; the
    # LU of slogdet flags the same blocks, which get a harmless stand-in
    ok = np.linalg.slogdet(s3)[0] != 0.0
    s3[~ok] = _EYES[3]
    t_mat = -np.linalg.solve(s3, np.swapaxes(s2, 1, 2))
    m = s1 + s2 @ t_mat
    m_reduced = m[:, ::-1] * _REDUCE
    # and a stacked eig on one block with an entry that is not finite
    # (from a nearly singular scatter block, which the LU passes)
    finite = np.isfinite(m_reduced).all(axis=(1, 2))
    m_reduced[~finite] = _EYES[3]
    ok &= finite
    evals, evecs = np.linalg.eig(m_reduced)
    vecs = np.real(evecs)
    cond = 4.0 * vecs[:, 0] * vecs[:, 2] - vecs[:, 1] ** 2
    admissible = ~(np.abs(evals.imag) > 1e-8 * (1.0 + np.abs(evals.real)))
    admissible &= cond > 0.0
    ok &= admissible.any(axis=1)
    # the earliest of the largest admissible eigenvectors
    best = np.where(admissible, cond, -np.inf).argmax(axis=1)
    a1 = vecs[np.arange(len(vecs)), :, best]
    a2 = (t_mat @ a1[..., None])[..., 0]
    return _matrix_from_coeffs(np.concatenate([a1, a2], axis=1)), ok


def _quadric_batch(design: np.ndarray):
    """Unit-norm quadric fits of (S, n, 10) design matrices.

    Row i of a sample's matrix is (x^2, y^2, z^2, xy, xz, yz, x, y, z, 1)
    at its i-th normalized point.  The smallest right singular vector; the
    mask keeps the samples whose solution is unique (rank 9).
    """
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
    count, n, dim = samples.shape
    conic = dim == 2
    if n < (MIN_POINTS_ELLIPSE if conic else MIN_POINTS_ELLIPSOID):
        raise TooFewPoints("a direct fit needs at least 5 (2-D) or 9 (3-D) "
                           "points per sample")
    monomials = _MONOMIALS[dim]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # np.mean(axis=1) adds each sample's points in turn along a strided
        # axis; down the rows of the (n, S * dim) transpose these are the
        # same additions in the same order, in long inner loops
        mean = np.add.reduce(samples.transpose(1, 0, 2).reshape(n, -1),
                             axis=0)
        mean = (mean / n).reshape(count, dim)
        shifted = samples - mean[:, None, :]
        # np.mean(shifted ** 2, axis=(1, 2)): one pairwise sum per sample
        scale = np.add.reduce((shifted * shifted).reshape(count, -1), axis=1)
        scale = np.sqrt(scale / (n * dim))
        spread = scale != 0.0
        scale[~spread] = 1.0
        # the design matrices: the quadratic monomials, the coordinates, 1
        design = np.empty((count, n, len(monomials) + dim + 1))
        u = np.divide(shifted, scale[:, None, None],
                      out=design[..., len(monomials):-1])
        design[..., -1] = 1.0
        for col, (i, j) in enumerate(monomials):
            np.multiply(u[..., i], u[..., j], out=design[..., col])
        mat, ok = (_conic_batch if conic else _quadric_batch)(design)
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
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
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
    true ellipse or raises DegenerateConfiguration.  Points that are not
    finite raise ValueError.
    """
    coeffs = ConicCoeffs(_fit_one(points, 2))
    if not coeffs.is_ellipse:
        raise DegenerateConfiguration("fit degenerated to a non-ellipse")
    return coeffs


def fit_ellipsoid_direct(points: np.ndarray) -> QuadricCoeffs:
    """Least-squares unit-norm quadric fit of (n, 3) points, n >= 9.

    Raises DegenerateConfiguration when the quadric is not unique (e.g.
    coplanar points) and NotAnEllipsoid when it is another surface;
    points that are not finite raise ValueError.
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


def _median(sample: np.ndarray) -> float:
    """``np.median`` of a nonempty 1-D float sample, bit for bit.

    The middle value, or the mean of the two middle values as np.mean
    adds them to 0.0 and divides, so a -0.0 comes out as 0.0; NaN when
    the sample holds a NaN, which the partition puts last.
    """
    n = sample.shape[0]
    mid = n // 2
    part = sample.copy()
    part.partition((mid - 1, mid, n - 1) if n % 2 == 0 else (mid, n - 1))
    last = float(part[n - 1])
    if last != last:
        return last
    if n % 2:
        return 0.0 + float(part[mid])
    return (0.0 + float(part[mid - 1]) + float(part[mid])) / 2.0


def _robust_inlier_mask(signed: np.ndarray, reference: np.ndarray,
                        tau_scale: float) -> tuple[np.ndarray, float]:
    """Threshold |residual - center| at tau_scale robust standard deviations.

    Center and scale come from the reference residuals (the current
    inliers), using the median and the scaled median absolute deviation.
    """
    center = _median(reference)
    scale = _median(np.abs(reference - center))
    tau = max(tau_scale * MAD_TO_SIGMA * scale, _TAU_FLOOR)
    return np.abs(signed - center) <= tau, tau


def _median_distance(pts, model, mask) -> float:
    return _median(np.abs(signed_residuals(pts, model))[mask])


def _classification_loop(pts, start, fitter, min_points, cfg, model=None):
    """Spec loop: classify all points against the threshold, refit, repeat.

    Starts from ``model``, the fit of the ``start`` mask (fitted here when
    None), whose residuals also seed the first threshold estimate;
    successive classifications are compared to each other, with ``start``
    counting as the zeroth.  Cycles resolve to the iterate with the
    smallest median inlier residual.
    """
    if model is None:
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


def _half_sets(dist: np.ndarray, half: int) -> np.ndarray:
    """Ascending indexes of the ``half`` smallest entries of each (rows, n)
    row, ties going to the lower index and NaN sorting last: the
    ``np.sort(np.argsort(dist, axis=1, kind="stable")[:, :half], axis=1)``
    it stands for.

    Each row keeps the entries that are not above its ``half``-th smallest
    value v, found by partition; NaN entries are kept too (NaN > v is
    false), and every entry when v is NaN.  So every row keeps at least
    ``half``, and exactly the stable sort's ``half`` unless v is tied or a
    NaN is in the row; then the stable sort decides the whole block.
    """
    rows, n = dist.shape
    part = dist.copy()
    part.partition(half - 1, axis=1)
    keep = dist > part[:, half - 1:half]
    np.logical_not(keep, out=keep)
    flat = keep.ravel().nonzero()[0]
    if flat.size != rows * half:
        return np.sort(np.argsort(dist, axis=1, kind="stable")[:, :half],
                       axis=1)
    tight = flat.reshape(rows, half)
    tight -= np.arange(0, rows * n, n)[:, None]
    return tight


def _concentrate_rows(pts, values, cores, steps: int) -> None:
    """:func:`_concentrate` on one row block, in place on its views."""
    half = cores.shape[1]
    active = np.arange(values.shape[0])
    for _ in range(steps):
        res = signed_residuals(pts, values[active])
        tight = _half_sets(np.abs(res, out=res), half)
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
# relative slack of vanilla_ransac's conic distances, 2^13 u (derived there)
_CONSENSUS_MARGIN = 2.0 ** -40
_TINY = np.finfo(float).tiny
_HUGE = np.finfo(float).max


def _minimal_samples(n: int, size: int, seed: int, count: int) -> np.ndarray:
    """(count, size) indices: one draw without replacement per seeded trial.

    Trial i's sample is the one of its own child generator,
    ``default_rng(SeedSequence(seed).spawn(count)[i]).choice(n, size,
    replace=False)``; :func:`seeded_choices` computes all of them together,
    bit for bit, without building the children wherever the library draws
    (numpy's own per-trial draw serves the rest).
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


def _model_of_row(row: np.ndarray):
    """The model whose coefficients are ``row``, a row of
    :func:`_fit_direct_batch`: the public fit of the same sample, bit for
    bit.  The constructor would normalize the row again, which may move its
    last bits."""
    model = object.__new__(ConicCoeffs if row.shape[0] == 6 else QuadricCoeffs)
    object.__setattr__(model, "values", row)
    return model


def _multistart_concentrate(pts, min_points, half):
    """Start of the rescue trajectory: the best trimmed half-set and its fit.

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
    mask and the concentration's last fit, the fit of that half-set in
    index order, or None when no sample fits or the best one's first
    refit fails.
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
    values, core = _concentrate(pts, values[best:best + 1], half, 30)
    if core[0, 0] < 0:
        return None
    start = np.zeros(len(pts), dtype=bool)
    start[core[0]] = True
    return start, _model_of_row(values[0])


_UNSET = object()  # refine's ``rescue`` when the caller has none


def _trim_size(pts: np.ndarray, min_points: int) -> int:
    """Points in a trimmed half-set: at least half of them, and a sample."""
    return max(min_points, (pts.shape[0] + 1) // 2)


def _rescue_loop(found, pts, fitter, min_points: int, cfg: RefineConfig):
    """The rescue trajectory's classification loop from ``found``, what
    :func:`_multistart_concentrate` returned: the loop's (model, inliers,
    iterations, converged), or None when there is no start or when the
    loop's fit failed (DegenerateConfiguration, NotAnEllipse,
    NotAnEllipsoid).  Any other error propagates."""
    if found is None:
        return None
    start, model = found
    try:
        return _classification_loop(pts, start, fitter, min_points, cfg, model)
    except _FIT_ERRORS:
        return None


def rescue_start(points: np.ndarray, cfg: RefineConfig | None = None):
    """:func:`refine`'s rescue trajectory on ``points``, run to its end.

    Its start and its loop depend on the points and ``cfg`` only, never on
    a labeling, so a caller may compute the rescue here, beside other
    work, and hand what this returns to ``refine(points, ..., cfg,
    rescue=...)``: the loop's (model, inliers, iterations, converged), or
    None when there is no start or when the loop's fit failed, which
    refine treats as no rescue outcome.  Any other error propagates.
    Raises ValueError, as refine does, for points that are not finite
    (n, 2) or (n, 3) rows and for a ``min_points`` below the fit's
    minimum.
    """
    cfg = cfg or RefineConfig()
    pts = np.asarray(points, dtype=float)
    fitter, min_points = _dim_tools(pts, cfg.min_points)
    found = _multistart_concentrate(pts, min_points,
                                    _trim_size(pts, min_points))
    return _rescue_loop(found, pts, fitter, min_points, cfg)


def refine(points: np.ndarray, initial: DetectionLabels,
           cfg: RefineConfig | None = None, *,
           rescue=_UNSET) -> FitResult:
    """Iterative model-consistency reclassification from an initial labeling.

    Two trajectories run the same classify/refit loop to a fixpoint, each
    from the one-sample fit of its start mask.  The plain one starts from
    the initial inliers.  The rescue guards against fits captured by
    structured contamination: it starts from the half-set that seeded
    random minimal-sample fits concentrate on (see :func:`rescue_start`),
    whose fit the concentration already made.
    The result whose model has the smallest trimmed residual sum wins, the
    plain trajectory breaking ties, which keeps re-running refine on its
    own output a no-op.  When the start fit of one trajectory fails, the
    other's result stands alone; the plain trajectory's error is raised
    only when both fail.

    The keyword-only ``rescue`` is what ``rescue_start(points, cfg)``
    returned, when the caller already has it; None is no rescue outcome.
    Otherwise refine computes it after its own checks: the concentration
    before the plain trajectory, the rescue's loop after it.  The result
    is the same bits either way.
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
    computed = rescue is _UNSET
    if computed:
        found = _multistart_concentrate(pts, min_points, half)
    try:
        plain = _classification_loop(pts, initial.inlier, fitter,
                                     min_points, cfg)
    except _FIT_ERRORS as exc:
        plain, error = None, exc
    if computed:
        rescue = _rescue_loop(found, pts, fitter, min_points, cfg)
    outcomes = [out for out in (plain, rescue) if out is not None]
    if not outcomes:
        raise error
    best = int(np.argmin(_trimmed_objectives(
        pts, np.stack([out[0].values for out in outcomes]), half)))
    model, inliers, iterations, converged = outcomes[best]
    stage = np.where(inliers == initial.inlier, initial.stage, "model")
    return FitResult(model, DetectionLabels(~inliers, stage),
                     iterations, converged)


def _cheap_distances(pts, values, out) -> np.ndarray:
    """|res| / sqrt(g'g) of each (S, m) model row and point into ``out``.

    The residuals and gradients are the bits :func:`signed_residuals`
    takes; it divides by the same norm for quadrics and by hypot(gx, gy)
    for conics.  Returns a mask of the rows with an entry where g'g is not
    a finite normal number (zero, subnormal, infinite or NaN) or the
    distance is not finite: only elsewhere does :func:`vanilla_ransac`'s
    margin hold.
    """
    res, grad = _residual_and_grad(pts, values)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        norm = _squared_norm(grad)
        normal = (norm.min(axis=1) >= _TINY) & (norm.max(axis=1) <= _HUGE)
        np.sqrt(norm, out=norm)
        np.abs(res, out=out)
        out /= norm
    return ~(normal & (out.max(axis=1) <= _HUGE))


def _band(t: float, margin: float) -> tuple[float, float]:
    """(lo, hi) around a threshold t: a cheap distance at or below lo is an
    exact one at or below t, and one above hi an exact one above t."""
    slack = margin * _TINY
    return t * (1.0 - margin) - slack, t * (1.0 + margin) + slack


def vanilla_ransac(points: np.ndarray, iterations: int = 1000,
                   inlier_threshold: float | None = None, rng_seed: int = 0,
                   tau_scale: float = 3.0) -> FitResult:
    """Classic consensus baseline: best of ``iterations`` minimal samples.

    Every trial fits a random minimal sample; the model with the largest
    consensus set wins (Fischler & Bolles 1981; the earliest trial breaks
    ties) and is refit on that set.  Consensus needs one threshold shared
    by all trials for counts to be comparable: when none is given it is
    tau_scale robust standard deviations, with the scale calibrated from
    the best (smallest) median absolute residual any trial achieved; a
    given threshold must be positive and finite.  Each trial's sample is
    the one its own seeded child generator draws; all of them are computed
    together (:func:`_minimal_samples`) and fitted as one batch.  The
    distances are |:func:`signed_residuals`|.  A trial's median is taken
    only when it can lower the best median so far: a trial with at most
    (n - 1) // 2 distances at or below it has a larger lower-middle order
    statistic, so a larger (or NaN) median.  Rejected trials and an
    explicit threshold take no median.  Raises NoValidModel when no valid
    trial has a point within the threshold: every median NaN, or a given
    threshold below every distance.

    The distance pass, in blocks of about 8k entries, writes the cheap
    A = |res| / sqrt(g'g) (:func:`_cheap_distances`) and computes the
    exact D = |res / hypot(gx, gy)| of a trial, a whole row at a time,
    only where a decision needs it.  The margin delta = 2^-40 follows from
    the rounding bounds (Higham 2002, ch. 3).  With u = 2^-53, where g'g
    is a normal number and A is finite:

    - the summed squares are within 4u of their exact value (a subnormal
      square is off by at most u tiny), and their root within 3u of the
      exact norm G;
    - a hypot within k ulps is within 2k u of G;
    - rounding each quotient once more, |A - D| <= (2k + 6) u max(A, D)
      + 2^-1073.

    delta = 8192 u covers any hypot within 2000 ulps (glibc's is within
    one), and the absolute slack delta tiny = 2^-1062 covers the last
    term.  So for any threshold t, A <= t (1 - delta) - delta tiny proves
    D <= t and A > t (1 + delta) + delta tiny proves D > t
    (:func:`_band`), the rounding of both bounds included.  A row with an
    entry where g'g is not normal or A is not finite gets D in the pass.
    For quadrics signed_residuals divides by the same norm, so A is D, the
    margin is 0 and nothing is recomputed.

    The decisions: a block's median candidates are its accepted rows with
    more than (n - 1) // 2 entries at or below the best median's upper
    bound (every accepted row while no median is taken), and each
    candidate's exact row takes the test above and gives its median.  A
    trial's count is its number of entries at or below the threshold's
    lower bound, recounted from its exact row when an entry lies between
    the two bounds, and the winner's mask comes from its exact row.  So
    the samples, the threshold, the counts, the tie-breaks and the
    refusals are those of the exact distances, bit for bit.
    """
    iterations = typed_number(int, iterations, "iterations")
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
    margin = _CONSENSUS_MARGIN if pts.shape[1] == 2 else 0.0
    distances = np.empty((iterations, n))
    low = (n - 1) // 2

    def exact_rows(rows: np.ndarray) -> np.ndarray:
        """The exact distances of the trials ``rows``: the pass's own where
        the margin is 0."""
        if not margin:
            return distances[rows]
        out = signed_residuals(pts, values[rows])
        return np.abs(out, out=out)

    def lowest_median(rows: np.ndarray, best: float) -> float:
        """The smaller of ``best`` and the exact medians of those trials
        ``rows`` with more than ``low`` exact distances at or below it (all
        of them while ``best`` is NaN)."""
        exact = exact_rows(rows)
        if not math.isnan(best):
            exact = exact[np.count_nonzero(exact <= best, axis=1) > low]
        return float(np.fmin.reduce(np.median(exact, axis=1), initial=best))

    # NaN until a median is taken: fmin skips NaN medians, and when all of
    # them are NaN the threshold is NaN, as a min over every trial would be
    best_med = math.nan
    step = max(1, _BLOCK_ENTRIES // n)
    for start in range(0, iterations, step):
        block = slice(start, start + step)
        dist = distances[block]
        uncertified = _cheap_distances(pts, values[block], dist)
        uncertified &= ok[block]
        if uncertified.any():
            dist[uncertified] = np.abs(signed_residuals(
                pts, values[block][uncertified]))
        if inlier_threshold is not None:
            continue
        rows = ok[block]
        if not math.isnan(best_med):
            upper = _band(best_med, margin)[1]
            rows = rows & (np.count_nonzero(dist <= upper, axis=1) > low)
        if rows.any():
            best_med = lowest_median(np.flatnonzero(rows) + start, best_med)
    if inlier_threshold is not None:
        tau = inlier_threshold
    else:
        tau = max(tau_scale * MAD_TO_SIGMA * best_med, _TAU_FLOOR)
    lower, upper = _band(tau, margin)
    counts = np.count_nonzero(distances <= lower, axis=1)
    unsure = np.flatnonzero(
        ok & (np.count_nonzero(distances <= upper, axis=1) > counts))
    if unsure.size:
        counts[unsure] = np.count_nonzero(exact_rows(unsure) <= tau, axis=1)
    counts[~ok] = -1
    best = int(np.argmax(counts))
    if counts[best] == 0:
        if math.isnan(tau):
            raise NoValidModel("every trial's median distance is NaN, so no "
                               "point lies within the inlier threshold")
        raise NoValidModel(f"no point lies within the inlier threshold "
                           f"{tau:g} of any trial's model")
    best_mask = exact_rows(np.array([best]))[0] <= tau
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
    1 - (1 - w^n)^k.  n and k are whole numbers (see
    :func:`~conic_purge.errors.typed_number`).
    """
    if not 0.0 < w <= 1.0:
        raise ValueError("w must lie in (0, 1]")
    n, k = typed_number(int, n, "n"), typed_number(int, k, "k")
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    return 1.0 - (1.0 - w ** n) ** k
