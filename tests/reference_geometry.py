"""Reference shape/coefficient conversions for the tests.

Before the coefficient format was written down once, as a table of
positions in the homogeneous matrix, ``conic_from_ellipse``,
``ellipse_from_conic``, ``quadric_from_ellipsoid``,
``ellipsoid_from_quadric`` and ``QuadricCoeffs.is_ellipsoid`` each spelled
out the coefficient positions by hand, with a scalar interior test.  The
functions below are that implementation, copied verbatim; the two methods
``QuadricCoeffs.matrix_form`` and ``is_ellipsoid`` became functions of the
coefficient object.

``nonoverlap_ratio`` is the scorer as it was before it counted per grid
column and per chunk of Monte Carlo points: it tests every 2-D cell
centre of the full grid, and all 3-D points of one draw, at once.  It is
copied verbatim with the four helpers it calls.

``_normalize_coeffs`` is the coefficient normaliser as it was before it
became the one-row case of the stacked one, copied verbatim: it takes
the norm of one row with ``np.linalg.norm``.

``signed_residuals`` is the gradient-normalized residual as it was before
its kernel returned the gradient components and its divide lost the
``where`` mask: it fills an array with +inf and divides only where the
gradient norm is positive.  It is copied verbatim with its two residual
kernels.
"""

import math

import numpy as np

from conic_purge import (ConicCoeffs, EllipseParams, EllipsoidParams,
                         NotAnEllipse, NotAnEllipsoid, QuadricCoeffs)
from conic_purge.geometry import _SIGN_EPS


def matrix_form(q: QuadricCoeffs) -> tuple[np.ndarray, np.ndarray, float]:
    """Return (M, b, f) with the quadric written x'Mx + b'x + f = 0."""
    q = q.values
    m = np.array([
        [q[0], q[3] / 2.0, q[4] / 2.0],
        [q[3] / 2.0, q[1], q[5] / 2.0],
        [q[4] / 2.0, q[5] / 2.0, q[2]],
    ])
    return m, q[6:9].copy(), float(q[9])


def is_ellipsoid(q: QuadricCoeffs) -> bool:
    try:
        ellipsoid_from_quadric(q)
    except NotAnEllipsoid:
        return False
    return True


def _rotation2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def conic_from_ellipse(e: EllipseParams) -> ConicCoeffs:
    """Algebraic coefficients vanishing exactly on the ellipse boundary."""
    rot = _rotation2(e.theta)
    m = rot @ np.diag([1.0 / e.a ** 2, 1.0 / e.b ** 2]) @ rot.T
    center = e.center
    lin = -2.0 * m @ center
    const = float(center @ m @ center) - 1.0
    return ConicCoeffs(np.array([m[0, 0], 2.0 * m[0, 1], m[1, 1],
                                 lin[0], lin[1], const]))


def ellipse_from_conic(c: ConicCoeffs) -> EllipseParams:
    """Invert :func:`conic_from_ellipse`.

    Raises NotAnEllipse for parabolic/hyperbolic, imaginary or degenerate
    coefficient vectors.
    """
    a_, b_, c_, d_, e_, f_ = c.values
    if b_ * b_ - 4.0 * a_ * c_ >= 0.0:
        raise NotAnEllipse("discriminant B^2-4AC is not negative")
    m = np.array([[a_, b_ / 2.0], [b_ / 2.0, c_]])
    lin = np.array([d_, e_])
    center = -0.5 * np.linalg.solve(m, lin)
    k = f_ + 0.5 * float(lin @ center)
    evals, evecs = np.linalg.eigh(m)
    # sign convention puts A > 0, hence m positive definite for a real ellipse
    if evals[0] <= 0.0 or k >= 0.0:
        raise NotAnEllipse("conic has no real interior")
    axes = np.sqrt(-k / evals)
    major = evecs[:, 0]
    theta = math.atan2(major[1], major[0])
    if theta >= math.pi / 2:
        theta -= math.pi
    elif theta < -math.pi / 2:
        theta += math.pi
    return EllipseParams(float(center[0]), float(center[1]),
                         float(axes[0]), float(axes[1]), theta)


def quadric_from_ellipsoid(e: EllipsoidParams) -> QuadricCoeffs:
    """Algebraic coefficients vanishing exactly on the ellipsoid surface."""
    rot = e.orientation
    m = rot @ np.diag(1.0 / e.semi_axes ** 2) @ rot.T
    lin = -2.0 * m @ e.center
    const = float(e.center @ m @ e.center) - 1.0
    return QuadricCoeffs(np.array([
        m[0, 0], m[1, 1], m[2, 2],
        2.0 * m[0, 1], 2.0 * m[0, 2], 2.0 * m[1, 2],
        lin[0], lin[1], lin[2], const,
    ]))


def ellipsoid_from_quadric(q: QuadricCoeffs) -> EllipsoidParams:
    """Invert :func:`quadric_from_ellipsoid`.

    Raises NotAnEllipsoid when the (sign-normalized) quadratic part is not
    positive definite or the surface has no real interior.
    """
    m, lin, f_ = matrix_form(q)
    evals, evecs = np.linalg.eigh(m)
    if evals[0] <= 0.0:
        raise NotAnEllipsoid("quadratic part is not positive definite")
    center = -0.5 * np.linalg.solve(m, lin)
    k = f_ + 0.5 * float(lin @ center)
    if k >= 0.0:
        raise NotAnEllipsoid("quadric has no real interior")
    axes = np.sqrt(-k / evals)  # ascending evals -> descending axes
    cols = [evecs[:, 0], evecs[:, 1]]
    for i, col in enumerate(cols):
        if col[np.argmax(np.abs(col))] < 0.0:
            cols[i] = -col
    rot = np.column_stack([cols[0], cols[1], np.cross(cols[0], cols[1])])
    return EllipsoidParams(center, axes, rot)


def ellipse_contains(e: EllipseParams, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points) - e.center
    body = pts @ _rotation2(e.theta)
    return (body[:, 0] / e.a) ** 2 + (body[:, 1] / e.b) ** 2 <= 1.0


def ellipsoid_contains(e: EllipsoidParams, points: np.ndarray) -> np.ndarray:
    body = (np.atleast_2d(points) - e.center) @ e.orientation
    return np.sum((body / e.semi_axes) ** 2, axis=1) <= 1.0


def _ellipse_halfwidths(e: EllipseParams) -> np.ndarray:
    c2, s2 = math.cos(e.theta) ** 2, math.sin(e.theta) ** 2
    return np.sqrt([e.a ** 2 * c2 + e.b ** 2 * s2,
                    e.a ** 2 * s2 + e.b ** 2 * c2])


def _ellipsoid_halfwidths(e: EllipsoidParams) -> np.ndarray:
    scaled = e.orientation * e.semi_axes  # columns scaled by axis lengths
    return np.sqrt(np.sum(scaled ** 2, axis=1))


def nonoverlap_ratio(fit, truth, resolution: int = 512,
                     mc_samples: int = 1_000_000, seed: int = 0) -> float:
    """Symmetric-difference area (volume) of fit vs truth over the truth's.

    2-D uses a deterministic resolution x resolution grid of cell centers
    over the union bounding box; 3-D uses seeded Monte Carlo sampling.
    Identical models give exactly 0, disjoint models
    (area_fit + area_truth) / area_truth.
    """
    if isinstance(fit, EllipseParams) and isinstance(truth, EllipseParams):
        if resolution < 64:
            raise ValueError("resolution must be at least 64 cells per axis")
        los, his = [], []
        for mdl in (fit, truth):
            hw = _ellipse_halfwidths(mdl)
            los.append(mdl.center - hw)
            his.append(mdl.center + hw)
        lo, hi = np.minimum(*los), np.maximum(*his)
        xs = lo[0] + (np.arange(resolution) + 0.5) * (hi[0] - lo[0]) / resolution
        ys = lo[1] + (np.arange(resolution) + 0.5) * (hi[1] - lo[1]) / resolution
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        in_fit = ellipse_contains(fit, pts)
        in_truth = ellipse_contains(truth, pts)
    elif isinstance(fit, EllipsoidParams) and isinstance(truth, EllipsoidParams):
        if mc_samples < 1_000_000:
            raise ValueError("need at least 1e6 Monte Carlo samples")
        los, his = [], []
        for mdl in (fit, truth):
            hw = _ellipsoid_halfwidths(mdl)
            los.append(mdl.center - hw)
            his.append(mdl.center + hw)
        lo, hi = np.minimum(*los), np.maximum(*his)
        rng = np.random.default_rng(seed)
        pts = rng.uniform(lo, hi, size=(mc_samples, 3))
        in_fit = ellipsoid_contains(fit, pts)
        in_truth = ellipsoid_contains(truth, pts)
    else:
        raise ValueError("fit and truth must both be ellipses or both ellipsoids")
    n_truth = int(np.count_nonzero(in_truth))
    if n_truth == 0:
        raise ValueError("truth model not resolved; increase resolution/samples")
    return float(np.count_nonzero(in_fit ^ in_truth)) / n_truth


def _normalize_coeffs(values: np.ndarray) -> np.ndarray:
    """Scale to unit Euclidean norm and make the first nonzero entry positive."""
    values = np.asarray(values, dtype=float)
    norm = float(np.linalg.norm(values))
    if not np.isfinite(norm) or norm == 0.0:
        raise ValueError("coefficient vector must be finite and nonzero")
    values = values / norm
    for v in values:
        if abs(v) > _SIGN_EPS:
            if v < 0.0:
                values = -values
            break
    return values


def _conic_residual_and_grad(points: np.ndarray, values: np.ndarray):
    x, y = points[:, 0], points[:, 1]
    a, b, c, d, e, f = np.moveaxis(values, -1, 0)[..., None]
    res = a * x * x + b * x * y + c * y * y + d * x + e * y + f
    gx = 2.0 * a * x + b * y + d
    gy = b * x + 2.0 * c * y + e
    return res, np.hypot(gx, gy)


def _quadric_residual_and_grad(points: np.ndarray, values: np.ndarray):
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    q = np.moveaxis(values, -1, 0)[..., None]
    res = (q[0] * x * x + q[1] * y * y + q[2] * z * z
           + q[3] * x * y + q[4] * x * z + q[5] * y * z
           + q[6] * x + q[7] * y + q[8] * z + q[9])
    gx = 2.0 * q[0] * x + q[3] * y + q[4] * z + q[6]
    gy = 2.0 * q[1] * y + q[3] * x + q[5] * z + q[7]
    gz = 2.0 * q[2] * z + q[4] * x + q[5] * y + q[8]
    return res, np.sqrt(gx * gx + gy * gy + gz * gz)


def signed_residuals(points, model) -> np.ndarray:
    """Gradient-normalized algebraic residuals, keeping the sign.

    Negative inside the model surface, positive outside (for the canonical
    sign convention).  Entries where the gradient vanishes are +/-inf.
    ``model`` may also be an (S, 6) or (S, 10) stack of coefficient
    vectors; the result is then (S, n), one row per model.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if isinstance(model, (ConicCoeffs, QuadricCoeffs)):
        values = model.values
    else:
        values = np.asarray(model, dtype=float)
    if values.ndim not in (1, 2) or values.shape[-1] not in (6, 10):
        raise ValueError("model must have 6 (conic) or 10 (quadric) coefficients")
    if pts.shape[1] != (2 if values.shape[-1] == 6 else 3):
        raise ValueError("point dimension does not match the model")
    if values.shape[-1] == 6:
        res, grad = _conic_residual_and_grad(pts, values)
    else:
        res, grad = _quadric_residual_and_grad(pts, values)
    out = np.full(res.shape, np.inf)
    np.divide(res, grad, out=out, where=grad > 0.0)
    out[(grad == 0.0) & (res < 0.0)] = -np.inf
    return out
