"""Reference direct fitters for the tests: the one-sample implementation.

Before the public fitters became the one-row case of the stacked kernel
(``modelfit._fit_direct_raw``), ``fit_ellipse_direct`` and
``fit_ellipsoid_direct`` were written out one sample at a time.  The
functions below are that implementation, copied verbatim, so the stacked
kernel is checked against an independent evaluation of the same
Halir-Flusser ellipse fit and unit-norm quadric fit.
"""

import math

import numpy as np

from conic_purge import (ConicCoeffs, DegenerateConfiguration, NotAnEllipsoid,
                         QuadricCoeffs, TooFewPoints)

MIN_POINTS_ELLIPSE = 5
MIN_POINTS_ELLIPSOID = 9


def _normalize_points(pts: np.ndarray):
    """Shift to the centroid and scale to unit RMS coordinate."""
    mean = pts.mean(axis=0)
    shifted = pts - mean
    scale = math.sqrt(float(np.mean(shifted ** 2)))
    if scale == 0.0:
        raise DegenerateConfiguration("all points coincide")
    return shifted / scale, mean, scale


def _denormalize_quadratic(coeff_mat: np.ndarray, mean: np.ndarray,
                           scale) -> np.ndarray:
    """Map a homogeneous quadratic-form matrix back to world coordinates.

    Also maps an (S, d+1, d+1) stack, with (S, d) means and (S,) scales.
    """
    dim = coeff_mat.shape[-1] - 1
    scale = np.asarray(scale)[..., None, None]
    t = np.eye(dim + 1) / scale
    t[..., dim, dim] = 1.0
    t[..., :dim, dim] = -mean / scale[..., 0]
    return np.swapaxes(t, -1, -2) @ coeff_mat @ t


def fit_ellipse_direct(points: np.ndarray) -> ConicCoeffs:
    """Direct least-squares ellipse fit.

    Minimizes the algebraic residual subject to the ellipse-specific
    constraint 4AC - B^2 = 1 via the numerically stable split of the
    scatter matrix of (x^2, xy, y^2, x, y, 1); always returns a true
    ellipse when it returns at all.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("expected an (n, 2) point array")
    if pts.shape[0] < MIN_POINTS_ELLIPSE:
        raise TooFewPoints("ellipse fitting needs at least 5 points")
    u, mean, scale = _normalize_points(pts)
    x, y = u[:, 0], u[:, 1]
    d1 = np.column_stack([x * x, x * y, y * y])
    d2 = np.column_stack([x, y, np.ones_like(x)])
    s1 = d1.T @ d1
    s2 = d1.T @ d2
    s3 = d2.T @ d2
    try:
        t_mat = -np.linalg.solve(s3, s2.T)
    except np.linalg.LinAlgError:
        raise DegenerateConfiguration("linear scatter block is singular") from None
    m = s1 + s2 @ t_mat
    m_reduced = np.vstack([m[2] / 2.0, -m[1], m[0] / 2.0])
    evals, evecs = np.linalg.eig(m_reduced)
    best = None
    for i in range(3):
        if abs(evals[i].imag) > 1e-8 * (1.0 + abs(evals[i].real)):
            continue
        vec = np.real(evecs[:, i])
        cond = 4.0 * vec[0] * vec[2] - vec[1] ** 2
        if cond > 0.0 and (best is None or cond > best[0]):
            best = (cond, vec)
    if best is None:
        raise DegenerateConfiguration("no admissible ellipse solution")
    a1 = best[1]
    a2 = t_mat @ a1
    qa, qb, qc = a1
    qd, qe, qf = a2
    mat = np.array([[qa, qb / 2.0, qd / 2.0],
                    [qb / 2.0, qc, qe / 2.0],
                    [qd / 2.0, qe / 2.0, qf]])
    w = _denormalize_quadratic(mat, mean, scale)
    coeffs = ConicCoeffs(np.array([w[0, 0], 2.0 * w[0, 1], w[1, 1],
                                   2.0 * w[0, 2], 2.0 * w[1, 2], w[2, 2]]))
    if not coeffs.is_ellipse:
        raise DegenerateConfiguration("fit degenerated to a non-ellipse")
    return coeffs


def fit_ellipsoid_direct(points: np.ndarray) -> QuadricCoeffs:
    """Least-squares quadric under a unit-norm coefficient constraint.

    The smallest right singular vector of the design matrix of
    (x^2, y^2, z^2, xy, xz, yz, x, y, z, 1) gives the quadric; it is then
    validated as an ellipsoid.  Raises DegenerateConfiguration when the
    solution is not unique (rank-deficient configurations such as coplanar
    points) and NotAnEllipsoid when the best quadric is another surface.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError("expected an (n, 3) point array")
    if pts.shape[0] < MIN_POINTS_ELLIPSOID:
        raise TooFewPoints("ellipsoid fitting needs at least 9 points")
    u, mean, scale = _normalize_points(pts)
    x, y, z = u[:, 0], u[:, 1], u[:, 2]
    design = np.column_stack([
        x * x, y * y, z * z, x * y, x * z, y * z,
        x, y, z, np.ones_like(x),
    ])
    _, svals, vt = np.linalg.svd(design, full_matrices=True)
    # a unique quadric needs rank 9 (one-dimensional null space)
    if svals[0] == 0.0 or svals[8] < 1e-10 * svals[0]:
        raise DegenerateConfiguration("quadric solution is not unique")
    q = vt[-1]
    mat = np.array([
        [q[0], q[3] / 2.0, q[4] / 2.0, q[6] / 2.0],
        [q[3] / 2.0, q[1], q[5] / 2.0, q[7] / 2.0],
        [q[4] / 2.0, q[5] / 2.0, q[2], q[8] / 2.0],
        [q[6] / 2.0, q[7] / 2.0, q[8] / 2.0, q[9]],
    ])
    w = _denormalize_quadratic(mat, mean, scale)
    coeffs = QuadricCoeffs(np.array([
        w[0, 0], w[1, 1], w[2, 2],
        2.0 * w[0, 1], 2.0 * w[0, 2], 2.0 * w[1, 2],
        2.0 * w[0, 3], 2.0 * w[1, 3], 2.0 * w[2, 3], w[3, 3],
    ]))
    if not coeffs.is_ellipsoid:
        raise NotAnEllipsoid("best quadric is not an ellipsoid")
    return coeffs
