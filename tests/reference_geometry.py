"""Reference shape/coefficient conversions for the tests.

Before the coefficient format was written down once, as a table of
positions in the homogeneous matrix, ``conic_from_ellipse``,
``ellipse_from_conic``, ``quadric_from_ellipsoid``,
``ellipsoid_from_quadric`` and ``QuadricCoeffs.is_ellipsoid`` each spelled
out the coefficient positions by hand, with a scalar interior test.  The
functions below are that implementation, copied verbatim; the two methods
``QuadricCoeffs.matrix_form`` and ``is_ellipsoid`` became functions of the
coefficient object.
"""

import math

import numpy as np

from conic_purge import (ConicCoeffs, EllipseParams, EllipsoidParams,
                         NotAnEllipse, NotAnEllipsoid, QuadricCoeffs)


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
