"""Ellipse/ellipsoid representations, conversions and deviation measures.

Parametric forms (center, semi-axes, orientation) describe the shapes;
algebraic forms (unit-norm coefficient vectors of the implicit polynomial)
are what the fitting routines produce.  Conversions between the two are
exact up to floating point round-off.  The coefficient format and the one
ellipse/ellipsoid interior test live here; the fitters use both.
"""

from __future__ import annotations

import contextlib
import functools
import math
import queue
from dataclasses import dataclass

import numpy as np

from . import _cores
from .errors import NotAnEllipse, NotAnEllipsoid, typed_number

__all__ = [
    "EllipseParams",
    "ConicCoeffs",
    "EllipsoidParams",
    "QuadricCoeffs",
    "conic_from_ellipse",
    "ellipse_from_conic",
    "quadric_from_ellipsoid",
    "ellipsoid_from_quadric",
    "sampson_distance",
    "nonoverlap_ratio",
    "ellipse_boundary_points",
    "ellipsoid_boundary_points",
]

_SIGN_EPS = 1e-12

# The coefficient format: a model is the symmetric homogeneous matrix H
# with p'Hp = 0 for p = (x, y[, z], 1), and coefficient t is factors[t] *
# H[rows[t], cols[t]].  One (rows, cols, factors) table per vector width.
_FORMS = {6: (np.array([0, 0, 1, 0, 1, 2]), np.array([0, 1, 1, 2, 2, 2]),
              np.array([1.0, 2.0, 1.0, 2.0, 2.0, 1.0])),
          10: (np.array([0, 1, 2, 0, 0, 1, 0, 1, 2, 3]),
               np.array([0, 1, 2, 1, 2, 2, 3, 3, 3, 3]),
               np.array([1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0]))}


def _matrix_from_coeffs(values: np.ndarray) -> np.ndarray:
    """(..., d+1, d+1) homogeneous matrices of (..., 6) or (..., 10) rows."""
    rows, cols, factors = _FORMS[values.shape[-1]]
    size = rows[-1] + 1
    half = values / factors
    mat = np.empty(values.shape[:-1] + (size, size))
    mat[..., rows, cols] = mat[..., cols, rows] = half
    return mat


def _coeffs_from_matrix(mat: np.ndarray) -> np.ndarray:
    """Coefficient rows of (..., 3, 3) or (..., 4, 4) homogeneous matrices."""
    rows, cols, factors = _FORMS[6 if mat.shape[-1] == 3 else 10]
    return factors * mat[..., rows, cols]


def _json_value(obj: dict, key: str, convert, kind: str, *default):
    """``convert(obj[key])``, or ``default[0]`` when the key is absent and a
    default is given.  A key missing without a default, or a value that
    ``convert`` refuses (one that is not ``kind``), raises ValueError
    naming the key."""
    if key not in obj:
        if default:
            return default[0]
        raise ValueError(f"missing key {key!r}")
    value = obj[key]
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ValueError(f"{key} {value!r} is not {kind}") from None


def _float_pair(value) -> tuple[float, float]:
    x, y = value
    return float(x), float(y)


def _is_ellipse(values: np.ndarray):
    """B^2 - 4AC < 0 for a (6,) conic or each row of an (S, 6) stack."""
    a, b, c = values[..., 0], values[..., 1], values[..., 2]
    return b * b - 4.0 * a * c < 0.0


def _normalize_coeff_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Scale each row of an (S, m) stack to unit Euclidean norm and make its
    first nonzero entry positive.

    Returns the normalized rows and a mask of the rows that were finite
    and nonzero; the other rows come back as zeros.
    """
    # on C-ordered rows the stacked matmul rounds each squared norm as
    # np.linalg.norm of one row does; norm(axis=1), and BLAS on strided
    # rows, sum the squares in other orders
    values = np.ascontiguousarray(values)
    with np.errstate(all="ignore"):  # the rows refused below
        norm = np.sqrt((values[:, None, :] @ values[..., None])[:, 0, 0])
        values = values / norm[:, None]
    valid = (norm > 0.0) & (norm < np.inf)
    if not valid.all():
        values[~valid] = 0.0
    # the first entry above _SIGN_EPS in magnitude, or entry 0 when none
    # is, made positive; negation flips a sign as multiplying by -1 does
    lead = values[np.arange(values.shape[0]),
                  (np.abs(values) > _SIGN_EPS).argmax(axis=1)]
    np.negative(values, out=values, where=(lead < -_SIGN_EPS)[:, None])
    return values, valid


def _normalize_coeffs(values: np.ndarray) -> np.ndarray:
    """The one-row case of :func:`_normalize_coeff_rows`; raises ValueError
    for a row that is not finite and nonzero."""
    rows, valid = _normalize_coeff_rows(np.asarray(values, dtype=float)[None])
    if not valid[0]:
        raise ValueError("coefficient vector must be finite and nonzero")
    return rows[0]


@dataclass(frozen=True)
class EllipseParams:
    """Parametric ellipse: center, semi-major/minor axes and rotation.

    Invariants: ``a >= b > 0`` and ``theta`` in ``[-pi/2, pi/2)``.
    """

    center_x: float
    center_y: float
    a: float
    b: float
    theta: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.center_x, self.center_y,
                                       self.a, self.b, self.theta))):
            raise ValueError("ellipse parameters must be finite")
        if not (self.a >= self.b > 0.0):
            raise ValueError(f"require a >= b > 0, got a={self.a}, b={self.b}")
        if not (-math.pi / 2 <= self.theta < math.pi / 2):
            raise ValueError(f"theta must lie in [-pi/2, pi/2), got {self.theta}")

    @property
    def center(self) -> np.ndarray:
        return np.array([self.center_x, self.center_y])

    @property
    def area(self) -> float:
        return math.pi * self.a * self.b

    def to_json_dict(self) -> dict:
        return {
            "type": "ellipse",
            "center": [self.center_x, self.center_y],
            "semi_axes": [self.a, self.b],
            "rotation": self.theta,
            "coefficients": conic_from_ellipse(self).values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EllipseParams":
        """The ellipse of a model JSON object; a missing key, or a value of
        the wrong type, raises ValueError naming the key."""
        pair = "a list of 2 numbers"
        cx, cy = _json_value(obj, "center", _float_pair, pair)
        a, b = _json_value(obj, "semi_axes", _float_pair, pair)
        return cls(cx, cy, a, b,
                   _json_value(obj, "rotation", float, "a number", 0.0))


@dataclass(frozen=True)
class ConicCoeffs:
    """Unit-norm coefficients (A, B, C, D, E, F) of Ax^2+Bxy+Cy^2+Dx+Ey+F=0."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (6,):
            raise ValueError("conic needs exactly 6 coefficients")
        object.__setattr__(self, "values", _normalize_coeffs(values))

    @property
    def is_ellipse(self) -> bool:
        return _is_ellipse(self.values)

    def to_json_dict(self) -> dict:
        return {"type": "conic", "coefficients": self.values.tolist()}


@dataclass(frozen=True)
class EllipsoidParams:
    """Parametric ellipsoid: center, descending semi-axes, rotation matrix.

    ``orientation`` columns are the axis directions; it must be orthogonal
    with determinant +1.
    """

    center: np.ndarray
    semi_axes: np.ndarray
    orientation: np.ndarray

    def __post_init__(self):
        center = np.asarray(self.center, dtype=float).reshape(3)
        axes = np.asarray(self.semi_axes, dtype=float).reshape(3)
        rot = np.asarray(self.orientation, dtype=float).reshape(3, 3)
        if not (np.isfinite(center).all() and np.isfinite(axes).all()
                and np.isfinite(rot).all()):
            raise ValueError("ellipsoid parameters must be finite")
        if not (axes[0] >= axes[1] >= axes[2] > 0.0):
            raise ValueError(f"semi-axes must be descending positive, got {axes}")
        if not np.allclose(rot.T @ rot, np.eye(3), atol=1e-8):
            raise ValueError("orientation must be orthogonal")
        if np.linalg.det(rot) < 0.0:
            raise ValueError("orientation must have determinant +1")
        object.__setattr__(self, "center", center)
        object.__setattr__(self, "semi_axes", axes)
        object.__setattr__(self, "orientation", rot)

    @property
    def volume(self) -> float:
        return 4.0 / 3.0 * math.pi * float(np.prod(self.semi_axes))

    def to_json_dict(self) -> dict:
        return {
            "type": "ellipsoid",
            "center": self.center.tolist(),
            "semi_axes": self.semi_axes.tolist(),
            "orientation": self.orientation.reshape(-1).tolist(),
            "coefficients": quadric_from_ellipsoid(self).values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "EllipsoidParams":
        """The ellipsoid of a model JSON object, with the identity for an
        absent or null orientation; a missing key, or a value of the wrong
        type or size, raises ValueError naming the key."""
        def floats(key, shape, kind):
            return _json_value(
                obj, key, lambda v: np.asarray(v, dtype=float).reshape(shape),
                kind)

        rot = (np.eye(3) if obj.get("orientation") is None
               else floats("orientation", (3, 3), "a 3x3 matrix"))
        return cls(floats("center", 3, "a list of 3 numbers"),
                   floats("semi_axes", 3, "a list of 3 numbers"), rot)


@dataclass(frozen=True)
class QuadricCoeffs:
    """Unit-norm coefficients of the general quadric.

    Ordering: x^2, y^2, z^2, xy, xz, yz, x, y, z, 1.
    """

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (10,):
            raise ValueError("quadric needs exactly 10 coefficients")
        object.__setattr__(self, "values", _normalize_coeffs(values))

    @property
    def is_ellipsoid(self) -> bool:
        return bool(_interior(self.values[None])[0][0])

    def to_json_dict(self) -> dict:
        return {"type": "quadric", "coefficients": self.values.tolist()}


def _rotation2(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def _coeffs_from_shape(m: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Coefficients of (x - center)' m (x - center) = 1, read from the
    homogeneous matrix [[m, -m center], [-center' m, center' m center - 1]]."""
    dim = center.shape[0]
    h = np.empty((dim + 1, dim + 1))
    h[:dim, :dim] = m
    h[:dim, dim] = h[dim, :dim] = -(m @ center)
    h[dim, dim] = float(center @ m @ center) - 1.0
    return _coeffs_from_matrix(h)


def _interior(values: np.ndarray):
    """The ellipse/ellipsoid test of an (S, 6) or (S, 10) coefficient stack.

    A row passes when its quadratic part M is positive definite and regular
    (for conics also B^2 < 4AC) and k = f + l'c/2 at the center c = -M^-1
    l/2 is negative, with finite, positive semi-axes sqrt(-k / eigenvalue).
    Regular means M's smallest eigenvalue exceeds dim * eps * max|eigenvalue|,
    the tolerance of ``np.linalg.matrix_rank``.
    Returns the mask, the centers, M's eigenvectors (in columns, eigenvalues
    ascending) and the descending semi-axes; failing rows carry no meaning.
    """
    dim = 2 if values.shape[-1] == 6 else 3
    m = _matrix_from_coeffs(values)[:, :dim, :dim]
    lin = values[:, -dim - 1:-1]
    evals, evecs = np.linalg.eigh(m)
    # a smaller eigenvalue is not told from zero: a cylinder, a parabola
    floor = dim * np.finfo(float).eps * np.abs(evals).max(axis=1)
    ok = evals[:, 0] > floor
    if dim == 2:
        ok &= _is_ellipse(values)
    # a stacked solve fails as a whole on one exactly singular block; the
    # LU of slogdet flags the same blocks, which get a harmless stand-in
    ok &= np.linalg.slogdet(m)[0] != 0.0
    m[~ok] = np.eye(dim)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        center = -0.5 * np.linalg.solve(m, lin[..., None])[..., 0]
        # the stacked matmul rounds as a one-row lin @ center does
        k = values[:, -1] + 0.5 * (lin[:, None] @ center[..., None])[:, 0, 0]
        axes = np.sqrt(-k[:, None] / evals)
    ok &= ((k < 0.0) & np.isfinite(center).all(axis=1)
           & (np.isfinite(axes) & (axes > 0.0)).all(axis=1))
    return ok, center, evecs, axes


def conic_from_ellipse(e: EllipseParams) -> ConicCoeffs:
    """Algebraic coefficients vanishing exactly on the ellipse boundary."""
    rot = _rotation2(e.theta)
    m = rot @ np.diag([1.0 / e.a ** 2, 1.0 / e.b ** 2]) @ rot.T
    return ConicCoeffs(_coeffs_from_shape(m, e.center))


def ellipse_from_conic(c: ConicCoeffs) -> EllipseParams:
    """Invert :func:`conic_from_ellipse`.

    Raises NotAnEllipse for parabolic/hyperbolic, imaginary or degenerate
    coefficient vectors, and for ellipses whose axes overflow.
    """
    ok, center, evecs, axes = _interior(c.values[None])
    if not ok[0]:
        raise NotAnEllipse("conic is not a real, non-degenerate ellipse")
    center, axes, major = center[0], axes[0], evecs[0, :, 0]
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
    return QuadricCoeffs(_coeffs_from_shape(m, e.center))


def ellipsoid_from_quadric(q: QuadricCoeffs) -> EllipsoidParams:
    """Invert :func:`quadric_from_ellipsoid`.

    Raises NotAnEllipsoid when the (sign-normalized) quadratic part is not
    positive definite or exactly singular, the surface has no real interior
    or its axes overflow.
    """
    ok, center, evecs, axes = _interior(q.values[None])
    if not ok[0]:
        raise NotAnEllipsoid("quadric is not a real, non-degenerate ellipsoid")
    evecs = evecs[0]
    cols = [evecs[:, 0], evecs[:, 1]]
    for i, col in enumerate(cols):
        if col[np.argmax(np.abs(col))] < 0.0:
            cols[i] = -col
    rot = np.column_stack([cols[0], cols[1], np.cross(cols[0], cols[1])])
    return EllipsoidParams(center[0], axes[0], rot)


def _residual_and_grad(points: np.ndarray, values: np.ndarray):
    """Algebraic residuals of (n, d) points against a (6,)/(10,) model or
    an (S, 6)/(S, 10) stack, and the components of their gradients: each
    caller picks the norm.

    For a conic, res = a x x + b x y + c y y + d x + e y + f, gx = 2 a x +
    b y + d and gy = b x + 2 c y + e; for a quadric, res = q0 x x + q1 y y
    + q2 z z + q3 x y + q4 x z + q5 y z + q6 x + q7 y + q8 z + q9, gx =
    2 q0 x + q3 y + q4 z + q6, gy = 2 q1 y + q3 x + q5 z + q7 and gz =
    2 q2 z + q4 x + q5 y + q8.  Each product and sum is taken left to right
    (2 a x as (2 a) x), so the bits are those of the written expressions;
    the terms go through one buffer, and a product shared by the residual
    and a gradient component is formed once.
    """
    q = values.T[..., None]  # coefficient first, for one row or a stack
    if values.shape[-1] == 6:
        x, y = points[:, 0], points[:, 1]
        res = q[0] * x
        res *= x
        gy = q[1] * x
        term = gy * y
        res += term
        _add_product(res, term, q[2], y, y)
        _add_product(res, term, q[3], x)
        _add_product(res, term, q[4], y)
        res += q[5]
        gx = (2.0 * q[0]) * x
        _add_product(gx, term, q[1], y)
        gx += q[3]
        _add_product(gy, term, 2.0 * q[2], y)
        gy += q[4]
        return res, (gx, gy)
    x, y, z = points[:, 0], points[:, 1], points[:, 2]
    res = q[0] * x
    res *= x
    term = q[1] * y
    term *= y
    res += term
    _add_product(res, term, q[2], z, z)
    gx, gy, gz = (2.0 * q[0]) * x, (2.0 * q[1]) * y, (2.0 * q[2]) * z
    # q3 x, q4 x and q5 y join a gradient component, then the residual
    for coeff, u, grad, v in ((q[3], x, gy, y), (q[4], x, gz, z),
                              (q[5], y, gz, z)):
        _add_product(grad, term, coeff, u)
        term *= v
        res += term
    for coeff, u in ((q[6], x), (q[7], y), (q[8], z)):
        _add_product(res, term, coeff, u)
    res += q[9]
    _add_product(gx, term, q[3], y)
    _add_product(gx, term, q[4], z)
    gx += q[6]
    _add_product(gy, term, q[5], z)
    gy += q[7]
    gz += q[8]
    return res, (gx, gy, gz)


def _add_product(total, term, coeff, u, v=None) -> None:
    """total += coeff * u [* v], formed in the buffer ``term``."""
    np.multiply(coeff, u, out=term)
    if v is not None:
        term *= v
    total += term


def _squared_norm(grad) -> np.ndarray:
    """gx*gx + gy*gy [+ gz*gz], added left to right; squares the later
    components in place."""
    out = grad[0] * grad[0]
    for g in grad[1:]:
        g *= g
        out += g
    return out


def signed_residuals(points, model) -> np.ndarray:
    """Gradient-normalized algebraic residuals, keeping the sign.

    Negative inside the model surface, positive outside (for the canonical
    sign convention).  Entries where the gradient vanishes are +/-inf.
    ``model`` may also be an (S, 6) or (S, 10) stack of coefficient
    vectors; the result is then (S, n), one row per model.  The gradient
    norm is ``hypot`` for conics and the square root of the summed
    squares for quadrics.
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
    res, grad = _residual_and_grad(pts, values)
    norm = np.hypot(*grad) if len(grad) == 2 else np.sqrt(_squared_norm(grad))
    inside = (norm == 0.0) & (res < 0.0)
    # the entries without a positive norm are set below
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.divide(res, norm, out=res)
    out[~(norm > 0.0)] = np.inf
    out[inside] = -np.inf
    return out


def sampson_distance(points, model):
    """First-order geometric distance |residual| / ||gradient||.

    Accepts one point or an (n, d) array; scale-invariant in the
    coefficient vector.  Points with vanishing gradient get +inf, which
    downstream classification treats as maximal deviation.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    out = np.abs(signed_residuals(pts, model))
    return float(out[0]) if single else out


def ellipse_boundary_points(e: EllipseParams, angles) -> np.ndarray:
    """Points on the ellipse at the given parametric angles, shape (n, 2)."""
    t = np.asarray(angles, dtype=float)
    body = np.column_stack([e.a * np.cos(t), e.b * np.sin(t)])
    return body @ _rotation2(e.theta).T + e.center


def ellipsoid_boundary_points(e: EllipsoidParams, u, v) -> np.ndarray:
    """Points on the ellipsoid at parametric angles (u, v), shape (n, 3).

    u is the azimuth in [0, 2pi), v the elevation in [-pi/2, pi/2].
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    a, b, c = e.semi_axes
    body = np.column_stack([
        a * np.cos(u) * np.cos(v),
        b * np.sin(u) * np.cos(v),
        c * np.sin(v),
    ])
    return body @ e.orientation.T + e.center


def ellipse_contains(e: EllipseParams, points: np.ndarray) -> np.ndarray:
    pts = np.atleast_2d(points) - e.center
    body = pts @ _rotation2(e.theta)
    return (body[:, 0] / e.a) ** 2 + (body[:, 1] / e.b) ** 2 <= 1.0


def ellipsoid_contains(e: EllipsoidParams, points: np.ndarray) -> np.ndarray:
    """Whether each of the (n, 3) points (or one (3,) point) lies in the
    closed ellipsoid, shape (n,).

    The booleans are exactly those of ``np.sum((((points - center) @
    orientation) / semi_axes) ** 2, axis=1) <= 1``: every rounding step is
    kept.  The arithmetic runs column by column, because numpy loops over a
    length-3 inner axis element by element.
    """
    pts = np.atleast_2d(points)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"points must have shape (n, 3), got {pts.shape}")
    # C-ordered, as ``pts - center`` is for C-ordered points: the matmul
    # makes the same BLAS call and so gives the same bits
    d = np.empty((len(pts), 3))
    for k in range(3):
        np.subtract(pts[:, k], e.center[k], out=d[:, k])
    body = d @ e.orientation
    a0, a1, a2 = e.semi_axes
    # np.sum over a row of 3 adds left to right
    return ((body[:, 0] / a0) ** 2 + (body[:, 1] / a1) ** 2
            + (body[:, 2] / a2) ** 2) <= 1.0


def _ellipse_halfwidths(e: EllipseParams) -> np.ndarray:
    c2, s2 = math.cos(e.theta) ** 2, math.sin(e.theta) ** 2
    return np.sqrt([e.a ** 2 * c2 + e.b ** 2 * s2,
                    e.a ** 2 * s2 + e.b ** 2 * c2])


def _ellipsoid_halfwidths(e: EllipsoidParams) -> np.ndarray:
    scaled = e.orientation * e.semi_axes  # columns scaled by axis lengths
    return np.sqrt(np.sum(scaled ** 2, axis=1))


# 2-D grid cells within this many rows of a computed end of a column's
# interval are tested with ellipse_contains; the others are counted
_BAND_ROWS = 2
# 3-D Monte Carlo points drawn at a time, and points of uncertified cells
# tested at a time.  On a 2-core x86-64 VM, 8192 rows ran 1-6% (median 4%)
# more ellipsoid3d datasets/s than 4096 when every point was tested, with
# half the numpy calls per point, and tied in a fresh process.  Their
# 192 KiB arrays pass glibc's 128 KiB mmap threshold only until the first
# is freed, which raises it; from 16384 rows on, every call page-faulted
# its arrays afresh (~500 minor faults)
_MC_CHUNK = 1 << 13
# cells per axis of the unit cube the 3-D draws u come from: a point's cell
# is floor(u * _MC_GRID) per axis, exact for a power of two, and its id
# (j0 * _MC_GRID + j1) * _MC_GRID + j2 fits a uint16
_MC_GRID = 32
_MC_CELL_WEIGHTS = np.array([_MC_GRID * _MC_GRID, _MC_GRID, 1.0])
# chunk buffers of the 3-D draw-ahead (192 KiB each), the one the caller
# counts included.  On a 2-CPU x86-64 VM (OpenBLAS on one thread), 20
# calls per rep, medians of 15 reps: 20.6 ms per call serial, 22.5 with
# 2 buffers, 20.8 with 3, 17.6 with 4, 17.7 with 8
_MC_RING = 4


def _column_intervals(e: EllipseParams, xs: np.ndarray, y0: float,
                      span: float, n: int):
    """The rows of each grid column that lie inside ``e``, as intervals.

    Row i of a column holds the cell centre y0 + (i + 0.5) span / n.  In
    each column the inside rows are one interval, whose ends solve the
    ellipse's quadratic in y.  Returns the first and last row of each
    column that lie more than ``_BAND_ROWS`` rows inside both ends (last <
    first when there is none) and the (columns, 2, 2 _BAND_ROWS + 1) rows
    within ``_BAND_ROWS`` of either end, -1 marking no row.  A column with
    no or one real end (discriminant <= 0) has its band on the apex row.
    """
    w = _BAND_ROWS
    c, s = math.cos(e.theta), math.sin(e.theta)
    ia, ib = 1.0 / e.a ** 2, 1.0 / e.b ** 2
    dx = xs - e.center_x
    # qa u^2 + 2 hb u + dx^2 (c^2 ia + s^2 ib) - 1 = 0 at u = y - center_y;
    # hb^2 - qa (dx^2 (c^2 ia + s^2 ib) - 1) simplifies to the disc below
    qa = s * s * ia + c * c * ib
    hb = dx * (c * s * (ia - ib))
    disc = qa - dx * dx * (ia * ib)
    scale = n / span
    half = np.sqrt(np.maximum(disc, 0.0)) / qa * scale
    mid = (e.center_y - y0 - hb / qa) * scale - 0.5
    ends = np.stack([mid - half, mid + half], axis=1)
    ends = np.clip(ends, -2 * w - 2, n + 2 * w + 2)
    first = np.maximum(np.floor(ends[:, 0] + w).astype(np.int64) + 1, 0)
    last = np.minimum(np.ceil(ends[:, 1] - w).astype(np.int64) - 1, n - 1)
    band = np.ceil(ends - w).astype(np.int64)[..., None] + np.arange(2 * w + 1)
    band[(band > ends[..., None] + w) | (band < 0) | (band >= n)] = -1
    return first, last, band


def _union_box(fit, truth, halfwidths) -> tuple[np.ndarray, np.ndarray]:
    los = [mdl.center - halfwidths(mdl) for mdl in (fit, truth)]
    his = [mdl.center + halfwidths(mdl) for mdl in (fit, truth)]
    return np.minimum(*los), np.maximum(*his)


def _grid_counts(fit: EllipseParams, truth: EllipseParams,
                 resolution: int) -> tuple[int, int]:
    """Cells of the resolution x resolution grid over the union bounding box
    in the symmetric difference and in ``truth``, as ellipse_contains
    classifies their centres."""
    lo, hi = _union_box(fit, truth, _ellipse_halfwidths)
    xs = lo[0] + (np.arange(resolution) + 0.5) * (hi[0] - lo[0]) / resolution
    ys = lo[1] + (np.arange(resolution) + 0.5) * (hi[1] - lo[1]) / resolution
    (f_first, f_last, f_band), (t_first, t_last, t_band) = (
        _column_intervals(mdl, xs, lo[1], hi[1] - lo[1], resolution)
        for mdl in (fit, truth))
    # the band cells of either model, each once: rows sorted per column
    rows = np.sort(np.concatenate([f_band, t_band], axis=1).reshape(
        resolution, -1), axis=1)
    keep = rows >= 0
    keep[:, 1:] &= rows[:, 1:] != rows[:, :-1]
    col = np.nonzero(keep)[0]
    row = rows[keep]
    pts = np.column_stack([xs[col], ys[row]])
    in_fit = ellipse_contains(fit, pts)
    in_truth = ellipse_contains(truth, pts)
    # a band cell is never inside its own model's interval, so no band
    # cell lies inside both intervals
    in_f_rows = (row >= f_first[col]) & (row <= f_last[col])
    in_t_rows = (row >= t_first[col]) & (row <= t_last[col])
    n_fit = (int(np.maximum(f_last - f_first + 1, 0).sum())
             - int(np.count_nonzero(in_f_rows))
             + int(np.count_nonzero(in_fit)))
    n_truth = (int(np.maximum(t_last - t_first + 1, 0).sum())
               - int(np.count_nonzero(in_t_rows))
               + int(np.count_nonzero(in_truth)))
    n_both = (int(np.maximum(np.minimum(f_last, t_last)
                             - np.maximum(f_first, t_first) + 1, 0).sum())
              + int(np.count_nonzero(in_fit & in_truth)))
    return n_fit + n_truth - 2 * n_both, n_truth


class _CellTable:
    """The cell id of every draw of one seeded Monte Carlo stream, and the
    number of draws per cell; ``counts`` is None until ``ids`` is filled."""

    __slots__ = ("ids", "counts")

    def __init__(self, samples: int):
        self.ids = np.empty(samples, dtype=np.uint16)
        self.counts = None


@functools.lru_cache(maxsize=1)
def _cell_table(samples: int, stream: str) -> _CellTable:
    """The cell table of the first ``samples`` draws of a stream.

    ``stream`` is the repr of the generator's starting state, which fixes
    the draws for an int seed and for any other seed numpy takes (None, a
    sequence, an advanced Generator).  A draw's cell depends on its u
    alone, not on the models, so one table serves every count with the
    same (samples, stream).  It comes back empty; the first count fills it
    during its own draw and makes it read-only.  One entry is kept: 2
    bytes a sample, 2 MiB at 1e6.
    """
    return _CellTable(samples)


def _cell_edges(lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """(3, _MC_GRID + 1) bounds of the cells' point boxes.

    ``lo + span * u`` rounds monotonically in u, so on axis k the points of
    cell j lie between edges[k, j] and edges[k, j + 1], the same expression
    at u = j / _MC_GRID and (j + 1) / _MC_GRID.
    """
    return lo[:, None] + span[:, None] * (np.arange(_MC_GRID + 1) / _MC_GRID)


def _certified_cells(e: EllipsoidParams, edges: np.ndarray):
    """Flat masks over the cell ids: the cells whose every point
    ellipsoid_contains puts inside ``e``, and those it puts outside.

    With t = R'(x - c) / a in the body frame, over a box with centre p and
    half-widths w each |t_i(x)| lies within |t_i(p)| -+ r_i, r_i = sum_k
    w_k |R_ki| / a_i; so t't lies between sum_i max(|t_i(p)| - r_i, 0)^2
    and sum_i (|t_i(p)| + r_i)^2.  A cell is certified when its bound
    clears 1 by the margin 256 u (1 + V'V), u = 2^-53, with V_i = sum_k
    (X_k + |c_k|) |R_ki| / a_i and X_k the largest |edge| on axis k.  V_i
    bounds |t_i|, r_i and each partial sum of them anywhere in the box, so
    each rounding moves t't by at most a few u V'V: ellipsoid_contains's
    t't is within 14 u V'V of its exact value, and the rounding of the
    centres, the half-widths and these bounds adds at most 69 u V'V + 5 u
    (upper) or 39 u V'V + 3 u (lower).  Where V'V overflows, or a bound is
    NaN, no cell is certified.
    """
    centre = 0.5 * (edges[:, :-1] + edges[:, 1:])
    half = 0.5 * np.diff(edges, axis=1).max(axis=1)
    scaled = e.orientation / e.semi_axes
    extent = np.abs(edges[:, [0, -1]]).max(axis=1) + np.abs(e.center)
    upper = np.zeros(_MC_GRID ** 3)
    lower = np.zeros(_MC_GRID ** 3)
    with np.errstate(over="ignore", invalid="ignore"):
        # part[k, i, j]: axis k's share of t_i at the centres of its cells j
        part = (centre - e.center[:, None])[:, None, :] * scaled[:, :, None]
        reach = half @ np.abs(scaled)
        bound = extent @ np.abs(scaled)
        margin = 256.0 * 2.0 ** -53 * (1.0 + bound @ bound)
        # one body axis at a time: three G^3 arrays at once, not nine
        for i in range(3):
            t = np.abs(part[0, i][:, None, None] + part[1, i][:, None]
                       + part[2, i]).reshape(-1)
            edge = t + reach[i]
            edge *= edge
            upper += edge
            np.subtract(t, reach[i], out=edge)
            np.maximum(edge, 0.0, out=edge)
            edge *= edge
            lower += edge
    return upper < 1.0 - margin, lower > 1.0 + margin


def _drawn_chunks(rng: np.random.Generator, samples: int):
    """``(start, u)`` for each chunk of the stream's first ``samples`` rows
    of 3 draws, in stream order: ``u`` is rows ``start`` up to ``start +
    _MC_CHUNK`` (fewer in the last chunk) of one ``rng.random((samples,
    3))``, and is valid until the next chunk is asked for.

    With a spare core (:func:`conic_purge._cores.spare_core`) and more
    than one chunk, a :class:`~conic_purge._cores.Worker` draws the
    chunks ahead, each with one ``rng.random(out=...)``, which releases
    the GIL, into a ring of ``_MC_RING`` buffers made here; it is handed
    the next buffer to fill, and hands back each filled one, or its
    error, through two ``queue.SimpleQueue``.  A draw's error is raised
    here when its chunk is asked for, as the inline draw would raise it.
    Otherwise each chunk is drawn here, into one buffer.  The draws, and
    so the generator's end state after the last chunk, are the same
    either way.  Closing the generator, early or at the end, tells the
    worker to stop and waits for it.
    """
    sizes = [3 * min(_MC_CHUNK, samples - start)
             for start in range(0, samples, _MC_CHUNK)]
    if len(sizes) < 2 or not _cores.spare_core():
        flat = np.empty(3 * _MC_CHUNK)
        for i, size in enumerate(sizes):
            yield i * _MC_CHUNK, rng.random(out=flat[:size]).reshape(-1, 3)
        return
    ring = [np.empty(3 * _MC_CHUNK) for _ in range(min(_MC_RING, len(sizes)))]
    to_fill, filled = queue.SimpleQueue(), queue.SimpleQueue()

    def draw_ahead():
        try:
            while (out := to_fill.get()) is not None:
                rng.random(out=out)
                filled.put(out)
        except BaseException as exc:  # raised where its chunk is asked for
            filled.put(exc)

    for i, buf in enumerate(ring):
        to_fill.put(buf[:sizes[i]])
    with _cores.Worker(draw_ahead, stop=lambda: to_fill.put(None)):
        for i in range(len(sizes)):
            out = filled.get()
            if isinstance(out, BaseException):
                raise out
            yield i * _MC_CHUNK, out.reshape(-1, 3)
            # the caller is done with chunk i: its buffer takes chunk i + R
            if i + len(ring) < len(sizes):
                to_fill.put(ring[i % len(ring)][:sizes[i + len(ring)]])


def _monte_carlo_counts(fit: EllipsoidParams, truth: EllipsoidParams,
                        samples: int, seed: int) -> tuple[int, int]:
    """Of ``samples`` seeded uniform points in the union bounding box, those
    in the symmetric difference and those in ``truth``.

    The points are exactly those of one ``rng.uniform(lo, hi, size=(samples,
    3))``, which numpy computes element by element, in C order, as
    ``lo + (hi - lo) * u`` from one ``rng.random`` draw ``u``; the counts
    are those of testing all of them with ellipsoid_contains.  Each point
    belongs to the cell of its u (:func:`_cell_table`).  A cell that both
    models certify (:func:`_certified_cells`) adds its draw count with its
    certified inside/outside flags; only the points of the other cells are
    tested, gathered from the chunked draw in draw order into full chunks.
    The chunks come from :func:`_drawn_chunks`, which draws them ahead on
    a worker thread when a core is spare; the counting runs here either
    way, in the same order.
    """
    lo, hi = _union_box(fit, truth, _ellipsoid_halfwidths)
    span = hi - lo
    if not np.isfinite(span).all():
        raise OverflowError("Range exceeds valid bounds")
    rng = np.random.default_rng(seed)
    edges = _cell_edges(lo, span)
    fit_in, fit_out = _certified_cells(fit, edges)
    truth_in, truth_out = _certified_cells(truth, edges)
    known = (fit_in | fit_out) & (truth_in | truth_out)
    tested = ~known
    table = _cell_table(samples, repr(rng.bit_generator.state))
    filled = table.counts is not None
    # the bounds tiled to a chunk's flat length: no ufunc loops over rows of 3
    lo_flat, span_flat = np.tile(lo, _MC_CHUNK), np.tile(span, _MC_CHUNK)
    batch = np.empty((_MC_CHUNK, 3))
    n_diff = n_truth = held = 0

    def test_batch():
        pts = batch[:held]
        u = pts.reshape(-1)
        u *= span_flat[:3 * held]
        u += lo_flat[:3 * held]
        in_fit = ellipsoid_contains(fit, pts)
        in_truth = ellipsoid_contains(truth, pts)
        return (int(np.count_nonzero(in_fit ^ in_truth)),
                int(np.count_nonzero(in_truth)))

    # chunked draws continue the one stream
    with contextlib.closing(_drawn_chunks(rng, samples)) as chunks:
        for start, u in chunks:
            ids = table.ids[start:start + len(u)]
            if not filled:
                # u * _MC_GRID and its floor are exact, and so is the dot
                # product of these small integers
                ids[...] = np.floor(u * _MC_GRID) @ _MC_CELL_WEIGHTS
            # take indexes a uint16 array at half the cost of tested[ids]
            rows = np.flatnonzero(np.take(tested, ids))
            while rows.size:
                take = rows[:_MC_CHUNK - held]
                np.take(u, take, axis=0, out=batch[held:held + take.size])
                held += take.size
                rows = rows[take.size:]
                if held == _MC_CHUNK:
                    diff, inside = test_batch()
                    n_diff, n_truth, held = n_diff + diff, n_truth + inside, 0
    if held:
        diff, inside = test_batch()
        n_diff, n_truth = n_diff + diff, n_truth + inside
    if not filled:
        counts = np.zeros(_MC_GRID ** 3, dtype=np.int64)
        # in blocks: bincount widens its whole input to intp
        for start in range(0, samples, 16 * _MC_CHUNK):
            counts += np.bincount(table.ids[start:start + 16 * _MC_CHUNK],
                                  minlength=_MC_GRID ** 3)
        table.ids.flags.writeable = False
        counts.flags.writeable = False
        table.counts = counts
    n_diff += int(table.counts @ (known & (fit_in ^ truth_in)))
    n_truth += int(table.counts @ (known & truth_in))
    return n_diff, n_truth


def nonoverlap_ratio(fit, truth, resolution: int = 512,
                     mc_samples: int = 1_000_000, seed: int = 0) -> float:
    """Symmetric-difference area (volume) of fit vs truth over the truth's.

    2-D is an exact count of the resolution x resolution grid cell centres
    over the union bounding box: per grid column the cells inside each
    ellipse form an interval of rows, counted by arithmetic, and only the
    cells within a few rows of an interval end are tested one by one.
    3-D counts seeded uniform Monte Carlo points in the union bounding box,
    exactly those of one full-size ``rng.uniform`` draw, drawn in chunks.
    The unit cube the draws come from is cut into 32^3 cells, each a box
    of points; a cell that both models certify inside or outside, with a
    margin for rounding, is counted from a cached per-cell count of the
    draws, and only the points of the other cells (about one in seven for
    a close fit) are tested.  Where numpy's OpenBLAS leaves a CPU free, a
    worker thread, a reused thread of the helper of every overlap
    (:class:`~conic_purge._cores.Worker`), draws the chunks ahead while
    the caller counts, and is stopped and waited for before this returns
    or raises.  The values, and the end state of a Generator passed as
    ``seed``, are those of testing every cell (every point) of one draw
    at once.
    Identical models give exactly 0, disjoint models (area_fit +
    area_truth) / area_truth.
    """
    resolution = typed_number(int, resolution, "resolution")
    mc_samples = typed_number(int, mc_samples, "mc_samples")
    if isinstance(fit, EllipseParams) and isinstance(truth, EllipseParams):
        if resolution < 64:
            raise ValueError("resolution must be at least 64 cells per axis")
        n_diff, n_truth = _grid_counts(fit, truth, resolution)
    elif isinstance(fit, EllipsoidParams) and isinstance(truth, EllipsoidParams):
        if mc_samples < 1_000_000:
            raise ValueError("need at least 1e6 Monte Carlo samples")
        n_diff, n_truth = _monte_carlo_counts(fit, truth, mc_samples, seed)
    else:
        raise ValueError("fit and truth must both be ellipses or both ellipsoids")
    if n_truth == 0:
        raise ValueError("truth model not resolved; increase resolution/samples")
    return float(n_diff) / n_truth
