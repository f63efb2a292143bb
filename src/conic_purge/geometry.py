"""Ellipse/ellipsoid representations, conversions and deviation measures.

Parametric forms (center, semi-axes, orientation) describe the shapes;
algebraic forms (unit-norm coefficient vectors of the implicit polynomial)
are what the fitting routines produce.  Conversions between the two are
exact up to floating point round-off.  The coefficient format and the one
ellipse/ellipsoid interior test live here; the fitters use both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotAnEllipse, NotAnEllipsoid

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


def _is_ellipse(values: np.ndarray):
    """B^2 - 4AC < 0 for a (6,) conic or each row of an (S, 6) stack."""
    a, b, c = values[..., 0], values[..., 1], values[..., 2]
    return b * b - 4.0 * a * c < 0.0


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
        cx, cy = obj["center"]
        a, b = obj["semi_axes"]
        return cls(float(cx), float(cy), float(a), float(b),
                   float(obj.get("rotation", 0.0)))


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
        rot = obj.get("orientation")
        rot = np.eye(3) if rot is None else np.asarray(rot, dtype=float).reshape(3, 3)
        return cls(np.asarray(obj["center"], dtype=float),
                   np.asarray(obj["semi_axes"], dtype=float), rot)


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
