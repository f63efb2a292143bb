import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_geometry as ref
from conic_purge import (ConicCoeffs, EllipseParams, EllipsoidParams,
                         NotAnEllipse, NotAnEllipsoid, QuadricCoeffs,
                         conic_from_ellipse, ellipse_from_conic,
                         ellipsoid_from_quadric, nonoverlap_ratio,
                         quadric_from_ellipsoid, sampson_distance)
from conic_purge.geometry import (_coeffs_from_matrix, _interior,
                                  _matrix_from_coeffs,
                                  ellipse_boundary_points,
                                  ellipsoid_boundary_points, signed_residuals)

from conftest import random_ellipse, random_ellipsoid, random_rotation


UNIT_CIRCLE = EllipseParams(0.0, 0.0, 1.0, 1.0, 0.0)


class TestConicFromEllipse:
    def test_unit_circle(self):
        coeffs = conic_from_ellipse(UNIT_CIRCLE).values
        expected = np.array([1.0, 0, 1.0, 0, 0, -1.0])
        assert np.allclose(coeffs, expected / np.linalg.norm(expected))

    def test_boundary_points_vanish(self):
        e = EllipseParams(0.0, 0.0, 5.0, 1.56125, 0.0)
        coeffs = conic_from_ellipse(e)
        pts = ellipse_boundary_points(e, np.linspace(0.3, 5.9, 5))
        x, y = pts[:, 0], pts[:, 1]
        a, b, c, d, ee, f = coeffs.values
        residuals = a * x * x + b * x * y + c * y * y + d * x + ee * y + f
        assert np.abs(residuals).max() < 1e-12
        assert np.allclose(
            coeffs.values[[0, 2, 5]] / coeffs.values[0],
            [1.0, 25.0 / 1.56125 ** 2, -25.0])

    def test_unit_norm_and_ellipse_flag(self, rng):
        for _ in range(20):
            coeffs = conic_from_ellipse(random_ellipse(rng))
            assert math.isclose(np.linalg.norm(coeffs.values), 1.0)
            assert coeffs.is_ellipse


class TestEllipseFromConic:
    def test_unit_circle(self):
        e = ellipse_from_conic(ConicCoeffs(np.array([1, 0, 1, 0, 0, -1.0])))
        assert math.isclose(e.a, 1.0) and math.isclose(e.b, 1.0)
        assert abs(e.center_x) < 1e-15 and abs(e.center_y) < 1e-15

    def test_parabola_rejected(self):
        with pytest.raises(NotAnEllipse):
            ellipse_from_conic(ConicCoeffs(np.array([1, 0, 0, 0, -1, 0.0])))

    def test_imaginary_rejected(self):
        # x^2 + y^2 + 1 = 0 has no real points
        with pytest.raises(NotAnEllipse):
            ellipse_from_conic(ConicCoeffs(np.array([1, 0, 1, 0, 0, 1.0])))

    def test_round_trip_100_random(self, rng):
        for _ in range(100):
            e = random_ellipse(rng)
            back = ellipse_from_conic(conic_from_ellipse(e))
            assert math.isclose(back.a, e.a, rel_tol=1e-9)
            assert math.isclose(back.b, e.b, rel_tol=1e-9)
            assert abs(back.center_x - e.center_x) < 1e-9 * (1 + abs(e.center_x))
            assert abs(back.center_y - e.center_y) < 1e-9 * (1 + abs(e.center_y))
            if e.b < 0.999 * e.a:  # rotation undefined for circles
                assert abs(back.theta - e.theta) < 1e-9


class TestQuadricConversions:
    def test_unit_sphere(self):
        sphere = EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))
        coeffs = quadric_from_ellipsoid(sphere).values
        expected = np.array([1, 1, 1, 0, 0, 0, 0, 0, 0, -1.0])
        assert np.allclose(coeffs, expected / np.linalg.norm(expected))

    def test_axis_aligned_543(self):
        e = EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]), np.eye(3))
        coeffs = quadric_from_ellipsoid(e)
        scaled = coeffs.values / coeffs.values[0]
        assert np.allclose(scaled[:3], [1.0, 25.0 / 16.0, 25.0 / 9.0])
        assert np.allclose(scaled[3:9], 0.0, atol=1e-15)
        assert math.isclose(scaled[9], -25.0)
        u = np.linspace(0.1, 5.9, 9)
        v = np.linspace(-1.4, 1.4, 9)
        pts = ellipsoid_boundary_points(e, u, v)
        res = signed_residuals(pts, coeffs) * 1.0  # gradient-normalized
        assert np.abs(res).max() < 1e-12

    def test_round_trip_100_random(self, rng):
        for _ in range(100):
            e = random_ellipsoid(rng)
            back = ellipsoid_from_quadric(quadric_from_ellipsoid(e))
            assert np.allclose(back.semi_axes, e.semi_axes, rtol=1e-9)
            assert np.allclose(back.center, e.center, atol=1e-9 * 10)
            # orientation agrees up to per-axis sign
            dots = np.abs(np.sum(back.orientation * e.orientation, axis=0))
            assert np.allclose(dots, 1.0, atol=1e-9)
            again = quadric_from_ellipsoid(back)
            assert np.allclose(again.values,
                               quadric_from_ellipsoid(e).values, atol=1e-12)

    def test_hyperboloid_rejected(self):
        from conic_purge import NotAnEllipsoid
        with pytest.raises(NotAnEllipsoid):
            ellipsoid_from_quadric(
                QuadricCoeffs(np.array([1, 1, -1, 0, 0, 0, 0, 0, 0, -1.0])))


class TestSampsonDistance:
    def test_point_on_conic_is_zero(self):
        coeffs = conic_from_ellipse(UNIT_CIRCLE)
        assert sampson_distance(np.array([1.0, 0.0]), coeffs) == 0.0

    def test_hand_value_outside_unit_circle(self):
        # residual 3, gradient norm 4 for x^2+y^2-1 at (2,0)
        coeffs = ConicCoeffs(np.array([1, 0, 1, 0, 0, -1.0]))
        assert math.isclose(sampson_distance(np.array([2.0, 0.0]), coeffs), 0.75)

    def test_first_order_accuracy(self):
        coeffs = ConicCoeffs(np.array([1, 0, 1, 0, 0, -1.0]))
        h = 1e-4
        d = sampson_distance(np.array([1.0 + h, 0.0]), coeffs)
        assert abs(d - h) < 1e-7

    def test_scale_invariance(self):
        raw = np.array([1, 0, 1, 0, 0, -1.0])
        p = np.array([2.0, 0.5])
        assert math.isclose(float(np.abs(signed_residuals(p, raw))[0]),
                            float(np.abs(signed_residuals(p, raw * 10.0))[0]))

    def test_vanishing_gradient_gives_inf(self):
        coeffs = ConicCoeffs(np.array([1, 0, 1, 0, 0, -1.0]))
        assert sampson_distance(np.array([0.0, 0.0]), coeffs) == math.inf

    def test_batch_shape(self, rng):
        coeffs = conic_from_ellipse(random_ellipse(rng))
        pts = rng.normal(size=(17, 2))
        out = sampson_distance(pts, coeffs)
        assert out.shape == (17,) and (out >= 0).all()


class TestSignedResidualStack:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_rows_equal_single_model_calls(self, rng, dim):
        if dim == 2:
            models = [conic_from_ellipse(random_ellipse(rng)).values
                      for _ in range(5)]
        else:
            models = [quadric_from_ellipsoid(random_ellipsoid(rng)).values
                      for _ in range(5)]
        # a zero row and a model whose gradient vanishes at the origin,
        # where the residual is negative: the +/-inf rules per row
        models[1] = np.zeros_like(models[1])
        models[3] = np.eye(len(models[3]))[0] - np.eye(len(models[3]))[-1]
        pts = np.vstack([np.zeros(dim), rng.normal(0.0, 4.0, (30, dim))])
        stack = signed_residuals(pts, np.array(models))
        assert stack.shape == (5, 31)
        for row, model in zip(stack, models):
            assert np.array_equal(row, signed_residuals(pts, model))
        assert np.isposinf(stack[1]).all()
        assert stack[3, 0] == -math.inf

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            signed_residuals(np.zeros((4, 2)), np.zeros((3, 7)))
        with pytest.raises(ValueError):
            signed_residuals(np.zeros((4, 2)), np.zeros((2, 3, 6)))
        with pytest.raises(ValueError):
            signed_residuals(np.zeros((4, 2)), np.zeros((3, 10)))


class TestNonoverlapRatio:
    def test_identical_is_zero(self):
        e = EllipseParams(1.0, 2.0, 3.0, 2.0, 0.4)
        assert nonoverlap_ratio(e, e) <= 5e-3

    def test_concentric_double_circle(self):
        fit = EllipseParams(0.0, 0.0, 2.0, 2.0, 0.0)
        ratio = nonoverlap_ratio(fit, UNIT_CIRCLE)
        assert abs(ratio - 3.0) < 2e-2

    def test_disjoint(self):
        fit = EllipseParams(10.0, 0.0, 2.0, 1.0, 0.0)
        truth = EllipseParams(0.0, 0.0, 1.0, 1.0, 0.0)
        expected = (fit.area + truth.area) / truth.area
        assert abs(nonoverlap_ratio(fit, truth) - expected) < 2e-2

    def test_nested(self):
        fit = EllipseParams(0.0, 0.0, 1.5, 1.5, 0.0)
        expected = abs(fit.area - UNIT_CIRCLE.area) / UNIT_CIRCLE.area
        assert abs(nonoverlap_ratio(fit, UNIT_CIRCLE) - expected) < 2e-2

    def test_symmetry_up_to_renormalization(self, rng):
        f, t = random_ellipse(rng), random_ellipse(rng)
        lhs = nonoverlap_ratio(f, t) * t.area
        rhs = nonoverlap_ratio(t, f) * f.area
        assert abs(lhs - rhs) < 2e-2 * max(t.area, f.area)

    def test_3d_identical_and_nested(self):
        sphere = EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))
        assert nonoverlap_ratio(sphere, sphere) == 0.0
        bigger = EllipsoidParams(np.zeros(3), np.full(3, 1.3), np.eye(3))
        expected = 1.3 ** 3 - 1.0
        assert abs(nonoverlap_ratio(bigger, sphere) - expected) < 2e-2

    def test_resolution_validated(self):
        with pytest.raises(ValueError):
            nonoverlap_ratio(UNIT_CIRCLE, UNIT_CIRCLE, resolution=32)

    def test_mixed_dimensions_rejected(self):
        sphere = EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))
        with pytest.raises(ValueError):
            nonoverlap_ratio(UNIT_CIRCLE, sphere)


class TestParamInvariants:
    def test_ellipse_validation(self):
        with pytest.raises(ValueError):
            EllipseParams(0, 0, 1.0, 2.0, 0.0)  # a < b
        with pytest.raises(ValueError):
            EllipseParams(0, 0, 1.0, 0.0, 0.0)  # b = 0
        with pytest.raises(ValueError):
            EllipseParams(0, 0, 1.0, 1.0, math.pi)  # theta out of range

    def test_ellipsoid_validation(self):
        with pytest.raises(ValueError):
            EllipsoidParams(np.zeros(3), np.array([1.0, 2.0, 3.0]), np.eye(3))
        flipped = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            EllipsoidParams(np.zeros(3), np.array([3.0, 2.0, 1.0]), flipped)

    def test_json_round_trip(self, rng):
        e = random_ellipse(rng)
        back = EllipseParams.from_json_dict(e.to_json_dict())
        assert math.isclose(back.a, e.a) and math.isclose(back.theta, e.theta)
        s = random_ellipsoid(rng)
        back3 = EllipsoidParams.from_json_dict(s.to_json_dict())
        assert np.allclose(back3.orientation, s.orientation)


def _output(func, *args):
    """The bytes func(*args) returns, or the type of what it raised."""
    try:
        out = func(*args)
    except Exception as exc:  # the raised type is the outcome
        return type(exc)
    if isinstance(out, (ConicCoeffs, QuadricCoeffs)):
        return out.values.tobytes()
    if isinstance(out, EllipseParams):
        return np.array([out.center_x, out.center_y, out.a, out.b,
                         out.theta]).tobytes()
    if isinstance(out, EllipsoidParams):
        return (out.center.tobytes() + out.semi_axes.tobytes()
                + out.orientation.tobytes())
    return out


def _below_rank_floor(coeffs) -> bool:
    """The quadratic part's smallest eigenvalue is at or below numpy's
    matrix_rank tolerance, dim * eps * max|eigenvalue|."""
    values = coeffs.values
    dim = 2 if values.shape[0] == 6 else 3
    evals = np.linalg.eigh(
        _matrix_from_coeffs(values[None])[:, :dim, :dim])[0][0]
    return bool(evals[0] <= dim * np.finfo(float).eps * np.abs(evals).max())


def _assert_same_output(func, ref_func, arg, rejected):
    """func(arg) reproduces the reference.  Where the reference leaked a
    non-library error, for an overflowing semi-axis (ValueError) or an
    exactly singular quadratic part (LinAlgError), it now rejects.  It also
    rejects what the reference accepted with a quadratic part whose
    smallest eigenvalue cannot be told from zero."""
    with np.errstate(all="ignore"):
        expected = _output(ref_func, arg)
    if expected in (ValueError, np.linalg.LinAlgError):
        expected = rejected
    elif expected is not rejected and _below_rank_floor(arg):
        expected = rejected
    assert _output(func, arg) == expected


def _random_ellipse(rng) -> EllipseParams:
    a = 10.0 ** rng.uniform(-3.0, 3.0)
    b = a * 10.0 ** rng.uniform(-3.0, 0.0)
    center = rng.uniform(-1.0, 1.0, 2) * 10.0 ** rng.uniform(-3.0, 3.0)
    theta = rng.uniform(-math.pi / 2, math.pi / 2)
    return EllipseParams(center[0], center[1], a, b, theta)


def _random_ellipsoid(rng) -> EllipsoidParams:
    axes = np.sort(10.0 ** rng.uniform(-3.0, 3.0, 3))[::-1]
    center = rng.uniform(-1.0, 1.0, 3) * 10.0 ** rng.uniform(-3.0, 3.0)
    return EllipsoidParams(center, axes, random_rotation(rng))


def _random_row(rng, dim: int, kind: str) -> np.ndarray:
    """A coefficient row of any conic (dim 2) or quadric (dim 3) type."""
    width = 6 if dim == 2 else 10
    if kind == "normal":  # ellipses, hyperbolas, imaginary ellipses, ...
        row = rng.normal(size=width)
    elif kind == "integer":  # circles, parabolas, line pairs, cylinders
        row = rng.integers(-2, 3, width).astype(float)
    elif kind == "imaginary":
        row = _coeffs_from_matrix(np.diag(np.r_[rng.uniform(0.1, 1.0, dim),
                                                rng.uniform(0.1, 1.0)]))
    elif kind == "singular":  # a rank-deficient quadratic part
        vecs = rng.integers(-2, 3, (dim - 1, dim)).astype(float)
        mat = np.zeros((dim + 1, dim + 1))
        mat[:dim, :dim] = vecs.T @ vecs
        mat[dim, :] = mat[:, dim] = rng.normal(size=dim + 1)
        row = _coeffs_from_matrix(mat)
    else:
        model = _random_ellipse(rng) if dim == 2 else _random_ellipsoid(rng)
        row = (conic_from_ellipse(model) if dim == 2
               else quadric_from_ellipsoid(model)).values.copy()
        if kind == "overflow":  # axis-aligned, one axis beyond float range
            row[[1] if dim == 2 else [3, 4, 5]] = 0.0
            row[rng.integers(dim) * (2 if dim == 2 else 1)] = \
                10.0 ** rng.uniform(-320.0, -300.0)
        else:
            row *= 1.0 + rng.normal(0.0, 1e-3, width)
    if not row.any():
        row[-1] = 1.0
    return row


class TestConversionsMatchReference:
    """The table-driven conversions and the one interior test reproduce
    the hand-written ones bit for bit, failures too."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_ellipse_round_trip(self, seed):
        e = _random_ellipse(np.random.default_rng(seed))
        conic = conic_from_ellipse(e)
        assert (conic.values.tobytes()
                == ref.conic_from_ellipse(e).values.tobytes())
        _assert_same_output(ellipse_from_conic, ref.ellipse_from_conic, conic,
                            NotAnEllipse)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_ellipsoid_round_trip(self, seed):
        e = _random_ellipsoid(np.random.default_rng(seed))
        quadric = quadric_from_ellipsoid(e)
        assert (quadric.values.tobytes()
                == ref.quadric_from_ellipsoid(e).values.tobytes())
        _assert_same_output(ellipsoid_from_quadric, ref.ellipsoid_from_quadric,
                            quadric, NotAnEllipsoid)
        assert quadric.is_ellipsoid is ref.is_ellipsoid(quadric)

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           kind=st.sampled_from(["normal", "integer", "imaginary",
                                 "singular", "near", "overflow"]))
    def test_coefficient_rows(self, seed, dim, kind):
        row = _random_row(np.random.default_rng(seed), dim, kind)
        if dim == 2:
            _assert_same_output(ellipse_from_conic, ref.ellipse_from_conic,
                                ConicCoeffs(row), NotAnEllipse)
        else:
            quadric = QuadricCoeffs(row)
            _assert_same_output(ellipsoid_from_quadric,
                                ref.ellipsoid_from_quadric, quadric,
                                NotAnEllipsoid)
            _assert_same_output(lambda q: q.is_ellipsoid, ref.is_ellipsoid,
                                quadric, False)


class TestInteriorTest:
    def test_overflowing_axis_is_rejected(self):
        # the semi-axis sqrt(-k / 1e-310) overflows to inf
        conic = ConicCoeffs(np.array([1, 0, 1e-310, 0, 0, -1.0]))
        with pytest.raises(NotAnEllipse):
            ellipse_from_conic(conic)
        q = QuadricCoeffs(np.array([1, 1, 1e-310, 0, 0, 0, 0, 0, 0, -1.0]))
        assert q.is_ellipsoid is False
        with pytest.raises(NotAnEllipsoid):
            ellipsoid_from_quadric(q)

    def test_exactly_singular_quadratic_part_is_rejected(self):
        # an elliptic cylinder: eigh finds a tiny positive eigenvalue, but
        # the LU of the solve meets an exact zero pivot
        q = QuadricCoeffs(np.array([2, 2, 1, 0, 2, 2, 0, 0, 0, -1.0]))
        assert q.is_ellipsoid is False
        with pytest.raises(NotAnEllipsoid):
            ellipsoid_from_quadric(q)

    def test_elliptic_cylinder_is_rejected(self):
        # rank 2: eigh rounds the zero eigenvalue to a tiny positive one
        q = QuadricCoeffs(np.array([2, 5, 2, 6, 0, -2, 0, 0, 0, -1.0]))
        assert ref.is_ellipsoid(q) is True
        assert q.is_ellipsoid is False
        with pytest.raises(NotAnEllipsoid):
            ellipsoid_from_quadric(q)

    def test_rank_two_quadratic_parts_are_rejected(self):
        # integer quadrics whose quadratic part has rank 2 exactly: the
        # determinant of twice the matrix is 0 and its adjugate is not
        rng = np.random.default_rng(11)
        quad = rng.integers(-6, 7, (600_000, 6))
        a, b, c, d, e, f = quad.T
        minors = np.stack([4 * b * c - f * f, 4 * a * c - e * e,
                           4 * a * b - d * d, 2 * c * d - e * f,
                           2 * b * e - d * f, 2 * a * f - d * e])
        det = 2 * a * minors[0] - d * minors[3] - e * minors[4]
        quad = quad[(det == 0) & minors.any(axis=0)][:4000]
        assert len(quad) == 4000
        rows = np.column_stack([quad, rng.integers(-3, 4, (4000, 3)),
                                -np.ones(4000)]).astype(float)
        quadrics = [QuadricCoeffs(row) for row in rows]
        # a plain sign test on the smallest eigenvalue accepts some of them
        with np.errstate(all="ignore"):
            assert any(_output(ref.is_ellipsoid, q) is True for q in quadrics)
        assert not any(q.is_ellipsoid for q in quadrics)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_rows_match_one_row_tests(self, rng, dim):
        kinds = ["near", "normal", "integer", "imaginary", "singular",
                 "overflow"] * 4
        rows = np.array([_random_row(rng, dim, kind) for kind in kinds])
        rows /= np.linalg.norm(rows, axis=1)[:, None]
        ok = _interior(rows)[0]
        for row, passed in zip(rows, ok):
            single = _interior(row[None])[0][0]
            assert passed == single
            if dim == 3:
                assert QuadricCoeffs(row).is_ellipsoid is bool(passed)
        assert ok.any() and not ok.all()

    @pytest.mark.parametrize("width", [6, 10])
    def test_table_round_trip(self, rng, width):
        rows = rng.normal(size=(7, width))
        mat = _matrix_from_coeffs(rows)
        assert np.array_equal(mat, np.swapaxes(mat, 1, 2))
        assert np.array_equal(_coeffs_from_matrix(mat), rows)
        assert np.array_equal(_matrix_from_coeffs(rows[0]), mat[0])
