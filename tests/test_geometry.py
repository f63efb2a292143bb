import math

import numpy as np
import pytest

from conic_purge import (ConicCoeffs, EllipseParams, EllipsoidParams,
                         NotAnEllipse, QuadricCoeffs, conic_from_ellipse,
                         ellipse_from_conic, ellipsoid_from_quadric,
                         nonoverlap_ratio, quadric_from_ellipsoid,
                         sampson_distance)
from conic_purge.geometry import (ellipse_boundary_points,
                                  ellipsoid_boundary_points, signed_residuals)

from conftest import random_ellipse, random_ellipsoid


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
