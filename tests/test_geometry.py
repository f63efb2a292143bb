import contextlib
import itertools
import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_geometry as ref
from conic_purge import (ConicCoeffs, EllipseParams, EllipsoidParams,
                         NotAnEllipse, NotAnEllipsoid, QuadricCoeffs,
                         conic_from_ellipse, ellipse_from_conic,
                         ellipse_from_eccentricity,
                         ellipsoid_from_quadric, nonoverlap_ratio,
                         quadric_from_ellipsoid, sampson_distance)
from conic_purge import _cores, geometry
from conic_purge.geometry import (_MC_CHUNK, _coeffs_from_matrix, _interior,
                                  _matrix_from_coeffs,
                                  _monte_carlo_counts, _normalize_coeff_rows,
                                  _normalize_coeffs,
                                  ellipse_boundary_points,
                                  ellipsoid_boundary_points,
                                  ellipsoid_contains, signed_residuals)

from conftest import (random_ellipse, random_ellipsoid, random_rotation,
                      warm_pool)


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


@st.composite
def residual_cases(draw):
    """Points and an (S, 6) or (S, 10) model stack for signed_residuals.

    Random rows with some replaced: zero rows, rows with a NaN or an
    infinite coefficient, a circle or sphere centred on the point at the
    origin (zero gradient, negative residual), a degenerate x^2 row (zero
    gradient and zero residual there), and a row whose residual at the
    origin is -0.0; the points may be scaled until the squares overflow or
    underflow.
    """
    dim = draw(st.sampled_from([2, 3]))
    width = 6 if dim == 2 else 10
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    count = draw(st.integers(1, 12))
    models = rng.normal(size=(count, width)) * 10.0 ** rng.uniform(
        -3.0, 3.0, (count, 1))
    squares = np.zeros(width)
    squares[:dim] = 1.0
    negative_zero = -np.abs(rng.normal(size=width)) - 0.5
    negative_zero[-1] = -0.0
    special = {"zero": np.zeros(width), "circle": squares - np.eye(width)[-1],
               "x^2": np.eye(width)[0], "-0": negative_zero}
    for i in range(count):
        kind = draw(st.sampled_from(["random"] * 4 + sorted(special)
                                    + ["NaN", "inf", "-inf"]))
        if kind in special:
            models[i] = special[kind]
        elif kind != "random":
            models[i, rng.integers(width)] = float(kind)
    n = draw(st.integers(1, 40))
    pts = rng.normal(0.0, 3.0, (n, dim))
    pts[0] = 0.0
    pts *= 2.0 ** draw(st.sampled_from([0, 0, -300, -600, 300, 600]))
    return pts, models


class TestSignedResidualsMatchReference:
    """The unmasked divide with its +/-inf fixes gives the bits of the
    masked divide it replaced, for stacks and single models."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=residual_cases())
    def test_bit_identical(self, case):
        pts, models = case
        # (a NaN's sign may differ between a stack row and the same model
        # alone, in both implementations)
        with np.errstate(all="ignore"):
            assert signed_residuals(pts, models).tobytes() == \
                ref.signed_residuals(pts, models).tobytes()
            for model in models:
                assert signed_residuals(pts, model).tobytes() == \
                    ref.signed_residuals(pts, model).tobytes()

    def test_special_entries(self):
        # zero gradient: -inf inside (negative residual), +inf where the
        # residual is 0 too; a -0.0 residual keeps its sign
        pts = np.zeros((1, 2))
        circle = np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0])
        square = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])
        negative_zero = np.array([-1.0, -1.0, -1.0, -1.0, -1.0, -0.0])
        out = signed_residuals(pts, np.array([circle, square,
                                              negative_zero]))[:, 0]
        assert out[0] == -math.inf and out[1] == math.inf
        assert out[2] == 0.0 and math.copysign(1.0, out[2]) == -1.0


class TestNonoverlapRatio:
    def test_identical_is_zero(self):
        for e in (EllipseParams(1.0, 2.0, 3.0, 2.0, 0.4),
                  EllipseParams(-3.0, 7.0, 8.0, 8e-3, 1.1)):  # thin, turned
            assert nonoverlap_ratio(e, e) == 0.0

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

    def test_whole_float_counts_taken_as_int(self):
        fit = EllipseParams(0.1, 0.0, 1.2, 0.9, 0.3)
        assert nonoverlap_ratio(fit, UNIT_CIRCLE, resolution=100.0) == \
            nonoverlap_ratio(fit, UNIT_CIRCLE, resolution=100)
        sphere = EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))
        bigger = EllipsoidParams(np.zeros(3), np.full(3, 1.3), np.eye(3))
        assert nonoverlap_ratio(bigger, sphere, mc_samples=1e6) == \
            nonoverlap_ratio(bigger, sphere, mc_samples=1_000_000)

    @pytest.mark.parametrize("value", [True, np.True_, 1_000_000.5])
    @pytest.mark.parametrize("count", ["resolution", "mc_samples"])
    def test_counts_must_be_whole(self, count, value):
        with pytest.raises(ValueError,
                           match=rf"^{count} .* is not an integer$"):
            nonoverlap_ratio(UNIT_CIRCLE, UNIT_CIRCLE, **{count: value})

    def test_mixed_dimensions_rejected(self):
        sphere = EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))
        with pytest.raises(ValueError):
            nonoverlap_ratio(UNIT_CIRCLE, sphere)


def _ratio_or_error(func, *args, **kwargs):
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        return ValueError, str(exc)


def _turned(theta: float) -> float:
    return (theta + math.pi / 2) % math.pi - math.pi / 2


def _ellipse_pair(rng, kind: str, resolution: int):
    """A (fit, truth) pair of ellipses: axis ratios 1e-3 to 1, any rotation,
    and ``kind`` placing the fit relative to the truth."""
    a = 10.0 ** rng.uniform(-1.0, 1.0)
    truth = EllipseParams(*rng.uniform(-10.0, 10.0, 2), a,
                          a * 10.0 ** rng.uniform(-3.0, 0.0),
                          rng.uniform(-math.pi / 2, math.pi / 2))
    if kind == "identical":
        return truth, truth
    if kind == "near":  # centre offsets up to 0.3a
        axes = sorted(np.array([truth.a, truth.b]) * rng.uniform(0.8, 1.25, 2),
                      reverse=True)
        return EllipseParams(*(truth.center + rng.uniform(-0.3, 0.3, 2) * a),
                             *axes, _turned(truth.theta
                                            + rng.normal(0.0, 0.1))), truth
    if kind == "nested":
        k = rng.choice([rng.uniform(0.3, 0.95), rng.uniform(1.05, 3.0)])
        return EllipseParams(truth.center_x, truth.center_y, k * truth.a,
                             k * truth.b, truth.theta), truth
    if kind == "disjoint":
        phi = rng.uniform(0.0, 2.0 * math.pi)
        shift = 2.5 * a * np.array([math.cos(phi), math.sin(phi)])
        return EllipseParams(*(truth.center + shift), a, truth.b,
                             _turned(truth.theta + phi)), truth
    if kind == "random":
        b = 10.0 ** rng.uniform(-1.0, 1.0)
        return EllipseParams(*rng.uniform(-10.0, 10.0, 2), b,
                             b * 10.0 ** rng.uniform(-3.0, 0.0),
                             rng.uniform(-math.pi / 2, math.pi / 2)), truth
    # tangent: a small truth inside a large fit's bounding box touches a
    # grid column with its leftmost or rightmost point; axis-aligned, that
    # point is also a cell centre
    fit = EllipseParams(0.0, 0.0, 10.0, rng.uniform(5.0, 10.0),
                        rng.uniform(-math.pi / 2, math.pi / 2))
    theta = rng.choice([0.0, rng.uniform(-math.pi / 2, math.pi / 2)])
    size = rng.uniform(0.05, 1.0)
    small = EllipseParams(0.0, 0.0, size, size * truth.b / a, theta)
    hw_fit, hw = ref._ellipse_halfwidths(fit), ref._ellipse_halfwidths(small)
    # the grid's cell centres, spelled as nonoverlap_ratio spells them
    xs, ys = (-hw_fit[:, None] + (np.arange(resolution) + 0.5)
              * (2.0 * hw_fit[:, None]) / resolution)
    col = rng.choice(np.flatnonzero(np.abs(xs) < 3.0))
    row = rng.choice(np.flatnonzero(np.abs(ys) < 3.0))
    side = rng.choice([-1.0, 1.0])
    return fit, EllipseParams(xs[col] + side * hw[0], ys[row], small.a,
                              small.b, theta)


# (a, b, c, d) with a^2 + b^2 + c^2 = d^2: a sphere of radius d s whose
# centre is (a, b, c) s off a point passes through it; with the centre on
# the same side of the point in every axis, the point is the farthest or
# the nearest corner of a cell that has it as a corner
_QUADRUPLES = [(1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9),
               (2, 6, 9, 11), (6, 6, 7, 11), (3, 4, 12, 13), (2, 5, 14, 15)]


def _ellipsoid_pair(rng, kind: str):
    """A (fit, truth) pair of ellipsoids, ``kind`` placing the fit relative
    to the truth; "far" pairs are small and up to 1e3 off the origin, "thin"
    ones have an axis ratio of 1e-3, and a "corner" truth is a sphere whose
    surface passes within a few ulp of a corner of the Monte Carlo cells."""
    if kind == "corner":
        # a radius-8 sphere at the origin makes the union box [-8, 8]^3,
        # whose cell edges are exact; the truth passes through a cell
        # corner up to the rounding of its centre and radius
        fit = EllipsoidParams(np.zeros(3), np.full(3, 8.0), np.eye(3))
        *legs, hyp = _QUADRUPLES[rng.integers(len(_QUADRUPLES))]
        scale = rng.uniform(0.05, 3.0 / hyp)
        corner = rng.integers(-2, 3, 3) * 0.5
        centre = corner + (rng.choice([-1.0, 1.0]) * scale
                           * rng.permutation(legs))
        rot = np.eye(3) if rng.random() < 0.8 else random_rotation(rng)
        return fit, EllipsoidParams(centre, np.full(3, hyp * scale), rot)
    if kind == "far":  # a large |lo| against a small span
        axes = np.sort(10.0 ** rng.uniform(-2.0, 0.0, 3))[::-1]
        truth = EllipsoidParams(rng.uniform(-1e3, 1e3, 3), axes,
                                random_rotation(rng))
        return EllipsoidParams(truth.center + rng.uniform(-0.3, 0.3, 3)
                               * axes[0], axes * rng.uniform(0.9, 1.1),
                               random_rotation(rng)), truth
    if kind == "thin":
        a = 10.0 ** rng.uniform(-1.0, 1.0)
        axes = a * np.array([1.0, 10.0 ** rng.uniform(-1.0, 0.0), 1e-3])
        truth = EllipsoidParams(rng.uniform(-5.0, 5.0, 3), axes,
                                random_rotation(rng))
        return EllipsoidParams(truth.center + rng.uniform(-0.5, 0.5, 3)
                               * axes[2], axes * rng.uniform(0.9, 1.1),
                               truth.orientation), truth
    axes = np.sort(10.0 ** rng.uniform(-1.0, 1.0, 3))[::-1]
    truth = EllipsoidParams(rng.uniform(-5.0, 5.0, 3), axes,
                            random_rotation(rng))
    if kind == "identical":
        return truth, truth
    if kind == "near":
        return EllipsoidParams(truth.center + rng.uniform(-0.3, 0.3, 3)
                               * axes[0], axes * rng.uniform(0.9, 1.1),
                               truth.orientation), truth
    if kind == "nested":
        return EllipsoidParams(truth.center, axes * rng.uniform(1.05, 2.0),
                               truth.orientation), truth
    if kind == "disjoint":
        return EllipsoidParams(truth.center + 2.5 * axes[0], axes,
                               random_rotation(rng)), truth
    return EllipsoidParams(rng.uniform(-5.0, 5.0, 3),
                           np.sort(10.0 ** rng.uniform(-1.0, 1.0, 3))[::-1],
                           random_rotation(rng)), truth


_ELLIPSOID_KINDS = ["identical", "near", "nested", "disjoint", "random",
                    "far", "thin", "corner"]


def _ulp_shell(rng, e: EllipsoidParams, n: int) -> np.ndarray:
    """Points on the boundary of ``e`` moved along their offset from the
    centre by -4 to 4 ulp: whether each is inside hangs on the last bit."""
    body = ellipsoid_boundary_points(
        e, rng.uniform(0.0, 2.0 * math.pi, n),
        rng.uniform(-math.pi / 2, math.pi / 2, n)) - e.center
    k = rng.integers(-4, 5, (n, 1))
    return e.center + body * (1.0 + k * np.finfo(float).eps)


class TestNonoverlapMatchesReference:
    """The per-column interval count (2-D) and the chunked Monte Carlo
    count (3-D) give the float of testing every cell or point at once,
    errors too."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["identical", "near", "nested", "disjoint",
                                 "random", "tangent"]),
           resolution=st.sampled_from([64, 97, 512]))
    def test_ellipse_pairs(self, seed, kind, resolution):
        fit, truth = _ellipse_pair(np.random.default_rng(seed), kind,
                                   resolution)
        got = _ratio_or_error(nonoverlap_ratio, fit, truth,
                              resolution=resolution)
        assert got == _ratio_or_error(ref.nonoverlap_ratio, fit, truth,
                                      resolution=resolution)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(_ELLIPSOID_KINDS),
           samples=st.sampled_from([1_000_000, 1_012_345]))
    def test_ellipsoid_pairs(self, seed, kind, samples):
        fit, truth = _ellipsoid_pair(np.random.default_rng(seed), kind)
        got = _ratio_or_error(nonoverlap_ratio, fit, truth,
                              mc_samples=samples, seed=seed)
        assert got == _ratio_or_error(ref.nonoverlap_ratio, fit, truth,
                                      mc_samples=samples, seed=seed)

    @pytest.mark.parametrize("args, kwargs", [
        ((UNIT_CIRCLE, UNIT_CIRCLE), {"resolution": 63}),
        ((UNIT_CIRCLE, UNIT_CIRCLE), {"resolution": 0}),
        ((EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3)),) * 2,
         {"mc_samples": 999_999}),
        ((UNIT_CIRCLE, EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))),
         {}),
        ((EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3)), UNIT_CIRCLE),
         {}),
        ((EllipseParams(0.0, 0.0, 10.0, 10.0, 0.0),
          EllipseParams(0.0, 0.0, 1e-4, 1e-4, 0.0)), {}),
        ((EllipsoidParams(np.zeros(3), np.full(3, 10.0), np.eye(3)),
          EllipsoidParams(np.zeros(3), np.full(3, 1e-3), np.eye(3))), {}),
    ])
    def test_same_errors(self, args, kwargs):
        expected = _ratio_or_error(ref.nonoverlap_ratio, *args, **kwargs)
        assert expected[0] is ValueError
        assert _ratio_or_error(nonoverlap_ratio, *args, **kwargs) == expected

    def test_unbounded_box_overflows(self):
        # the bounding box of 1e200 axes is infinite: numpy's uniform refuses
        # its range, and so does the chunked draw
        big = EllipsoidParams(np.zeros(3), np.full(3, 1e200), np.eye(3))
        for func in (ref.nonoverlap_ratio, nonoverlap_ratio):
            with np.errstate(over="ignore"), pytest.raises(
                    OverflowError, match="Range exceeds valid bounds"):
                func(big, big)


class TestEllipsoidContainsMatchesReference:
    """ellipsoid_contains gives the booleans of the full-array expression
    in ``tests/reference_geometry.py``, element for element, on points a few
    ulp off the boundary (where a change in the order of rounding flips
    some) and on points of any layout."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_same_booleans(self, seed):
        rng = np.random.default_rng(seed)
        e = _random_ellipsoid(rng)
        shell = _ulp_shell(rng, e, 2000)
        box = e.center + rng.uniform(-1.2, 1.2, (2000, 3)) * e.semi_axes[0]
        wide = np.empty((2000, 6))
        wide[:, ::2] = shell
        inputs = [shell, box, shell[0], shell[:5].tolist(),
                  np.asfortranarray(shell), shell[::3], wide[:, ::2]]
        for pts in inputs:
            want = ref.ellipsoid_contains(e, pts)
            got = ellipsoid_contains(e, pts)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)
        inside = ref.ellipsoid_contains(e, shell)
        assert inside.any() and not inside.all()

    @pytest.mark.parametrize("shape", [(5, 2), (5, 4), (2,)])
    def test_wrong_width_rejected(self, shape):
        e = EllipsoidParams(np.zeros(3), np.ones(3), np.eye(3))
        for func in (ref.ellipsoid_contains, ellipsoid_contains):
            with pytest.raises(ValueError):
                func(e, np.zeros(shape))


def _reference_box(fit, truth):
    """The union bounding box, spelled as the reference scorer spells it."""
    hws = [ref._ellipsoid_halfwidths(m) for m in (fit, truth)]
    return (np.minimum(fit.center - hws[0], truth.center - hws[1]),
            np.maximum(fit.center + hws[0], truth.center + hws[1]))


def _draw_cells(seed, samples: int) -> np.ndarray:
    """The cell id of each row of the stream's (samples, 3) draw u: floor(u
    G) per axis, read as the digits of a base-G number."""
    grid = geometry._MC_GRID
    u = np.random.default_rng(seed).random((samples, 3))
    j = np.floor(u * grid).astype(np.int64)
    return (j[:, 0] * grid + j[:, 1]) * grid + j[:, 2]


def _certified(fit, truth, lo, hi):
    """Each model's (inside, outside) cell masks over the box lo..hi."""
    edges = geometry._cell_edges(lo, hi - lo)
    return [geometry._certified_cells(m, edges) for m in (fit, truth)]


class TestMonteCarloPoints:
    """The cell-certified Monte Carlo count tests exactly the points of one
    ``rng.uniform(lo, hi, size=(samples, 3))`` draw whose cells not both
    models certify, in draw order and in full chunks, against both models.
    Every other point's certified flags are what ellipsoid_contains says,
    and the counts are those of testing every point."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(_ELLIPSOID_KINDS),
           samples=st.sampled_from([1, _MC_CHUNK - 1, _MC_CHUNK,
                                    2 * _MC_CHUNK + 1, 3 * _MC_CHUNK + 123,
                                    20 * _MC_CHUNK + 5]))
    def test_points_are_one_draw(self, seed, kind, samples):
        fit, truth = _ellipsoid_pair(np.random.default_rng(seed), kind)
        tested = []

        def record(e, pts):
            tested.append((e, pts.copy()))
            return ellipsoid_contains(e, pts)

        geometry._cell_table.cache_clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(geometry, "ellipsoid_contains", record)
            counts = _monte_carlo_counts(fit, truth, samples, seed)
        lo, hi = _reference_box(fit, truth)
        pts = np.random.default_rng(seed).uniform(lo, hi, size=(samples, 3))
        cells = _draw_cells(seed, samples)
        (fit_in, fit_out), (truth_in, truth_out) = _certified(fit, truth,
                                                              lo, hi)
        known = ((fit_in | fit_out) & (truth_in | truth_out))[cells]
        assert all(e is fit for e, _ in tested[::2])
        assert all(e is truth for e, _ in tested[1::2])
        for chunks in (tested[::2], tested[1::2]):
            got = [p for _, p in chunks]
            assert all(len(p) == _MC_CHUNK for p in got[:-1])
            assert np.array_equal(np.concatenate(got or [np.empty((0, 3))]),
                                  pts[~known])
        in_fit = ref.ellipsoid_contains(fit, pts)
        in_truth = ref.ellipsoid_contains(truth, pts)
        assert np.array_equal(in_fit[known], fit_in[cells][known])
        assert np.array_equal(in_truth[known], truth_in[cells][known])
        assert counts == (np.count_nonzero(in_fit ^ in_truth),
                          np.count_nonzero(in_truth))

    def test_most_points_are_counted_by_cell(self):
        # a fit near the benchmark's 3-D truth: the points near either
        # surface are tested, about one in seven
        truth = EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]),
                                np.eye(3))
        fit = EllipsoidParams(np.array([0.1, -0.1, 0.05]),
                              np.array([5.1, 3.9, 3.05]), np.eye(3))
        (fit_in, fit_out), (truth_in, truth_out) = _certified(
            fit, truth, *_reference_box(fit, truth))
        known = (fit_in | fit_out) & (truth_in | truth_out)
        share = np.count_nonzero(~known[_draw_cells(0, 100_000)]) / 100_000
        assert 0.0 < share < 0.2


def _cell_corners(lo, span) -> np.ndarray:
    """(8, G^3, 3) extreme points of every cell, in cell-id order: per axis
    the draw u = j / G and the double just below (j + 1) / G, mapped as the
    draw maps them."""
    grid = geometry._MC_GRID
    j = np.arange(grid)
    u = np.stack([j / grid, np.nextafter((j + 1) / grid, 0.0)])
    x = lo[:, None, None] + span[:, None, None] * u  # (axis, end, cell)
    corners = []
    for ends in np.ndindex(2, 2, 2):
        axes = [x[k, ends[k]] for k in range(3)]
        corners.append(np.stack(np.meshgrid(*axes, indexing="ij"),
                                axis=-1).reshape(-1, 3))
    return np.stack(corners)


class TestCellCertification:
    """A cell certified inside (outside) a model has every extreme point
    inside (outside) by ellipsoid_contains: on spheres whose surface passes
    within a few ulp of a cell corner, 1e-3 thin axes, far-off centres and
    the other pair kinds."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["corner", "corner", "corner", "thin", "far",
                                 "near", "nested", "random"]))
    def test_extreme_points_agree(self, seed, kind):
        fit, truth = _ellipsoid_pair(np.random.default_rng(seed), kind)
        lo, hi = _reference_box(fit, truth)
        corners = _cell_corners(lo, hi - lo).reshape(-1, 3)
        for model, (inside, outside) in zip(
                (fit, truth), _certified(fit, truth, lo, hi)):
            flags = ref.ellipsoid_contains(model, corners).reshape(8, -1)
            assert flags[:, inside].all()
            assert not flags[:, outside].any()
            assert not (inside & outside).any()

    @pytest.mark.parametrize("quadruple", _QUADRUPLES)
    def test_spheres_through_a_corner(self, quadruple):
        # the corner is the farthest (nearest) point of the cell it is the
        # lowest corner of, and on the surface up to a few ulp
        lo, span = np.full(3, -8.0), np.full(3, 16.0)
        edges = geometry._cell_edges(lo, span)
        grid = geometry._MC_GRID
        mid = grid // 2
        cell = (mid * grid + mid) * grid + mid
        corner = edges[:, mid]
        extremes = _cell_corners(lo, span)[:, cell]
        *legs, hyp = quadruple
        for scale in (0.1, 0.3, 0.37, 0.5, 0.61, 0.7):
            for legs_order in itertools.permutations(legs):
                for side in (-1.0, 1.0):
                    sphere = EllipsoidParams(
                        corner + side * scale * np.array(legs_order),
                        np.full(3, hyp * scale), np.eye(3))
                    inside, outside = geometry._certified_cells(sphere, edges)
                    flags = ref.ellipsoid_contains(sphere, extremes)
                    assert flags.all() or not inside[cell]
                    assert not flags.any() or not outside[cell]

    def test_corner_on_the_surface(self):
        # an axis-aligned unit sphere through a cell corner: the cells
        # either side of the corner are not certified, as no margin
        # would let them be, and the rest of the cells are
        lo, span = np.full(3, -2.0), np.full(3, 4.0)
        edges = geometry._cell_edges(lo, span)
        corner = edges[[0, 1, 2], [8, 16, 16]]
        sphere = EllipsoidParams(corner + np.array([1.0, 0.0, 0.0]),
                                 np.ones(3), np.eye(3))
        assert ellipsoid_contains(sphere, corner)[0]
        inside, outside = geometry._certified_cells(sphere, edges)
        flags = ref.ellipsoid_contains(
            sphere, _cell_corners(lo, span).reshape(-1, 3)).reshape(8, -1)
        assert flags[:, inside].all() and not flags[:, outside].any()
        grid = geometry._MC_GRID
        for cell in np.ndindex(2, 2, 2):
            j = (7 + cell[0]) * grid * grid + (15 + cell[1]) * grid + 15 \
                + cell[2]
            assert not inside[j] and not outside[j]
        assert np.count_nonzero(inside | outside) > 0.9 * grid ** 3

    def test_overflowing_bound_certifies_nothing(self):
        tiny = EllipsoidParams(np.zeros(3), np.full(3, 1e-300), np.eye(3))
        edges = geometry._cell_edges(np.full(3, -1.0), np.full(3, 2.0))
        inside, outside = geometry._certified_cells(tiny, edges)
        assert not inside.any() and not outside.any()


def _table(samples: int, seed: int):
    """The cached cell table of ``seed``'s stream."""
    state = np.random.default_rng(seed).bit_generator.state
    return geometry._cell_table(samples, repr(state))


class TestCellTable:
    """The cell table of a (samples, seed) draw is filled by the first count
    that needs it, read-only and shared after that, and one entry is kept;
    cold and warm counts are the same."""

    PAIR = _ellipsoid_pair(np.random.default_rng(11), "near")

    @pytest.mark.parametrize("samples", [1_000_000, 1_012_345])
    def test_cold_and_warm_counts_agree(self, samples):
        geometry._cell_table.cache_clear()
        cold = _monte_carlo_counts(*self.PAIR, samples, 3)
        table = _table(samples, 3)
        assert table.counts is not None
        assert _monte_carlo_counts(*self.PAIR, samples, 3) == cold
        assert _table(samples, 3) is table
        assert nonoverlap_ratio(*self.PAIR, mc_samples=samples, seed=3) == \
            ref.nonoverlap_ratio(*self.PAIR, mc_samples=samples, seed=3)

    def test_table_is_the_draws_cells_and_read_only(self):
        geometry._cell_table.cache_clear()
        _monte_carlo_counts(*self.PAIR, 3 * _MC_CHUNK + 7, 4)
        table = _table(3 * _MC_CHUNK + 7, 4)
        cells = _draw_cells(4, 3 * _MC_CHUNK + 7)
        assert table.ids.dtype == np.uint16
        assert np.array_equal(table.ids, cells)
        assert np.array_equal(table.counts, np.bincount(
            cells, minlength=geometry._MC_GRID ** 3))
        for array in (table.ids, table.counts):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_one_entry(self):
        geometry._cell_table.cache_clear()
        for samples, seed in [(1_000, 0), (1_000, 1), (2_000, 0), (1_000, 0)]:
            _monte_carlo_counts(*self.PAIR, samples, seed)
            assert geometry._cell_table.cache_info().currsize == 1
        assert geometry._cell_table.cache_info().maxsize == 1

    def test_generator_seeds(self):
        # a Generator's draws go on from its state, and None draws afresh:
        # the table follows the stream, not the seed argument
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for _ in range(2):
            assert nonoverlap_ratio(*self.PAIR, seed=ours) == \
                ref.nonoverlap_ratio(*self.PAIR, seed=theirs)
        geometry._cell_table.cache_clear()
        nonoverlap_ratio(*self.PAIR, seed=None)
        nonoverlap_ratio(*self.PAIR, seed=None)
        assert geometry._cell_table.cache_info().hits == 0

    def test_interrupted_fill_is_redone(self):
        # with the chunks drawn ahead or not: the draw-ahead worker is
        # stopped and joined, and the table stays unfilled
        def fail(e, pts):
            raise KeyboardInterrupt

        for spare in (True, False):
            geometry._cell_table.cache_clear()
            warm_pool()
            before = threading.active_count()
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(_cores, "spare_core", lambda: spare)
                mp.setattr(geometry, "ellipsoid_contains", fail)
                with pytest.raises(KeyboardInterrupt):
                    _monte_carlo_counts(*self.PAIR, 1_000_000, 5)
            assert threading.active_count() == before
            assert _table(1_000_000, 5).counts is None
            assert nonoverlap_ratio(*self.PAIR, seed=5) == \
                ref.nonoverlap_ratio(*self.PAIR, seed=5)


class _Failing:
    """A generator stand-in whose draw number ``fail_at`` raises."""

    def __init__(self, fail_at: int):
        self.calls, self.fail_at = 0, fail_at

    def random(self, out):
        self.calls += 1
        if self.calls == self.fail_at:
            raise RuntimeError("planted draw")
        out[...] = 0.5
        return out


class TestDrawAhead:
    """With a spare core the Monte Carlo chunks are drawn ahead on one
    worker thread: the chunks, the counts and a passed Generator's end
    state are those of the inline draw, and the worker thread waits for
    the next call once a call ends."""

    PAIR = _ellipsoid_pair(np.random.default_rng(12), "near")
    SAMPLES = [1, _MC_CHUNK, _MC_CHUNK + 1, 2 * _MC_CHUNK + 1,
               geometry._MC_RING * _MC_CHUNK,
               geometry._MC_RING * _MC_CHUNK + 123, 20 * _MC_CHUNK + 5]

    @staticmethod
    def _chunks(seed, samples):
        with contextlib.closing(geometry._drawn_chunks(
                np.random.default_rng(seed), samples)) as chunks:
            return [(start, u.copy()) for start, u in chunks]

    @pytest.mark.parametrize("samples", SAMPLES)
    @pytest.mark.parametrize("spare", [True, False])
    def test_chunks_are_one_draw(self, monkeypatch, threads, spare, samples):
        monkeypatch.setattr(_cores, "spare_core", lambda: spare)
        chunks = self._chunks(3, samples)
        assert [start for start, _ in chunks] == \
            list(range(0, samples, _MC_CHUNK))
        assert all(len(u) == _MC_CHUNK for _, u in chunks[:-1])
        assert np.array_equal(np.concatenate([u for _, u in chunks]),
                              np.random.default_rng(3).random((samples, 3)))
        assert len(threads) == int(spare and samples > _MC_CHUNK)

    @pytest.mark.parametrize("samples", SAMPLES + [1_000_000])
    @pytest.mark.parametrize("seed", ["int", "generator"])
    def test_counts_and_generator_state(self, monkeypatch, threads, samples,
                                        seed):
        results = {}
        for spare in (True, False):
            monkeypatch.setattr(_cores, "spare_core", lambda: spare)
            for cold in (True, False):
                if cold:
                    geometry._cell_table.cache_clear()
                rng = np.random.default_rng(8)
                counts = _monte_carlo_counts(
                    *self.PAIR, samples, 8 if seed == "int" else rng)
                results[spare, cold] = counts, rng.bit_generator.state
        assert len(set(map(repr, results.values()))) == 1
        if seed == "generator":
            after = np.random.default_rng(8)
            after.random((samples, 3))
            assert results[True, True][1] == after.bit_generator.state
        assert len(threads) == 2 * int(samples > _MC_CHUNK)

    @pytest.mark.parametrize("fail_at", [1, 2, geometry._MC_RING + 2])
    def test_worker_error_is_raised_here(self, monkeypatch, threads,
                                         fail_at):
        monkeypatch.setattr(_cores, "spare_core", lambda: True)
        with pytest.raises(RuntimeError, match="planted draw"):
            list(geometry._drawn_chunks(_Failing(fail_at), 10 * _MC_CHUNK))
        assert len(threads) == 1

    @pytest.mark.parametrize("taken", [0, 1, geometry._MC_RING + 1])
    def test_closing_early_stops_the_worker(self, monkeypatch, threads,
                                            taken):
        monkeypatch.setattr(_cores, "spare_core", lambda: True)
        chunks = geometry._drawn_chunks(np.random.default_rng(0),
                                        20 * _MC_CHUNK)
        for _ in range(taken):
            next(chunks)
        chunks.close()
        assert len(threads) == int(taken > 0)


class TestNonoverlapMemory:
    """Scoring builds neither the full 2-D grid nor the 3-D point array."""

    @staticmethod
    def _peak_mib(fit, truth) -> float:
        tracemalloc.start()
        try:
            nonoverlap_ratio(fit, truth)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def test_2d_peak(self):
        truth = ellipse_from_eccentricity(5.0, 0.95)
        fit = EllipseParams(0.05, -0.03, 1.02 * truth.a, 0.98 * truth.b, 0.03)
        assert self._peak_mib(fit, truth) <= 2.0

    def test_3d_peak(self):
        # cold: the count fills a new cell table
        geometry._cell_table.cache_clear()
        truth = EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]),
                                np.eye(3))
        fit = EllipsoidParams(np.array([0.1, -0.1, 0.05]),
                              np.array([5.1, 3.9, 3.05]),
                              random_rotation(np.random.default_rng(5)))
        assert self._peak_mib(fit, truth) <= 8.0


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
        # an absent or null orientation is the identity
        for extra in ({}, {"orientation": None}):
            plain = EllipsoidParams.from_json_dict(
                {"center": [0, 0, 0], "semi_axes": [3, 2, 1], **extra})
            assert np.array_equal(plain.orientation, np.eye(3))

    @pytest.mark.parametrize("params, obj, message", [
        (EllipseParams, {"semi_axes": [2, 1]}, "missing key 'center'"),
        (EllipseParams, {"center": [0, 0], "semi_axes": [2, "b"]},
         "semi_axes [2, 'b'] is not a list of 2 numbers"),
        (EllipseParams, {"center": [0, 0], "semi_axes": [2, 1],
                         "rotation": None}, "rotation None is not a number"),
        (EllipsoidParams, {"center": [0, 0, 0]}, "missing key 'semi_axes'"),
        (EllipsoidParams, {"center": [0, 0], "semi_axes": [3, 2, 1]},
         "center [0, 0] is not a list of 3 numbers"),
        (EllipsoidParams, {"center": [0, 0, 0], "semi_axes": [3, 2, 1],
                           "orientation": [1, 0]},
         "orientation [1, 0] is not a 3x3 matrix")])
    def test_json_refusal_names_the_key(self, params, obj, message):
        with pytest.raises(ValueError) as info:
            params.from_json_dict(obj)
        assert str(info.value) == message


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


class TestNormalizerMatchesReference:
    """The one coefficient normaliser scales every row of a stack as the
    one-row normaliser with ``np.linalg.norm`` did, bit for bit."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), width=st.sampled_from([6, 10]),
           count=st.integers(1, 40), scale=st.floats(-4.0, 6.0),
           zeros=st.floats(0.0, 0.5))
    def test_rows_bit_identical(self, seed, width, count, scale, zeros):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(count, width)) * 10.0 ** (
            scale + rng.uniform(-1.0, 1.0, (count, 1)))
        rows[rng.random(rows.shape) < zeros] = 0.0
        rows[rng.random(rows.shape) < 0.05] *= 1e-14  # below the sign cut
        rows[rng.integers(count)] = 0.0
        if count > 1:
            rows[rng.integers(count), rng.integers(width)] = math.inf
        normalized, valid = _normalize_coeff_rows(rows)
        for row, out, ok in zip(rows, normalized, valid):
            try:
                expected = ref._normalize_coeffs(row).tobytes()
            except ValueError:
                assert not ok and not out.any()
                with pytest.raises(ValueError):
                    _normalize_coeffs(row)
                continue
            assert ok
            assert out.tobytes() == expected
            assert _normalize_coeffs(row).tobytes() == expected


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
