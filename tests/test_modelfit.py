import functools
import hashlib
import math
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conic_purge import (ConicPurgeError, DegenerateConfiguration,
                         DetectionLabels, EllipseParams, EllipsoidParams,
                         ExperimentConfig, NoValidModel, NotAnEllipse,
                         NotAnEllipsoid, RefineConfig, TooFewPoints, conic_from_ellipse,
                         ellipse_from_conic, ellipse_from_eccentricity,
                         ellipsoid_from_quadric,
                         fit_ellipse_direct,
                         fit_ellipsoid_direct, make_dataset,
                         quadric_from_ellipsoid, ransac_success_prob, refine,
                         vanilla_ransac)
from conic_purge import modelfit
from conic_purge.geometry import (ellipse_boundary_points,
                                  ellipsoid_boundary_points, signed_residuals)
from conic_purge.modelfit import _fit_direct_batch
from conic_purge.pipeline import run_experiment, sweep_trial_seed
from conic_purge.proximity import proximity_stage

import reference_fits
import reference_ransac
import reference_refine
from conftest import (FREEZE_SCENARIOS, LARGE_SPECTRUM_SCENARIO,
                      random_ellipse, random_ellipsoid, rescue_mask)


def ellipse_samples(e, n, jitter=0.0, rng=None, offset=0.1):
    angles = np.linspace(0.0, 2.0 * math.pi, n + 1)[:-1] + offset
    pts = ellipse_boundary_points(e, angles)
    if jitter:
        pts = pts + rng.normal(0.0, jitter, pts.shape)
    return pts


def ellipsoid_samples(e, n, offset=0.05):
    u = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False) + offset
    v = np.linspace(-1.2, 1.2, n) + offset / 3.0
    return ellipsoid_boundary_points(e, u, v)


class TestFitEllipseDirect:
    def test_unit_circle_six_points(self):
        e = EllipseParams(0.0, 0.0, 1.0, 1.0, 0.0)
        coeffs = fit_ellipse_direct(ellipse_samples(e, 6))
        expected = conic_from_ellipse(e)
        assert np.abs(coeffs.values - expected.values).max() < 1e-9

    def test_five_point_minimal(self):
        e = EllipseParams(0.0, 0.0, 5.0, 1.56125, 0.0)
        back = ellipse_from_conic(fit_ellipse_direct(ellipse_samples(e, 5)))
        assert math.isclose(back.a, e.a, rel_tol=1e-6)
        assert math.isclose(back.b, e.b, rel_tol=1e-6)

    def test_collinear_degenerate(self):
        pts = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
        with pytest.raises(DegenerateConfiguration):
            fit_ellipse_direct(pts)

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            fit_ellipse_direct(np.zeros((4, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, rng, bad):
        pts = rng.normal(size=(50, 2))
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="coordinates must be finite"):
            fit_ellipse_direct(pts)

    def test_always_returns_ellipse(self, rng):
        # scattered points still produce a valid (if useless) ellipse
        for _ in range(10):
            coeffs = fit_ellipse_direct(rng.normal(size=(30, 2)))
            assert coeffs.is_ellipse

    def test_rigid_motion_covariance(self, rng):
        e = random_ellipse(rng)
        pts = ellipse_samples(e, 40)
        angle, shift = 0.7, np.array([3.0, -2.0])
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        moved = pts @ rot.T + shift
        fit_moved = ellipse_from_conic(fit_ellipse_direct(moved))
        fit_orig = ellipse_from_conic(fit_ellipse_direct(pts))
        assert math.isclose(fit_moved.a, fit_orig.a, rel_tol=1e-7)
        assert math.isclose(fit_moved.b, fit_orig.b, rel_tol=1e-7)
        assert np.allclose(rot @ fit_orig.center + shift, fit_moved.center,
                           atol=1e-7)


class TestFitEllipsoidDirect:
    def test_sphere_twelve_points(self, rng):
        sphere = random_ellipsoid(rng)
        object.__setattr__(sphere, "semi_axes", np.ones(3))
        object.__setattr__(sphere, "center", np.zeros(3))
        object.__setattr__(sphere, "orientation", np.eye(3))
        u = rng.uniform(0, 2 * math.pi, 12)
        v = rng.uniform(-1.3, 1.3, 12)
        coeffs = fit_ellipsoid_direct(ellipsoid_boundary_points(sphere, u, v))
        expected = quadric_from_ellipsoid(sphere)
        assert np.abs(coeffs.values - expected.values).max() < 1e-9

    def test_axes_543_twenty_points(self):
        e = random_axis_ellipsoid()
        coeffs = fit_ellipsoid_direct(ellipsoid_samples(e, 20))
        back = ellipsoid_from_quadric(coeffs)
        assert np.allclose(back.semi_axes, e.semi_axes, rtol=1e-6)

    def test_coplanar_degenerate(self, rng):
        flat = rng.normal(size=(9, 3))
        flat[:, 2] = 1.0
        with pytest.raises(DegenerateConfiguration):
            fit_ellipsoid_direct(flat)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_refused(self, rng, bad):
        pts = ellipsoid_samples(random_axis_ellipsoid(), 50)
        pts[17, 1] = bad
        with pytest.raises(ValueError, match="coordinates must be finite"):
            fit_ellipsoid_direct(pts)

    def test_non_ellipsoid_reported(self, rng):
        # points on a hyperbolic sheet z^2 = 1 + x^2 + y^2
        x, y = rng.uniform(-2, 2, (2, 40))
        z = np.sqrt(1 + x ** 2 + y ** 2) * np.where(rng.random(40) < 0.5, -1, 1)
        with pytest.raises(NotAnEllipsoid):
            fit_ellipsoid_direct(np.column_stack([x, y, z]))


def random_axis_ellipsoid():
    from conic_purge import EllipsoidParams
    return EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]), np.eye(3))


def scalar_fits(samples):
    """The per-sample reference for ``_fit_direct_batch``: (values, ok)."""
    fitter = reference_fits.fit_ellipse_direct if samples.shape[2] == 2 \
        else reference_fits.fit_ellipsoid_direct
    values = np.zeros((samples.shape[0], 6 if samples.shape[2] == 2 else 10))
    ok = np.zeros(samples.shape[0], dtype=bool)
    for i, sample in enumerate(samples):
        try:
            values[i] = fitter(sample).values
        except (DegenerateConfiguration, NotAnEllipse, NotAnEllipsoid):
            continue
        ok[i] = True
    return values, ok


def near_model_stack(seed, count, n, dim):
    """``count`` samples of ``n`` points, each near its own random model,
    with a random share of uniform scatter mixed in."""
    rng = np.random.default_rng(seed)
    stack = np.empty((count, n, dim))
    for i in range(count):
        if dim == 2:
            e = random_ellipse(rng)
            pts = ellipse_boundary_points(e, rng.uniform(0, 2 * math.pi, n))
            spread = e.a
        else:
            e = random_ellipsoid(rng)
            pts = ellipsoid_boundary_points(e, rng.uniform(0, 2 * math.pi, n),
                                            rng.uniform(-1.4, 1.4, n))
            spread = e.semi_axes[0]
        pts = pts + rng.normal(0.0, rng.uniform(0.0, 0.1) * spread, pts.shape)
        scatter = rng.random(n) < rng.uniform(0.0, 0.6)
        pts[scatter] = rng.uniform(-2 * spread, 2 * spread,
                                   (int(scatter.sum()), dim))
        stack[i] = pts
    return stack


def assert_batch_matches_scalar(samples):
    values, ok = _fit_direct_batch(samples)
    ref_values, ref_ok = scalar_fits(samples)
    assert np.array_equal(ok, ref_ok)
    assert np.abs(values - ref_values).max(initial=0.0) <= 1e-12
    assert not values[~ok].any()


def fit_outcome(fitter, points):
    """The coefficient bytes of a fit, or the type of what it raised."""
    try:
        return fitter(points).values.tobytes()
    except Exception as exc:  # noqa: BLE001 - the type is the outcome
        return type(exc)


def assert_public_fit_is_reference(points):
    dim = points.shape[1]
    public = fit_ellipse_direct if dim == 2 else fit_ellipsoid_direct
    reference = reference_fits.fit_ellipse_direct if dim == 2 else \
        reference_fits.fit_ellipsoid_direct
    assert fit_outcome(public, points) == fit_outcome(reference, points)


class TestPublicFitsMatchReference:
    """The public fitters are the one-row case of the stacked kernel; they
    must reproduce the one-sample reference bit for bit, failures too."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           extra=st.integers(-2, 300),
           kind=st.sampled_from(["near", "near", "near", "scatter",
                                 "coincident", "flat"]))
    def test_bit_identical(self, seed, dim, extra, kind):
        n = max(0, (5 if dim == 2 else 9) + extra)
        rng = np.random.default_rng(seed)
        if kind == "near":
            points = near_model_stack(seed, 1, n, dim)[0]
        elif kind == "scatter":
            points = rng.normal(size=(n, dim))
        elif kind == "coincident":
            points = np.tile(rng.normal(size=dim), (n, 1))
        else:
            # collinear (2-D) or coplanar (3-D)
            points = rng.normal(size=(n, dim))
            points[:, -1] = 0.5 * points[:, 0] + 1.0
        assert_public_fit_is_reference(points)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_bit_identical_at_max_points(self, dim, seed):
        assert_public_fit_is_reference(near_model_stack(seed, 1, 5000, dim)[0])

    def test_thin_svd_memory(self):
        # the full n x n left basis of the SVD peaked at 191 MiB
        rng = np.random.default_rng(4)
        e = random_axis_ellipsoid()
        pts = ellipsoid_boundary_points(e, rng.uniform(0, 2 * math.pi, 5000),
                                        rng.uniform(-1.4, 1.4, 5000))
        pts = pts + rng.normal(0.0, 0.05, pts.shape)
        tracemalloc.start()
        try:
            fit_ellipsoid_direct(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20


class TestFitDirectBatch:
    # stacked BLAS products may round differently from the 2-D ones, so
    # coefficients are compared to 1e-12; decisions must agree exactly
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 40))
    def test_minimal_ellipse_samples(self, seed, count):
        assert_batch_matches_scalar(near_model_stack(seed, count, 5, 2))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 30))
    def test_minimal_ellipsoid_samples(self, seed, count):
        assert_batch_matches_scalar(near_model_stack(seed, count, 9, 3))

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), count=st.integers(1, 8))
    def test_half_set_ellipsoid_samples(self, seed, count):
        assert_batch_matches_scalar(near_model_stack(seed, count, 175, 3))

    def test_pure_scatter_samples(self, rng):
        # mostly rejected in 3-D (few 9-point quadrics are ellipsoids)
        assert_batch_matches_scalar(rng.normal(size=(300, 5, 2)))
        assert_batch_matches_scalar(rng.normal(size=(300, 9, 3)))

    @pytest.mark.parametrize("bad", [
        np.ones((5, 2)),                                         # coincident
        np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)]),  # collinear
        # on a parabola: no eigenvector satisfies 4AC - B^2 > 0
        np.array([[0.25, 0.0625], [0.5, 0.25], [1.0, 1.0], [2.0, 4.0],
                  [-0.5, 0.25]]),
        # on a hyperbola: the scalar fit still finds an ellipse
        np.array([[1.0, 0.0], [-1.0, 0.0], [1.25, 0.75], [1.25, -0.75],
                  [-1.25, 0.75]]),
    ], ids=["coincident", "collinear", "parabola", "hyperbola"])
    def test_degenerate_ellipse_sample_is_isolated(self, bad):
        self._check_isolated(near_model_stack(7, 9, 5, 2), bad)

    @pytest.mark.parametrize("kind", ["coincident", "coplanar",
                                      "two_circles"])
    def test_degenerate_ellipsoid_sample_is_isolated(self, kind, rng):
        if kind == "coincident":
            bad = np.ones((9, 3))
        elif kind == "coplanar":
            bad = np.column_stack([rng.normal(size=(9, 2)), np.ones(9)])
        else:
            # two parallel circles of one ellipsoid: a pencil of quadrics
            # fits them, some of them ellipsoids, so only the rank test
            # rejects the sample
            a = np.array([0.1, 1.3, 2.4, 3.9, 5.0])
            b = np.array([0.7, 2.0, 3.3, 4.6])
            bad = np.vstack([
                np.column_stack([0.8 * np.cos(a), 0.8 * np.sin(a),
                                 np.full(5, 0.6)]),
                np.column_stack([0.8 * np.cos(b), 0.8 * np.sin(b),
                                 np.full(4, -0.6)]),
            ]) * [3.0, 2.0, 1.5]
        self._check_isolated(near_model_stack(8, 9, 9, 3), bad)

    @staticmethod
    def _check_isolated(good, bad):
        mixed = np.concatenate([good[:4], bad[None], good[4:]])
        values, ok = _fit_direct_batch(mixed)
        clean_values, clean_ok = _fit_direct_batch(good)
        keep = np.arange(len(mixed)) != 4
        assert np.array_equal(ok[keep], clean_ok)
        assert np.array_equal(values[keep], clean_values)
        assert_batch_matches_scalar(mixed)

    def test_too_few_points(self):
        with pytest.raises(TooFewPoints):
            _fit_direct_batch(np.zeros((3, 4, 2)))
        with pytest.raises(TooFewPoints):
            _fit_direct_batch(np.zeros((3, 8, 3)))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]),
           count=st.sampled_from([1, 2, 7, 60]), extra=st.integers(0, 200),
           kind=st.sampled_from(["near", "near", "scatter", "coincident",
                                 "flat"]))
    def test_raw_fit_is_the_frozen_kernel(self, seed, dim, count, extra,
                                          kind):
        # the stacked fit without its per-call stacks, identity and
        # strided mean: every row's raw coefficients and mask, rejected
        # rows too, are those of the np.stack version, bit for bit
        n = (5 if dim == 2 else 9) + extra
        rng = np.random.default_rng(seed)
        samples = near_model_stack(seed, count, n, dim)
        if kind == "scatter":
            samples = rng.normal(size=samples.shape)
        elif kind == "coincident":
            samples[count // 2] = rng.normal(size=dim)
        elif kind == "flat":
            samples[count // 2, :, -1] = 0.5 * samples[count // 2, :, 0] + 1.0
        raw, ok = modelfit._fit_direct_raw(samples)
        expected, expected_ok = reference_refine._fit_direct_raw(samples)
        assert np.array_equal(ok, expected_ok)
        assert raw.tobytes() == expected.tobytes()


def tiny_scene() -> np.ndarray:
    """The ransac2d freeze scene scaled by 2^-540: its points square to
    subnormals or zero, and the conic fits' reduced matrices to values
    that are not finite."""
    return make_dataset(FREEZE_SCENARIOS["ransac2d"]).points * 2.0 ** -540


class TestPointsTooSmallToSquare:
    """A conic fit whose reduced matrix is not finite is refused, as one
    with a singular scatter block is, rather than failing the stacked
    eigensolve for every row of its stack."""

    def test_public_fit_refuses(self):
        with pytest.raises(DegenerateConfiguration):
            fit_ellipse_direct(tiny_scene()[:100])

    def test_ransac_finds_no_model(self):
        with pytest.raises(NoValidModel):
            vanilla_ransac(tiny_scene(), iterations=150)

    def test_rescue_has_no_start_and_refine_refuses(self):
        pts = tiny_scene()
        assert rescue_mask(pts) is None
        assert modelfit.rescue_start(pts) is None
        with pytest.raises(DegenerateConfiguration):
            refine(pts, DetectionLabels(np.zeros(len(pts), dtype=bool),
                                        "model"))

    def test_other_rows_keep_their_bits(self):
        bad = tiny_scene()[:100]
        # the np.stack version's stacked eig refused the whole stack
        with pytest.raises(np.linalg.LinAlgError):
            reference_refine._fit_direct_raw(bad[None])
        good = near_model_stack(11, 8, 100, 2)
        mixed = np.concatenate([good[:3], bad[None], good[3:]])
        keep = np.arange(len(mixed)) != 3
        raw, ok = modelfit._fit_direct_raw(mixed)
        expected, expected_ok = reference_refine._fit_direct_raw(good)
        assert not ok[3] and np.array_equal(ok[keep], expected_ok)
        assert raw[keep].tobytes() == expected.tobytes()
        values, ok = _fit_direct_batch(mixed)
        clean, clean_ok = _fit_direct_batch(good)
        assert np.array_equal(ok[keep], clean_ok) and clean_ok.any()
        assert values[keep].tobytes() == clean.tobytes()
        assert not values[3].any()


def stable_half_sets(dist: np.ndarray, half: int) -> np.ndarray:
    """The C-step's half-sets as a stable sort picks them."""
    return np.sort(np.argsort(dist, axis=1, kind="stable")[:, :half], axis=1)


class TestSelectionAndMedian:
    """The C-step's half-set selection and the loop's medians, pinned to
    the numpy expressions they replace."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 90), n=st.integers(1, 800),
           seed=st.integers(0, 2 ** 32 - 1),
           kind=st.sampled_from(["distinct", "tied", "special"]),
           nan_rows=st.booleans(), data=st.data())
    def test_half_sets_are_the_stable_selection(self, rows, n, seed, kind,
                                                nan_rows, data):
        half = data.draw(st.integers(1, n))
        rng = np.random.default_rng(seed)
        if kind == "distinct":
            dist = rng.random((rows, n))
        elif kind == "tied":
            # few values: ties at the half-th value in most rows
            dist = rng.integers(0, 4, (rows, n)).astype(float)
        else:
            dist = rng.choice([0.0, 0.5, 1.0, np.inf, np.nan], (rows, n))
        if nan_rows:
            dist[rng.random(rows) < 0.3] = np.nan
        before = dist.copy()
        tight = modelfit._half_sets(dist, half)
        expected = stable_half_sets(dist, half)
        assert tight.dtype == expected.dtype
        assert np.array_equal(tight, expected)
        assert np.array_equal(dist, before, equal_nan=True)

    @pytest.mark.parametrize("shape", [(60, 150), (1, 150), (20, 800)])
    def test_half_sets_with_one_tie_at_the_cut(self, shape):
        # one row's half-th value repeated past the cut: only the lower
        # index joins that row's half-set
        rng = np.random.default_rng(shape[0])
        dist = rng.random(shape)
        half = (shape[1] + 1) // 2
        row = dist[-1]
        row[np.argsort(row)[half]] = np.sort(row)[half - 1]
        assert np.array_equal(modelfit._half_sets(dist, half),
                              stable_half_sets(dist, half))

    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(
        st.floats(allow_nan=False, allow_infinity=True),
        st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                         1.5, -1.5])), min_size=1, max_size=41))
    def test_median_is_numpy_median(self, values):
        sample = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # inf - inf
            expected = np.median(sample)
        got = modelfit._median(sample)
        assert type(got) is float
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert np.float64(got).tobytes() == expected.tobytes()
        assert np.array_equal(sample, np.array(values), equal_nan=True)

    @pytest.mark.parametrize("values", [
        [-0.0], [-0.0, -0.0], [0.0, -0.0], [-0.0, -0.0, -0.0],
        [1.0, math.nan], [math.nan], [math.inf, -math.inf],
        [1.7e308, 1.7e308], [2.0, 1.0, 4.0, 3.0]])
    def test_median_edge_cases(self, values):
        sample = np.array(values)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            expected = np.median(sample)
        got = modelfit._median(sample)
        assert np.float64(got).tobytes() == expected.tobytes() or (
            math.isnan(got) and math.isnan(expected))


class TestRefine:
    def test_noiseless_fixpoint_in_one_iteration(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 40), rng.uniform(8, 12, (6, 2))])
        truth = np.r_[np.zeros(40, bool), np.ones(6, bool)]
        result = refine(pts, DetectionLabels(truth, "proximity"))
        assert result.converged and result.iterations == 1
        assert np.array_equal(result.labels.outlier, truth)

    def test_center_cluster_flagged(self, rng):
        e = EllipseParams(0.0, 0.0, 5.0, 1.56125, 0.0)
        ring = ellipse_samples(e, 100, jitter=0.01, rng=rng)
        middle = rng.normal(0.0, 0.05, (10, 2))
        pts = np.vstack([ring, middle])
        initial = DetectionLabels(np.zeros(110, bool), "proximity")
        result = refine(pts, initial)
        assert result.labels.outlier[100:].all()
        assert not result.labels.outlier[:100].any()

    def test_idempotent(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 60, jitter=0.01 * e.b, rng=rng),
                         rng.uniform(-20, 20, (15, 2))])
        first = refine(pts, DetectionLabels(np.zeros(75, bool), "proximity"))
        second = refine(pts, first.labels)
        assert np.array_equal(first.labels.outlier, second.labels.outlier)

    def test_keeps_noiseless_inliers(self, rng):
        # scattered contamination; a coherent far-away cluster is the graph
        # stage's job, not this invariant's
        e = random_ellipse(rng)
        spread = 2.5 * e.a
        noise = e.center + rng.uniform(-spread, spread, (10, 2))
        pts = np.vstack([ellipse_samples(e, 50), noise])
        initial = DetectionLabels(np.zeros(60, bool), "proximity")
        for tau_scale in (1.0, 3.0, 8.0):
            result = refine(pts, initial, RefineConfig(tau_scale=tau_scale))
            assert not result.labels.outlier[:50].any()

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, value, rng):
        pts = ellipse_samples(random_ellipse(rng), 30)
        pts[7, 1] = value
        with pytest.raises(ValueError, match="coordinates must be finite"):
            refine(pts, DetectionLabels(np.zeros(30, bool), "proximity"))

    @pytest.mark.parametrize("tau_scale", [math.nan, math.inf, -math.inf])
    def test_non_finite_tau_scale_rejected(self, tau_scale):
        with pytest.raises(ValueError, match="tau_scale"):
            RefineConfig(tau_scale=tau_scale)

    @pytest.mark.parametrize("knob", ["max_iter", "min_points"])
    def test_whole_number_knobs(self, knob):
        typed = getattr(RefineConfig(**{knob: 9.0}), knob)
        assert typed == 9 and type(typed) is int
        with pytest.raises(ValueError, match=f"{knob} 2.5 is not an integer"):
            RefineConfig(**{knob: 2.5})

    def test_min_points_floor(self, rng):
        pts = rng.normal(size=(20, 2))
        labels = DetectionLabels(np.r_[np.zeros(4, bool), np.ones(16, bool)],
                                 "proximity")
        with pytest.raises(TooFewPoints):
            refine(pts, labels)

    @pytest.mark.parametrize("min_points", [0, 3, 4])
    def test_min_points_below_fitter_minimum_2d(self, min_points):
        pts = ellipse_samples(EllipseParams(0.0, 0.0, 5.0, 3.0, 0.2), 40)
        initial = DetectionLabels(np.zeros(40, bool), "proximity")
        with pytest.raises(ValueError, match="min_points"):
            refine(pts, initial, RefineConfig(min_points=min_points))
        result = refine(pts, initial, RefineConfig(min_points=5))
        assert not result.labels.outlier.any()

    @pytest.mark.parametrize("min_points", [0, 5, 8])
    def test_min_points_below_fitter_minimum_3d(self, min_points):
        pts = ellipsoid_samples(random_axis_ellipsoid(), 60)
        initial = DetectionLabels(np.zeros(60, bool), "proximity")
        with pytest.raises(ValueError, match="min_points"):
            refine(pts, initial, RefineConfig(min_points=min_points))
        result = refine(pts, initial, RefineConfig(min_points=9))
        assert not result.labels.outlier.any()

    def test_never_below_min_points(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 30, jitter=0.02 * e.b, rng=rng),
                         rng.uniform(-30, 30, (10, 2))])
        result = refine(pts, DetectionLabels(np.zeros(40, bool), "proximity"))
        assert np.count_nonzero(result.labels.inlier) >= 5

    def test_corrects_small_initial_errors(self):
        # initial labels shaped like a good graph-stage result: ground truth
        # with 5 missed near outliers and 5 misflagged inliers planted.  The
        # reclassification undoes the planted mistakes; what may remain are
        # generated "outliers" that landed inside the inlier noise band
        # (unidentifiable by any model test) and the 3-sigma tail of the
        # inliers, a couple of points each.
        from conic_purge import (ExperimentConfig, detection_metrics,
                                 ellipse_from_eccentricity, make_dataset)
        model = ellipse_from_eccentricity(5.0, 0.95)
        exact = 0
        for seed in range(20):
            cfg = ExperimentConfig(model=model, n_inliers=100, n_outliers=50,
                                   sigma0=0.01, sigma1=2.0, seed=seed)
            data = make_dataset(cfg)
            seeded = np.random.default_rng(seed + 1000)
            flags = data.truth.outlier.copy()
            out_idx = np.flatnonzero(flags)
            in_idx = np.flatnonzero(~flags)
            flags[seeded.choice(out_idx, 5, replace=False)] = False  # missed
            flags[seeded.choice(in_idx, 5, replace=False)] = True  # misflagged
            result = refine(data.points, DetectionLabels(flags, "proximity"),
                            cfg.refine)
            scores = detection_metrics(result.labels, data.truth)
            false_pos = np.count_nonzero(result.labels.outlier
                                         & ~data.truth.outlier)
            false_neg = np.count_nonzero(result.labels.inlier
                                         & data.truth.outlier)
            assert false_pos <= 3 and false_neg <= 3
            exact += int(scores["precision"] == 1.0
                         and scores["recall"] == 1.0)
        assert exact >= 4

    def test_stage_provenance(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 40), rng.uniform(12, 20, (5, 2))])
        initial = DetectionLabels(np.zeros(45, bool), "proximity")
        result = refine(pts, initial)
        flipped = result.labels.outlier != initial.outlier
        assert set(result.labels.stage[flipped]) <= {"model"}
        assert set(result.labels.stage[~flipped]) <= {"proximity"}

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), dim=st.sampled_from([2, 3]))
    def test_idempotent_after_convergence(self, seed, dim):
        # the plain trajectory restarts from fit(inliers) = the model, so it
        # converges at once; the rescue ignores the labels and at best ties,
        # and the plain trajectory wins ties
        model = ellipse_from_eccentricity(5.0, 0.9) if dim == 2 \
            else random_axis_ellipsoid()
        cfg = ExperimentConfig(model=model, n_inliers=30 * dim,
                               n_outliers=20, sigma0=0.05, sigma1=2.0,
                               seed=seed, outlier_mode="uniform")
        data = make_dataset(cfg)
        flags = data.truth.outlier.copy()
        misflagged = np.random.default_rng(seed).choice(
            np.flatnonzero(~flags), 3, replace=False)
        flags[misflagged] = True
        first = refine(data.points, DetectionLabels(flags, "proximity"))
        assume(first.converged)
        second = refine(data.points, first.labels)
        assert np.array_equal(second.labels.outlier, first.labels.outlier)
        assert tuple(second.labels.stage) == tuple(first.labels.stage)
        assert second.model.values.tobytes() == first.model.values.tobytes()

    @staticmethod
    def missed_outliers_scene(seed):
        """80 noisy points on the 5-4-3 ellipsoid, 20 outliers uniform in
        twice its box, and start labels that miss 3 of the outliers."""
        rng = np.random.default_rng(seed)
        e = random_axis_ellipsoid()
        surface = ellipsoid_boundary_points(
            e, rng.uniform(0.0, 2.0 * math.pi, 80),
            rng.uniform(-math.pi / 2.0, math.pi / 2.0, 80))
        surface = surface + rng.normal(0.0, 0.05, (80, 3))
        box = 2.0 * e.semi_axes
        pts = np.vstack([surface, rng.uniform(-box, box, (20, 3))])
        truth = np.arange(100) >= 80
        start = truth.copy()
        start[rng.choice(np.arange(80, 100), 3, replace=False)] = False
        return pts, truth, DetectionLabels(start, "proximity")

    @staticmethod
    def trajectory(pts, start):
        model, inliers, iterations, converged = modelfit._classification_loop(
            pts, start, fit_ellipsoid_direct, modelfit.MIN_POINTS_ELLIPSOID,
            RefineConfig())
        return (model.values.tobytes(), inliers.tobytes(), iterations,
                converged)

    @staticmethod
    def result_trajectory(result):
        return (result.model.values.tobytes(), result.labels.inlier.tobytes(),
                result.iterations, result.converged)

    @pytest.mark.parametrize("seed, caught", [(1, 20), (14, 19)])
    def test_rescue_stands_when_the_plain_start_fit_fails(self, seed, caught):
        pts, truth, initial = self.missed_outliers_scene(seed)
        with pytest.raises(NotAnEllipsoid):
            fit_ellipsoid_direct(pts[initial.inlier])
        result = refine(pts, initial)
        rescue, _ = modelfit._multistart_concentrate(
            pts, modelfit.MIN_POINTS_ELLIPSOID, 50)
        assert self.result_trajectory(result) == self.trajectory(pts, rescue)
        assert result.converged
        assert np.count_nonzero(result.labels.outlier & truth) == caught

    def test_plain_stands_when_the_rescue_start_fit_fails(self, monkeypatch):
        pts, truth, failing = self.missed_outliers_scene(1)
        # a start without its fit: the loop fits it, and that fails
        monkeypatch.setattr(modelfit, "_multistart_concentrate",
                            lambda *args: (failing.inlier, None))
        result = refine(pts, DetectionLabels(truth, "proximity"))
        assert self.result_trajectory(result) == self.trajectory(pts, ~truth)
        # with both start fits failing, the plain one's error is raised
        with pytest.raises(NotAnEllipsoid):
            refine(pts, failing)


class TestVanillaRansac:
    def test_noiseless_recovery(self, rng):
        e = random_ellipse(rng)
        pts = ellipse_samples(e, 30)
        result = vanilla_ransac(pts, iterations=50, rng_seed=4)
        assert result.labels.inlier.all()
        back = ellipse_from_conic(result.model)
        assert math.isclose(back.a, e.a, rel_tol=1e-6)

    def test_deterministic(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 40, jitter=0.01 * e.b, rng=rng),
                         rng.uniform(-20, 20, (10, 2))])
        r1 = vanilla_ransac(pts, iterations=100, rng_seed=7)
        r2 = vanilla_ransac(pts, iterations=100, rng_seed=7)
        assert np.array_equal(r1.labels.outlier, r2.labels.outlier)
        assert np.array_equal(r1.model.values, r2.model.values)

    def test_explicit_threshold(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 40, jitter=0.005 * e.b, rng=rng),
                         rng.uniform(-30, 30, (8, 2))])
        result = vanilla_ransac(pts, iterations=200,
                                inlier_threshold=0.05 * e.b, rng_seed=1)
        assert np.count_nonzero(result.labels.inlier) >= 35

    def test_no_valid_model(self):
        # all points identical: every minimal sample is degenerate
        pts = np.ones((6, 2))
        from conic_purge import NoValidModel
        with pytest.raises(NoValidModel):
            vanilla_ransac(pts, iterations=10, rng_seed=0)

    def test_whole_float_iterations_taken_as_int(self, rng):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 40, jitter=0.01 * e.b, rng=rng),
                         rng.uniform(-20, 20, (10, 2))])
        whole = vanilla_ransac(pts, iterations=3.0, rng_seed=7)
        count = vanilla_ransac(pts, iterations=3, rng_seed=7)
        assert whole.iterations == 3 and type(whole.iterations) is int
        assert whole.labels.outlier.tobytes() == count.labels.outlier.tobytes()
        assert whole.model.values.tobytes() == count.model.values.tobytes()

    @pytest.mark.parametrize("iterations", [True, np.True_, 3.5])
    def test_iterations_must_be_whole(self, iterations, rng):
        pts = ellipse_samples(random_ellipse(rng), 30)
        with pytest.raises(ValueError,
                           match=r"^iterations .* is not an integer$"):
            vanilla_ransac(pts, iterations=iterations)


    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_points_rejected(self, value, rng):
        pts = ellipsoid_samples(random_ellipsoid(rng), 30)
        pts[7, 2] = value
        with pytest.raises(ValueError, match="coordinates must be finite"):
            vanilla_ransac(pts, iterations=10)

    @pytest.mark.parametrize("iterations", [0, -1])
    def test_rejects_trial_count_below_one(self, iterations, rng):
        pts = ellipse_samples(random_ellipse(rng), 30)
        with pytest.raises(ValueError, match="iterations"):
            vanilla_ransac(pts, iterations=iterations)

    def test_earliest_trial_wins_a_tied_count(self):
        # two disjoint noiseless ellipses of 20 points each: every clean
        # sample of either one has exactly 20 inliers
        first = ellipse_samples(EllipseParams(0.0, 0.0, 4.0, 2.0, 0.0), 20)
        second = ellipse_samples(EllipseParams(30.0, 0.0, 3.0, 1.0, 0.5), 20)
        pts = np.vstack([first, second])
        samples = modelfit._minimal_samples(40, 5, 9, 300)
        clean = (samples < 20).all(axis=1) | (samples >= 20).all(axis=1)
        earliest = samples[np.argmax(clean)]
        result = vanilla_ransac(pts, iterations=300, inlier_threshold=1e-6,
                                rng_seed=9)
        expected = np.arange(40) < 20 if earliest[0] < 20 else \
            np.arange(40) >= 20
        assert np.array_equal(result.labels.inlier, expected)

    def test_block_size_does_not_change_the_result(self, rng, monkeypatch):
        e = random_ellipse(rng)
        pts = np.vstack([ellipse_samples(e, 60, jitter=0.02 * e.b, rng=rng),
                         rng.uniform(-20, 20, (40, 2))])
        for threshold in (None, 0.5):
            case = dict(points=pts, iterations=137,
                        inlier_threshold=threshold, rng_seed=2)
            # 100 points: one trial per block; blocks of 13 trials, the
            # last one short; all 137 trials in one block
            for entries in (1, 1300, 10 ** 9):
                monkeypatch.setattr(modelfit, "_BLOCK_ENTRIES", entries)
                assert matches_reference(
                    ransac_outcome(vanilla_ransac, **case), case)

    @pytest.mark.parametrize("threshold", [math.nan, -1.0, 0.0, math.inf,
                                           -math.inf])
    def test_rejects_a_threshold_that_is_not_positive_and_finite(
            self, threshold, rng, monkeypatch):
        pts = ellipse_samples(random_ellipse(rng), 30)

        def no_draw(*args):
            raise AssertionError("a trial was drawn")

        monkeypatch.setattr(modelfit, "_minimal_samples", no_draw)
        with pytest.raises(ValueError, match="inlier_threshold"):
            vanilla_ransac(pts, iterations=10, inlier_threshold=threshold)

    def test_peak_memory_at_max_points(self):
        # the per-trial implementation peaked at 40.2 MiB here, holding
        # one 1000 x 5000 distance array; batching may add at most 25%
        rng = np.random.default_rng(5)
        e = EllipseParams(1.0, -2.0, 6.0, 3.0, 0.4)
        ring = ellipse_boundary_points(e, rng.uniform(0, 2 * math.pi, 3000))
        pts = np.vstack([ring + rng.normal(0.0, 0.05, ring.shape),
                         rng.uniform(-12, 12, (2000, 2))])
        tracemalloc.start()
        try:
            vanilla_ransac(pts, iterations=1000, rng_seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 40.2 * 2 ** 20


def ransac_outcome(fn, points, **kwargs):
    """Labels, stage tags, model bytes, trial count and convergence of a
    consensus fit, or the type and message of what it raised.  Far points
    overflow the residuals to inf or NaN, so numpy's warnings are off."""
    try:
        with np.errstate(all="ignore"):
            result = fn(points, **kwargs)
    except (ConicPurgeError, ValueError) as exc:
        return type(exc), str(exc)
    return (result.labels.outlier.tobytes(), tuple(result.labels.stage),
            result.model.values.tobytes(), result.iterations,
            result.converged)


def matches_reference(outcome, case) -> bool:
    """Whether a consensus outcome is the reference's on ``case``.  Where no
    point lies within the threshold, the reference ends in DetectionLabels'
    ValueError and vanilla_ransac raises NoValidModel saying so."""
    expected = ransac_outcome(reference_ransac.vanilla_ransac, **case)
    if expected == (ValueError, "labels must keep at least one inlier"):
        return (outcome[0] is NoValidModel
                and "within the inlier threshold" in outcome[1])
    return outcome == expected


# two far points: every model with a nonzero xy term has an inf - inf
# residual, so a NaN distance, at one of them
FAR_POINTS = np.array([[1e200, 1e200], [1e200, -1e200]])


@st.composite
def ransac_cases(draw):
    """Points, trial count, threshold and seed of one consensus fit.

    Points near a random model with uniform scatter mixed in (many trials
    fit a non-ellipse and are rejected); some cases collapse a few points
    onto one (more rejected trials) or all of them (no valid model), move
    a few far out (residuals that overflow to inf or NaN) or, in 2-D, end
    with ``FAR_POINTS`` (NaN medians).
    """
    dim = draw(st.sampled_from([2, 2, 3]))
    low = 5 if dim == 2 else 9
    n = draw(st.sampled_from(range(low, 71)))
    pts = near_model_stack(draw(st.integers(0, 2 ** 32 - 1)), 1, n, dim)[0]
    kind = draw(st.sampled_from(["near"] * 4 + ["collapsed", "one point",
                                                "far", "NaN"]))
    if kind == "collapsed":
        pts[:draw(st.integers(1, 3))] = pts[-1]
    elif kind == "one point":
        pts[:] = pts[-1]
    elif kind == "far":
        pts[:draw(st.integers(1, 3))] *= draw(
            st.sampled_from([1e100, 1e160, 1e300]))
    elif kind == "NaN" and dim == 2:
        pts[-2:] = FAR_POINTS
    threshold = draw(st.sampled_from([None, None, None, 1e-6, 0.05, 1.0]))
    return dict(points=pts, iterations=draw(st.integers(1, 700)),
                inlier_threshold=threshold,
                rng_seed=draw(st.integers(0, 2 ** 32 - 1)))


class TestRansacMatchesReference:
    """One fit batch, distance blocks of about 8k entries, only the
    medians that can lower the threshold and cheap distances that decide
    only what they certify: the outputs and refusals stay those of the
    per-block, every-median implementation on exact distances, bit for
    bit."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(case=ransac_cases(), entries=st.sampled_from([1, 150, None]))
    def test_matches_reference(self, case, entries):
        # one trial per block keeps the running best median strictly
        # sequential, so the pruning skips the most rows
        with mock.patch.object(modelfit, "_BLOCK_ENTRIES",
                               entries or modelfit._BLOCK_ENTRIES):
            outcome = ransac_outcome(vanilla_ransac, **case)
        assert matches_reference(outcome, case)

    @pytest.mark.parametrize("n", [5, 6, 7, 8, 189, 190])
    @pytest.mark.parametrize("iterations", [1, 43, 44, 1000])
    def test_point_and_trial_counts(self, n, iterations):
        # 190 points: 43 trials per block, so 44 and 1000 end short
        cfg = FREEZE_SCENARIOS["ransac2d"]
        pts = make_dataset(cfg).points[-n:]
        for threshold in (None, 0.3):
            case = dict(points=pts, iterations=iterations,
                        inlier_threshold=threshold, rng_seed=n)
            assert matches_reference(ransac_outcome(vanilla_ransac, **case),
                                     case)

    def test_every_median_nan(self, rng):
        pts = np.vstack([ellipse_samples(random_ellipse(rng), 40,
                                         jitter=0.01, rng=rng), FAR_POINTS])
        samples = modelfit._minimal_samples(len(pts), 5, 3, 200)
        values, ok = _fit_direct_batch(pts[samples])
        with np.errstate(all="ignore"):
            medians = np.median(np.abs(signed_residuals(pts, values[ok])),
                                axis=1)
        assert ok.any() and np.isnan(medians).all()
        # the threshold is NaN, so no point is an inlier: the reference
        # refuses the labels, and vanilla_ransac raises NoValidModel; a
        # given threshold still counts
        for threshold in (None, 0.1):
            case = dict(points=pts, iterations=200,
                        inlier_threshold=threshold, rng_seed=3)
            outcome = ransac_outcome(vanilla_ransac, **case)
            assert matches_reference(outcome, case)
            assert (outcome[0] is NoValidModel) == (threshold is None)
            if threshold is None:
                assert "median distance is NaN" in outcome[1]

    def test_threshold_below_every_distance(self):
        # a minimal sample's own distances are often exactly 0; none of
        # these 50 trials has one
        rng = np.random.default_rng(9)
        pts = ellipse_samples(random_ellipse(rng), 40, jitter=0.05, rng=rng)
        case = dict(points=pts, iterations=50, inlier_threshold=1e-300,
                    rng_seed=1)
        outcome = ransac_outcome(vanilla_ransac, **case)
        assert outcome == (NoValidModel, "no point lies within the inlier "
                           "threshold 1e-300 of any trial's model")
        assert matches_reference(outcome, case)

    @staticmethod
    def distances(pts, iterations, seed):
        """The cheap and the exact distances of each trial, which trials
        were accepted (planted fits included) and which rows the cheap
        pass cannot certify."""
        size = modelfit._dim_tools(pts, None)[1]
        samples = modelfit._minimal_samples(len(pts), size, seed, iterations)
        values, ok = modelfit._fit_direct_batch(pts[samples])
        cheap = np.empty((iterations, len(pts)))
        with np.errstate(all="ignore"):
            uncertified = modelfit._cheap_distances(pts, values, cheap)
            exact = np.abs(signed_residuals(pts, values))
        return cheap, exact, ok, uncertified

    @staticmethod
    def exact_rows(monkeypatch):
        """A list that counts the rows vanilla_ransac asks
        signed_residuals for."""
        rows = []

        def counted(pts, values):
            rows.append(len(values))
            return signed_residuals(pts, values)

        monkeypatch.setattr(modelfit, "signed_residuals", counted)
        return rows

    @staticmethod
    def check(case, entries):
        with mock.patch.object(modelfit, "_BLOCK_ENTRIES",
                               entries or modelfit._BLOCK_ENTRIES):
            outcome = ransac_outcome(vanilla_ransac, **case)
        assert matches_reference(outcome, case)
        return outcome

    @pytest.mark.parametrize("entries", [1, 150, None])
    def test_threshold_at_an_exact_distance(self, entries):
        # thresholds inside the band of the winner's cheap distances: the
        # exact distance of a point whose cheap one lies above it, and just
        # below the exact distance of one whose cheap one lies below
        pts = make_dataset(FREEZE_SCENARIOS["ransac2d"]).points
        cheap, exact, ok, _ = self.distances(pts, 200, 5)
        best = np.argmax(np.where(ok, (exact <= 0.3).sum(axis=1), -1))
        gap = np.abs(exact[best] - 0.3)
        above = np.flatnonzero(cheap[best] > exact[best])
        below = np.flatnonzero(cheap[best] < exact[best])
        assert above.size and below.size
        for tau in (exact[best, above[np.argmin(gap[above])]],
                    np.nextafter(exact[best, below[np.argmin(gap[below])]],
                                 0.0)):
            self.check(dict(points=pts, iterations=200,
                            inlier_threshold=float(tau), rng_seed=5),
                       entries)

    @staticmethod
    def plant(monkeypatch, change):
        """Trial fits changed in place by ``change(values, ok)`` in
        vanilla_ransac and the reference alike (the one-row refit is left
        alone)."""
        def planted(samples):
            values, ok = _fit_direct_batch(samples)
            change(values, ok)
            return values, ok

        monkeypatch.setattr(modelfit, "_fit_direct_batch", planted)
        monkeypatch.setattr(reference_ransac, "_fit_direct_batch", planted)

    @staticmethod
    def record_thresholds(monkeypatch):
        """A list of the thresholds vanilla_ransac bounds: the best
        medians so far, then the consensus threshold."""
        thresholds = []
        band = modelfit._band
        monkeypatch.setattr(modelfit, "_band", lambda t, margin: (
            thresholds.append(t), band(t, margin))[1])
        return thresholds

    @pytest.mark.parametrize("entries", [1, 150, None])
    def test_point_at_the_centre_of_a_circle(self, entries, monkeypatch):
        # every fifth trial's model is planted as an exact circle about
        # the origin, where one point lies: a zero gradient there
        rng = np.random.default_rng(4)
        ring = ellipse_samples(EllipseParams(0.0, 0.0, 1.0, 1.0, 0.0), 60,
                               jitter=0.01, rng=rng)
        pts = np.vstack([ring, np.zeros((1, 2)),
                         rng.uniform(-2.0, 2.0, (20, 2))])
        circle = np.array([1.0, 0.0, 1.0, 0.0, 0.0, -1.0]) / math.sqrt(3.0)

        def circles(values, ok):
            values[::5], ok[::5] = circle, True

        self.plant(monkeypatch, circles)
        out = np.empty((2, len(pts)))
        assert modelfit._cheap_distances(
            pts, np.array([circle, circle * 2.0]), out).all()
        for threshold in (None, 0.02):
            self.check(dict(points=pts, iterations=100,
                            inlier_threshold=threshold, rng_seed=8),
                       entries)

    @pytest.mark.parametrize("entries", [1, 150, None])
    @pytest.mark.parametrize("points_power, fits_power", [(-240, -600),
                                                          (240, 600)])
    def test_squares_that_overflow_or_underflow(self, entries, points_power,
                                                fits_power, monkeypatch):
        # fits of points scaled beyond about 2^+-260 are refused, and those
        # of points scaled by 2^+-240 keep their squares normal; every other
        # fit scaled by 2^+-600 has squares that overflow to inf or
        # underflow to 0 where hypot's do not
        pts = make_dataset(FREEZE_SCENARIOS["ransac2d"]).points
        scale = 2.0 ** points_power
        assert self.distances(pts * scale, 150, 6)[2].any()
        for threshold in (None, 0.3 * scale):
            self.check(dict(points=pts * scale, iterations=150,
                            inlier_threshold=threshold, rng_seed=6), entries)

        def scaled(values, ok):
            values[::2] *= 2.0 ** fits_power

        self.plant(monkeypatch, scaled)
        _, _, ok, uncertified = self.distances(pts, 150, 6)
        assert uncertified[::2].all() and ok[::2].any()
        assert not (uncertified & ok)[1::2].any()
        for threshold in (None, 0.3):
            self.check(dict(points=pts, iterations=150,
                            inlier_threshold=threshold, rng_seed=6), entries)

    @pytest.mark.parametrize("entries", [1, 150, None])
    def test_threshold_is_the_every_median_threshold(self, entries,
                                                     monkeypatch):
        # the calibrated threshold is the one of every trial's exact
        # median, bit for bit
        pts = make_dataset(FREEZE_SCENARIOS["ransac2d"]).points
        thresholds = self.record_thresholds(monkeypatch)
        _, exact, ok, _ = self.distances(pts, 300, 11)
        best_med = np.fmin.reduce(np.median(exact[ok], axis=1))
        self.check(dict(points=pts, iterations=300, inlier_threshold=None,
                        rng_seed=11), entries)
        assert thresholds[-1] == max(3.0 * modelfit.MAD_TO_SIGMA * best_med,
                                     modelfit._TAU_FLOOR)

    @classmethod
    def synthetic(cls, monkeypatch, exact, factor):
        """vanilla_ransac and the reference on a table of exact distances:
        trial i fits the circle x^2 + y^2 = i + 1, whose exact distances
        are row i of ``exact`` and whose cheap ones are that row times
        ``factor(row)``.  Returns the thresholds vanilla_ransac bounds."""
        iterations = exact.shape[0]
        circles = np.zeros((iterations, 6))
        circles[:, [0, 2]] = 1.0
        circles[:, 5] = -1.0 - np.arange(iterations)

        def trials(values):
            return np.rint(-np.asarray(values)[..., 5] - 1.0).astype(int)

        def fitted(samples):
            return circles[:len(samples)].copy(), np.ones(len(samples), bool)

        def cheap(pts, values, out):
            out[:] = exact[trials(values)]
            out *= factor(out)
            return np.zeros(len(out), dtype=bool)

        for module in (modelfit, reference_ransac):
            monkeypatch.setattr(module, "_fit_direct_batch", fitted)
            monkeypatch.setattr(module, "signed_residuals",
                                lambda pts, values: exact[trials(values)])
        monkeypatch.setattr(modelfit, "_cheap_distances", cheap)
        return cls.record_thresholds(monkeypatch)

    @pytest.mark.parametrize("entries", [1, 150, None])
    def test_decisions_hold_within_the_bound(self, entries, monkeypatch):
        # cheap distances 2^-42 off the exact ones, as far as a hypot
        # within 1000 ulps could put them, on the side that misleads
        pts = ellipse_samples(EllipseParams(0.0, 0.0, 3.0, 2.0, 0.3), 21)
        step = 2.0 ** -42
        # medians 1 - i 2^-46 (11th of 21 entries): each trial lowers the
        # best median, by less than the error of its cheap distances
        profile = np.concatenate([np.linspace(0.2, 0.9, 10), [1.0],
                                  np.linspace(1.1, 3.0, 10)])
        rows = (1.0 - np.arange(60) * 2.0 ** -46)[:, None] * profile
        rows = np.random.default_rng(1).permuted(rows, axis=1)
        thresholds = self.synthetic(monkeypatch, rows,
                                    lambda row: 1.0 + step)
        self.check(dict(points=pts, iterations=60, inlier_threshold=None,
                        rng_seed=0), entries)
        assert thresholds[-1] == 3.0 * modelfit.MAD_TO_SIGMA * np.median(
            rows[-1])
        # at the threshold 1: trial 0 counts 9; trial 1 counts 10, one of
        # them at 1 exactly, and wins; trial 2 counts 10 other points, and
        # one just above 1 whose cheap distance lies below it
        rows = np.full((3, 21), 2.0)
        rows[:2, :9] = 0.5
        rows[1, 9] = 1.0
        rows[2, 11:] = 0.5
        rows[2, 10] = 1.0 + 2.0 ** -50
        self.synthetic(monkeypatch, rows,
                       lambda row: np.where(row <= 1.0, 1.0 + step,
                                            1.0 - step))
        outcome = self.check(dict(points=pts, iterations=3,
                                  inlier_threshold=1.0, rng_seed=0), entries)
        assert outcome[0] == (np.arange(21) >= 10).tobytes()

    @pytest.mark.parametrize("entries", [1, 150, None])
    def test_quadrics_recompute_nothing(self, entries, monkeypatch):
        # the cheap distance is the exact one: margin 0
        pts = make_dataset(FREEZE_SCENARIOS["ellipsoid3d"]).points
        rows = self.exact_rows(monkeypatch)
        for threshold in (None, 0.3):
            self.check(dict(points=pts, iterations=300,
                            inlier_threshold=threshold, rng_seed=3),
                       entries)
        assert rows == []

    @pytest.mark.parametrize("entries", [1, 150, None])
    def test_fewer_exact_rows_than_trials(self, entries, monkeypatch):
        pts = make_dataset(FREEZE_SCENARIOS["ransac2d"]).points
        rows = self.exact_rows(monkeypatch)
        self.check(dict(points=pts, iterations=1000, inlier_threshold=None,
                        rng_seed=101), entries)
        # the medians' candidates, the rows recounted and the winner's mask
        assert 0 < sum(rows) < 1000

    def test_no_inlier_is_a_recorded_failure(self, monkeypatch):
        # a NaN scale makes the threshold NaN, as NaN medians do:
        # run_experiment records the refusal as a failed fit
        cfg = FREEZE_SCENARIOS["ransac2d"]
        monkeypatch.setattr(modelfit, "MAD_TO_SIGMA", math.nan)
        record = run_experiment(cfg, "ransac", 20)
        assert record.model_json is None and record.nonoverlap == math.inf


# SHA-256 of (outlier flags, stage tags, model coefficient bytes), recorded
# with the per-trial implementation of vanilla_ransac and the multistart
# rescue (numpy 2.4, OpenBLAS, x86_64).  A change to how trials are fitted
# must leave them as they are; a different BLAS build may round the last
# bits differently, in which case record them again from the unchanged code.
FROZEN_DIGESTS = {
    ("ransac2d", "ransac"):
        "7c13f1f036ba6eef79d6c0f6de51eb662839f1e8931a99c5dbb4f72f126e2b1c",
    ("ransac2d", "refine"):
        "0d3516a0f6f8f2beaa11dd986442533b33299a07a18420a1fcb592d6eb6e65c8",
    ("typical2d", "ransac"):
        "fc892215b9309d6a1aa1a029d2c76272d82504aef2bfacceb1080d0f99f3e065",
    ("typical2d", "refine"):
        "4dc664d4c5dfd7659e638a4cdb3eaa26aeebf87cb5e6c79fdb597554d9d22ed4",
    ("ellipsoid3d", "ransac"):
        "f5cd46fb3f0e119c31db1e158de550e70b3f4df075c8f263a54a67122383e56d",
    ("ellipsoid3d", "refine"):
        "7d9bfeec65953de4420313e87fd618f68f84b24a85700fc3b26d95593a95983f",
}


def fit_digest(result) -> str:
    h = hashlib.sha256()
    h.update(result.labels.outlier.tobytes())
    h.update("\n".join(map(str, result.labels.stage)).encode())
    h.update(result.model.values.tobytes())
    return h.hexdigest()


def planted_labels(data, seed) -> DetectionLabels:
    """Ground truth with 5 missed outliers and 5 misflagged inliers."""
    flags = data.truth.outlier.copy()
    rng = np.random.default_rng(seed)
    flags[rng.choice(np.flatnonzero(flags), 5, replace=False)] = False
    flags[rng.choice(np.flatnonzero(~flags), 5, replace=False)] = True
    return DetectionLabels(flags, "proximity")


@pytest.mark.parametrize("scenario", sorted(FREEZE_SCENARIOS))
def test_outputs_frozen(scenario):
    cfg = FREEZE_SCENARIOS[scenario]
    data = make_dataset(cfg)
    ransac = vanilla_ransac(data.points, iterations=1000, rng_seed=cfg.seed)
    refined = refine(data.points, planted_labels(data, cfg.seed), cfg.refine)
    assert fit_digest(ransac) == FROZEN_DIGESTS[scenario, "ransac"]
    assert fit_digest(refined) == FROZEN_DIGESTS[scenario, "refine"]


def _scenario(n_inliers, n_outliers, sigma0, sigma1, seed, model=None):
    return ExperimentConfig(
        model=model or ellipse_from_eccentricity(5.0, 0.95),
        n_inliers=n_inliers, n_outliers=n_outliers, sigma0=sigma0,
        sigma1=sigma1, seed=seed)


# datasets of the criterion 3-7 scenario shapes, at the seeds the criteria
# draw; the last four are datasets on which entering the rescue trajectory
# with the concentration kernel's batched row, in place of the one-sample
# fit of its half-set, changed the model bits
REFINE_CASES = {
    "c3-typical": _scenario(100, 50, 0.01, 2.0, 3),
    "c4-m10": _scenario(100, 10, 0.1, 3.0, sweep_trial_seed(42, 0, 1)),
    "c4-m55": _scenario(100, 55, 0.1, 3.0, sweep_trial_seed(42, 5, 2)),
    "c5-m50": _scenario(100, 50, 0.1, 5.0, sweep_trial_seed(7, 2, 0)),
    "c5-m90": _scenario(100, 90, 0.1, 5.0, sweep_trial_seed(7, 4, 3)),
    "c6-s0.1": _scenario(120, 90, 0.1, 0.1, sweep_trial_seed(3, 0, 0)),
    "c6-s0.9": _scenario(120, 90, 0.1, 0.9, sweep_trial_seed(3, 4, 5)),
    "c7-ellipsoid": _scenario(
        300, 50, 0.1, 5.0, 4,
        EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]), np.eye(3))),
    "m90-s3-1012": _scenario(100, 90, 0.1, 3.0, 1012),
    "m90-s5-1004": _scenario(100, 90, 0.1, 5.0, 1004),
    "c6-s0.7-1014": _scenario(120, 90, 0.1, 0.7, 1014),
    "c6-s0.9-1038": _scenario(120, 90, 0.1, 0.9, 1038),
}


def refine_outcome(fn, points, initial, cfg):
    """Labels, stage tags, model bytes, iterations and convergence of a
    refine, or the type of what it raised."""
    try:
        result = fn(points, initial, cfg)
    except ConicPurgeError as exc:
        return type(exc)
    return (result.labels.outlier.tobytes(), tuple(result.labels.stage),
            result.model.values.tobytes(), result.iterations,
            result.converged)


class TestConcentrationKernel:
    """Both refine trajectories and every concentration step run one code
    path; the outputs stay those of the two C-step implementations it
    replaced, bit for bit."""

    @pytest.mark.parametrize("case", sorted(REFINE_CASES))
    def test_refine_matches_reference(self, case):
        cfg = REFINE_CASES[case]
        pts = make_dataset(cfg).points
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # flag budget
            proximity = proximity_stage(pts, cfg.eligibility, cfg.seed)
        everything = DetectionLabels(np.zeros(len(pts), dtype=bool), "model")
        for initial in (proximity, everything):
            assert refine_outcome(refine, pts, initial, cfg.refine) == \
                refine_outcome(reference_refine.refine, pts, initial,
                               cfg.refine)

    @pytest.mark.parametrize("case", ["c5-m90", "c7-ellipsoid"])
    @pytest.mark.parametrize("steps", [2, 30])
    def test_stack_rows_are_independent(self, case, steps):
        cfg = REFINE_CASES[case]
        pts = make_dataset(cfg).points
        size = 5 if pts.shape[1] == 2 else 9
        samples = modelfit._minimal_samples(len(pts), size, cfg.seed, 16)
        values, ok = _fit_direct_batch(pts[samples])
        values = values[ok]
        half = (len(pts) + 1) // 2
        stacked, cores = modelfit._concentrate(pts, values, half, steps)
        fitter = fit_ellipse_direct if pts.shape[1] == 2 \
            else fit_ellipsoid_direct
        for i in range(len(values)):
            row, core = modelfit._concentrate(pts, values[i:i + 1], half,
                                              steps)
            assert row.tobytes() == stacked[i].tobytes()
            assert np.array_equal(core[0], cores[i])
            # a row's model is the one-sample fit of its last half-set
            assert core[0, 0] >= 0
            assert np.all(np.diff(core[0]) > 0)
            assert fitter(pts[core[0]]).values.tobytes() == row.tobytes()

    @pytest.mark.parametrize("dim, n", [(2, 5), (2, 60), (3, 9), (3, 60)])
    def test_batch_rows_are_public_fits(self, dim, n):
        # the kernel refits with the batch fit, the trajectories start from
        # the public fit: the two agree bit for bit, rejections too
        samples = near_model_stack(7 + n, 40, n, dim)
        values, ok = _fit_direct_batch(samples)
        public = fit_ellipse_direct if dim == 2 else fit_ellipsoid_direct
        for sample, row, passed in zip(samples, values, ok):
            outcome = fit_outcome(public, sample)
            assert bool(passed) == (not isinstance(outcome, type))
            if passed:
                assert outcome == row.tobytes()
        assert ok.any()

    def test_empty_stack(self):
        pts = make_dataset(REFINE_CASES["c3-typical"]).points
        values, cores = modelfit._concentrate(pts, np.zeros((0, 6)), 75, 30)
        assert values.shape == (0, 6) and cores.shape == (0, 75)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 3]), n=st.integers(12, 800),
           seed=st.integers(0, 2 ** 32 - 1), data=st.data())
    def test_blocked_rows_equal_rows_alone(self, dim, n, seed, data):
        # the stack runs in row blocks of at most 16k entries; with up to
        # three blocks' worth of rows every row, models, cores and trimmed
        # objective, is still the row run alone
        per_block = modelfit._STACK_BLOCK_ENTRIES // n
        count = data.draw(st.integers(1, min(3 * per_block + 1, 90)))
        steps = data.draw(st.sampled_from([1, 2]))
        pts = near_model_stack(seed, 1, n, dim)[0]
        size = 5 if dim == 2 else 9
        samples = modelfit._minimal_samples(n, size, seed, count)
        values, ok = _fit_direct_batch(pts[samples])
        assume(ok.any())
        values = values[ok]
        half = modelfit._trim_size(pts, size)
        blocks = modelfit._row_blocks(len(values), n)
        assert [i for b in blocks for i in range(len(values))[b]] == \
            list(range(len(values)))
        assert all(len(range(len(values))[b]) * n
                   <= modelfit._STACK_BLOCK_ENTRIES for b in blocks)
        stacked, cores = modelfit._concentrate(pts, values, half, steps)
        objectives = modelfit._trimmed_objectives(pts, values, half)
        for i in range(len(values)):
            row, core = modelfit._concentrate(pts, values[i:i + 1], half,
                                              steps)
            assert row.tobytes() == stacked[i].tobytes()
            assert np.array_equal(core[0], cores[i])
            alone = modelfit._trimmed_objectives(pts, values[i:i + 1], half)
            assert alone.tobytes() == objectives[i:i + 1].tobytes()

    def test_rescue_start_memory(self):
        # the C-steps hold one row block of residual temporaries at a
        # time; the whole 60 x 800 stack peaked at 3.13 MiB
        pts = make_dataset(LARGE_SPECTRUM_SCENARIO).points
        modelfit.rescue_start(pts)  # draws the cached minimal samples
        tracemalloc.start()
        try:
            modelfit.rescue_start(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * 2 ** 20


class TestRescueSamples:
    """The rescue's minimal samples are drawn once per (n, size) and shared
    read-only; refine's outputs do not depend on the cache's state."""

    @pytest.mark.parametrize("n, size", [(12, 5), (150, 5), (40, 7),
                                         (20, 9), (350, 9), (60, 13)])
    def test_cached_draw_is_the_seeded_draw(self, n, size):
        modelfit._rescue_samples.cache_clear()
        cold = modelfit._rescue_samples(n, size)
        expected = modelfit._minimal_samples(
            n, size, modelfit._MULTISTART_SEED, modelfit._MULTISTART_SAMPLES)
        assert cold.dtype == expected.dtype
        assert np.array_equal(cold, expected)
        assert modelfit._rescue_samples(n, size) is cold

    def test_cached_draw_is_read_only(self):
        samples = modelfit._rescue_samples(150, 5)
        with pytest.raises(ValueError, match="read-only"):
            samples[0, 0] = 1
        with pytest.raises(ValueError, match="read-only"):
            samples += 1
        assert np.array_equal(samples, modelfit._minimal_samples(
            150, 5, modelfit._MULTISTART_SEED, modelfit._MULTISTART_SAMPLES))

    @pytest.mark.parametrize("case", sorted(REFINE_CASES))
    def test_cold_and_warm_refine_agree(self, case):
        cfg = REFINE_CASES[case]
        data = make_dataset(cfg)
        initial = planted_labels(data, cfg.seed)
        modelfit._rescue_samples.cache_clear()
        cold = refine_outcome(refine, data.points, initial, cfg.refine)
        hits = modelfit._rescue_samples.cache_info().hits
        warm = refine_outcome(refine, data.points, initial, cfg.refine)
        assert modelfit._rescue_samples.cache_info().hits == hits + 1
        assert cold == warm == refine_outcome(
            reference_refine.refine, data.points, initial, cfg.refine)

    @pytest.mark.parametrize("min_points", [None, 7])
    def test_more_point_counts_than_the_cache_holds(self, min_points):
        # round-robin over more distinct n than the cache keeps, twice, so
        # every call of the second round finds its entry evicted
        data = make_dataset(REFINE_CASES["c5-m50"])
        cfg = RefineConfig(min_points=min_points)
        count = modelfit._rescue_samples.cache_info().maxsize + 2
        cases = []
        for n in range(100, 100 + 6 * count, 6):
            pts = data.points[:n]
            cases.append((pts, DetectionLabels(data.truth.outlier[:n],
                                               "proximity")))
        modelfit._rescue_samples.cache_clear()
        expected = [refine_outcome(reference_refine.refine, pts, initial, cfg)
                    for pts, initial in cases]
        for _ in range(2):
            assert [refine_outcome(refine, pts, initial, cfg)
                    for pts, initial in cases] == expected
        assert modelfit._rescue_samples.cache_info().hits == 0
        assert modelfit._rescue_samples.cache_info().currsize == \
            modelfit._rescue_samples.cache_info().maxsize


class TestRescueStart:
    """A rescue trajectory run by ``rescue_start`` and handed to refine
    gives the bits of the one refine computes itself."""

    CASES = {**REFINE_CASES,
             **{f"freeze-{name}": cfg
                for name, cfg in FREEZE_SCENARIOS.items()}}

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_given_rescue_is_computed_rescue(self, case):
        cfg = self.CASES[case]
        data = make_dataset(cfg)
        everything = DetectionLabels(np.zeros(len(data.points), dtype=bool),
                                     "model")
        for initial in (planted_labels(data, cfg.seed), everything):
            expected = refine_outcome(refine, data.points, initial,
                                      cfg.refine)
            rescue = modelfit.rescue_start(data.points, cfg.refine)
            given = functools.partial(refine, rescue=rescue)
            assert refine_outcome(given, data.points, initial,
                                  cfg.refine) == expected

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_loop_starts_from_the_concentration_fit(self, case,
                                                    monkeypatch):
        # the start's fit is the public fit of its half-set, bit for bit,
        # and the loop does not fit that half-set again
        pts = make_dataset(self.CASES[case]).points
        fitter, min_points = modelfit._dim_tools(pts, None)
        start, model = modelfit._multistart_concentrate(
            pts, min_points, modelfit._trim_size(pts, min_points))
        refit = fitter(pts[start])
        assert type(model) is type(refit)
        assert model.values.tobytes() == refit.values.tobytes()
        fitted = []
        name = fitter.__name__
        monkeypatch.setattr(modelfit, name, lambda sample: (
            fitted.append(sample), fitter(sample))[1])
        outcome = modelfit.rescue_start(pts)
        assert not any(np.array_equal(sample, pts[start])
                       for sample in fitted)
        monkeypatch.setattr(modelfit, name, fitter)
        loop = modelfit._classification_loop(pts, start, fitter, min_points,
                                             RefineConfig())
        assert outcome[0].values.tobytes() == loop[0].values.tobytes()
        assert [np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
                for a, b in zip(outcome[1:], loop[1:])] == [True] * 3

    def test_the_loop_runs_once(self, monkeypatch):
        data = make_dataset(REFINE_CASES["c7-ellipsoid"])
        rescue = modelfit.rescue_start(data.points)
        assert rescue is not None
        monkeypatch.setattr(modelfit, "_multistart_concentrate", None)
        starts = []
        original = modelfit._classification_loop
        monkeypatch.setattr(
            modelfit, "_classification_loop",
            lambda pts, start, *args: starts.append(start)
            or original(pts, start, *args))
        initial = planted_labels(data, 4)
        refine(data.points, initial, rescue=rescue)
        assert len(starts) == 1
        assert np.array_equal(starts[0], initial.inlier)

    @pytest.mark.parametrize("error", [DegenerateConfiguration,
                                       NotAnEllipse, NotAnEllipsoid])
    @pytest.mark.parametrize("by_caller", [False, True])
    def test_fit_error_in_the_loop_is_no_rescue(self, monkeypatch, error,
                                                by_caller):
        # the rescue loop's fit fails: refine keeps the plain trajectory,
        # whether it or the caller ran the loop, as with no rescue at all
        data = make_dataset(REFINE_CASES["c5-m90"])
        initial = planted_labels(data, 2)
        mask = rescue_mask(data.points)
        original = modelfit._classification_loop

        def failing(pts, start, *args):
            if np.array_equal(start, mask):
                raise error("planted")
            return original(pts, start, *args)

        monkeypatch.setattr(modelfit, "_classification_loop", failing)
        run = refine
        if by_caller:
            rescue = modelfit.rescue_start(data.points)
            assert rescue is None
            run = functools.partial(refine, rescue=rescue)
        given = refine_outcome(run, data.points, initial, None)
        assert given == refine_outcome(refine, data.points, initial, None)
        assert given == refine_outcome(functools.partial(refine, rescue=None),
                                       data.points, initial, None)

    def test_other_loop_errors_propagate(self, monkeypatch):
        # an error other than a fit's leaves the caller no outcome to hand
        # over; refine then computes its own rescue, as without a caller
        data = make_dataset(REFINE_CASES["c3-typical"])
        initial = planted_labels(data, 3)
        expected = refine_outcome(refine, data.points, initial, None)
        original = modelfit._classification_loop

        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(modelfit, "_classification_loop", interrupted)
        with pytest.raises(KeyboardInterrupt):
            modelfit.rescue_start(data.points)
        monkeypatch.setattr(modelfit, "_classification_loop", original)
        starts = []
        original_start = modelfit._multistart_concentrate
        monkeypatch.setattr(modelfit, "_multistart_concentrate",
                            lambda *args: starts.append(args)
                            or original_start(*args))
        assert refine_outcome(refine, data.points, initial, None) == expected
        assert len(starts) == 1

    def test_none_is_no_rescue(self, monkeypatch):
        data = make_dataset(REFINE_CASES["c5-m90"])
        initial = planted_labels(data, 1)
        given = refine_outcome(functools.partial(refine, rescue=None),
                               data.points, initial, None)
        monkeypatch.setattr(modelfit, "_multistart_concentrate",
                            lambda *args: None)
        assert given == refine_outcome(refine, data.points, initial, None)
        assert modelfit.rescue_start(data.points) is None

    def test_a_given_rescue_is_not_recomputed(self, monkeypatch):
        data = make_dataset(REFINE_CASES["c3-typical"])
        rescue = modelfit.rescue_start(data.points)
        monkeypatch.setattr(modelfit, "_multistart_concentrate", None)
        refine(data.points, planted_labels(data, 3), rescue=rescue)

    @pytest.mark.parametrize("points, cfg", [
        (np.ones((20, 4)), None),
        (np.full((20, 2), np.nan), None),
        (np.ones((20, 3)), RefineConfig(min_points=8)),
    ], ids=["4-columns", "non-finite", "min_points"])
    def test_refuses_what_refine_refuses(self, points, cfg):
        initial = DetectionLabels(np.zeros(len(points), dtype=bool), "model")
        with pytest.raises(ValueError) as refused:
            refine(points, initial, cfg)
        with pytest.raises(ValueError, match=re.escape(str(refused.value))):
            modelfit.rescue_start(points, cfg)


class TestRansacSuccessProb:
    def test_trial_counts_for_99_percent(self):
        # frozen against direct evaluation of 1 - (1 - w^n)^k
        assert ransac_success_prob(0.5, 5, 146) >= 0.99
        assert math.isclose(ransac_success_prob(0.5, 5, 146),
                            0.9902969009414679, abs_tol=1e-12)
        assert ransac_success_prob(0.5, 9, 2356) >= 0.99
        assert math.isclose(ransac_success_prob(0.5, 9, 2356),
                            0.9900089148955147, abs_tol=1e-12)

    def test_line_case_rounding(self):
        # 16 trials land just under 0.99; 17 clear it
        assert ransac_success_prob(0.5, 2, 16) == pytest.approx(
            0.9899774042423815, abs=1e-12)
        assert ransac_success_prob(0.5, 2, 16) < 0.99 < \
            ransac_success_prob(0.5, 2, 17)

    def test_zero_trials(self):
        assert ransac_success_prob(0.3, 5, 0) == 0.0

    def test_counts_are_whole_numbers(self):
        assert ransac_success_prob(0.5, 5.0, 146.0) == \
            ransac_success_prob(0.5, 5, 146)
        for n, k, named in ((5, 10.5, "k 10.5"), (5.5, 10, "n 5.5"),
                            (True, 10, "n True"), (5, False, "k False")):
            with pytest.raises(ValueError,
                               match=f"^{named} is not an integer"):
                ransac_success_prob(0.5, n, k)

    def test_monotonicity(self, rng):
        for _ in range(200):
            w = rng.uniform(0.05, 1.0)
            n = int(rng.integers(1, 12))
            k = int(rng.integers(0, 3000))
            p = ransac_success_prob(w, n, k)
            assert 0.0 <= p <= 1.0
            assert ransac_success_prob(min(1.0, w * 1.1), n, k) >= p - 1e-15
            assert ransac_success_prob(w, n + 1, k) <= p + 1e-15
            assert ransac_success_prob(w, n, k + 10) >= p - 1e-15

    def test_domain_checks(self):
        with pytest.raises(ValueError):
            ransac_success_prob(0.0, 5, 10)
        with pytest.raises(ValueError):
            ransac_success_prob(0.5, 0, 10)
        with pytest.raises(ValueError):
            ransac_success_prob(0.5, 5, -1)
