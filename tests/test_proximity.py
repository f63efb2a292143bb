import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conic_purge import (EligibilityConfig, ExperimentConfig, NoEligibleVectors,
                         TooFewPoints, ZeroVector, detect_1d,
                         high_frequency_measure, make_dataset, proximity_stage,
                         select_eligible)
from conic_purge import proximity
from conic_purge.geometry import EllipseParams, ellipse_boundary_points
from conic_purge.proximity import (_row_quartiles, spectrum_of_points,
                                   spike_ratio)
from conic_purge.spectral import (Spectrum, generalized_eigs, graph_laplacian)

import reference_proximity
from conftest import FREEZE_SCENARIOS, LARGE_SPECTRUM_SCENARIO


MILD_ELLIPSE = EllipseParams(0.0, 0.0, 5.0, 4.0, 0.0)


def ring_with_noise(rng, n=100, sigma=0.01, model=MILD_ELLIPSE, spread_evenly=True):
    if spread_evenly:
        angles = np.linspace(0.0, 2.0 * math.pi, n + 1)[:-1] + rng.uniform(0, 6.28)
    else:
        angles = rng.uniform(0.0, 2.0 * math.pi, n)
    return ellipse_boundary_points(model, angles) + rng.normal(0, sigma, (n, 2))


def two_block_spectrum(sizes=(1, 5), coupling=1e-6) -> Spectrum:
    k = sum(sizes)
    w = np.full((k, k), coupling)
    start = 0
    for size in sizes:
        w[start:start + size, start:start + size] = 1.0
        start += size
    return generalized_eigs(graph_laplacian(w))


class TestHighFrequencyMeasure:
    def test_uniform_sign_is_zero(self):
        assert high_frequency_measure(np.ones(4)) == 0.0

    def test_alternating_is_one(self):
        assert high_frequency_measure(np.array([1.0, -1.0, 1.0, -1.0])) == 1.0

    def test_hand_value(self):
        # sum|v| = 3.0, |sum v| = 2.8
        v = np.array([1.0, 1.0, 0.9, -0.1])
        assert math.isclose(high_frequency_measure(v), (3.0 - 2.8) / 3.0)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            high_frequency_measure(np.zeros(3))


class TestEligibilityConfig:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("knob", [
        "eig_threshold", "hf_threshold", "gamma", "max_flag_fraction",
        "strong_eig_threshold", "binary_ratio"])
    def test_non_finite_knob_rejected(self, knob, value):
        with pytest.raises(ValueError, match=knob):
            EligibilityConfig(**{knob: value})

    @pytest.mark.parametrize("knob", [
        field.name for field in dataclasses.fields(EligibilityConfig)])
    def test_bool_knobs_refused(self, knob):
        with pytest.raises(ValueError, match=f"{knob} True is not"):
            EligibilityConfig(**{knob: True})

    @pytest.mark.parametrize("knob", [
        "eig_threshold", "hf_threshold", "gamma", "max_flag_fraction",
        "strong_eig_threshold", "binary_ratio"])
    def test_float_knobs_typed(self, knob):
        typed = getattr(EligibilityConfig(**{knob: 1}), knob)
        assert typed == 1.0 and type(typed) is float
        with pytest.raises(ValueError, match=f"{knob} 'x' is not a number"):
            EligibilityConfig(**{knob: "x"})

    @pytest.mark.parametrize("knob", ["max_iter", "bandwidth_rank",
                                      "repeats"])
    def test_whole_number_knobs(self, knob):
        typed = getattr(EligibilityConfig(**{knob: 2.0}), knob)
        assert typed == 2 and type(typed) is int
        with pytest.raises(ValueError, match=f"{knob} 2.5 is not an integer"):
            EligibilityConfig(**{knob: 2.5})


class TestSelectEligible:
    def test_constant_vector_eligible(self):
        spec = two_block_spectrum((3, 3), coupling=0.5)  # well connected
        eligible = select_eligible(spec, EligibilityConfig())
        assert 0 in eligible

    def test_alternating_excluded(self):
        eigenvalues = np.array([0.0, 0.05])
        vectors = np.column_stack([np.ones(4),
                                   np.array([1.0, -1.0, 1.0, -1.0])])
        spec = Spectrum(eigenvalues, vectors)
        assert select_eligible(spec, EligibilityConfig()) == [0]

    def test_weakly_coupled_blocks(self):
        spec = two_block_spectrum((1, 5))
        cfg = EligibilityConfig()
        eligible = select_eligible(spec, cfg)
        assert eligible[:2] == [0, 1]
        assert spec.eigenvalues[1] < 1e-4  # contrast mode barely coupled

    def test_nothing_eligible(self):
        eigenvalues = np.array([0.2, 0.5])
        vectors = np.column_stack([np.ones(4), np.ones(4)])
        with pytest.raises(NoEligibleVectors):
            select_eligible(Spectrum(eigenvalues, vectors),
                            EligibilityConfig())


class TestSpikeRatio:
    def test_indicator_like_is_large(self):
        v = np.r_[np.full(50, 1e-4), 1.0]
        assert spike_ratio(v) > 1e3

    def test_smooth_mode_is_small(self):
        v = np.sin(np.linspace(0, 6 * math.pi, 200))
        assert spike_ratio(v) < 10.0


class TestDetect1d:
    def test_all_equal_no_outliers(self):
        flags = detect_1d(np.full(10, 3.7), 2.5, rng_seed=0)
        assert not flags.any()

    def test_ninety_ten(self, rng):
        values = np.r_[np.zeros(90), np.ones(10)]
        values = values[rng.permutation(100)]
        agree = 0
        for seed in range(100):
            flags = detect_1d(values, 2.5, rng_seed=seed)
            agree += int(np.array_equal(flags, values == 1.0))
        assert agree >= 99

    def test_ten_ninety_mirror(self, rng):
        values = np.r_[np.zeros(10), np.ones(90)]
        values = values[rng.permutation(100)]
        agree = 0
        for seed in range(100):
            flags = detect_1d(values, 2.5, rng_seed=seed)
            agree += int(np.array_equal(flags, values == 0.0))
        assert agree >= 99

    def test_scale_shift_equivariance(self, rng):
        values = rng.normal(size=80)
        base = detect_1d(values, 2.5, rng_seed=11)
        for a, b in ((0.5, -5.0), (4.0, 3.0), (1.0, 2.0)):
            assert np.array_equal(detect_1d(a * values + b, 2.5, rng_seed=11),
                                  base)

    def test_idempotent_at_fixpoint(self, rng):
        values = np.r_[rng.normal(0, 0.01, 60), rng.normal(4, 0.01, 8)]
        flags = detect_1d(values, 2.5, rng_seed=3)
        again = detect_1d(values, 2.5, rng_seed=3, initial_inliers=~flags)
        assert np.array_equal(flags, again)

    def test_gamma_interval_nesting_single_step(self, rng):
        values = rng.normal(size=120) ** 3  # heavy tails
        for seed in range(5):
            one = detect_1d(values, 1.5, rng_seed=seed, max_iter=1)
            two = detect_1d(values, 3.0, rng_seed=seed, max_iter=1)
            # wider interval flags a subset of what the narrow one flags
            assert not (two & ~one).any()

    def test_order_independence(self, rng):
        values = rng.normal(size=64)
        perm = rng.permutation(64)
        flags = detect_1d(values, 2.5, rng_seed=5)
        flags_perm = detect_1d(values[perm], 2.5, rng_seed=5)
        assert np.array_equal(flags[perm], flags_perm)

    def test_too_short(self):
        with pytest.raises(TooFewPoints):
            detect_1d(np.array([1.0, 2.0, 3.0]), 2.5, rng_seed=0)


class TestProximityStage:
    def test_single_far_point_flagged(self):
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            pts = np.vstack([ring_with_noise(rng), [[15.0, 0.0]]])
            labels = proximity_stage(pts, rng_seed=seed)
            hits += int(labels.n_outliers == 1 and bool(labels.outlier[-1]))
        assert hits == 20

    def test_no_outliers_mostly_empty(self):
        # i.i.d. angles occasionally leave a genuinely separated arc, which
        # proximity alone cannot tell from an outlier group; the frozen
        # simulation outcome is 16/20 empty
        empty = 0
        for seed in range(20):
            cfg = ExperimentConfig(model=MILD_ELLIPSE, n_inliers=100,
                                   n_outliers=0, sigma0=0.01, sigma1=2.0,
                                   seed=seed)
            data = make_dataset(cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                labels = proximity_stage(data.points, rng_seed=seed)
            empty += int(labels.n_outliers == 0)
        assert empty >= 15

    def test_typical_scenario_band(self):
        # the graph stage finds most of the clearly distant outliers, misses
        # the ones hugging the curve, and misflags a few inliers; the model
        # stage exists to clean both up
        from conic_purge import (conic_from_ellipse, detection_metrics,
                                 ellipse_from_eccentricity, sampson_distance)
        model = ellipse_from_eccentricity(5.0, 0.95)
        truth_conic = conic_from_ellipse(model)
        distant_recalls, overall_recalls, precisions = [], [], []
        for seed in range(20):
            cfg = ExperimentConfig(model=model, n_inliers=100, n_outliers=50,
                                   sigma0=0.01, sigma1=2.0, seed=seed)
            data = make_dataset(cfg)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                labels = proximity_stage(data.points, cfg.eligibility, seed)
            scores = detection_metrics(labels, data.truth)
            overall_recalls.append(scores["recall"])
            precisions.append(scores["precision"])
            far = data.truth.outlier & \
                (sampson_distance(data.points, truth_conic) > 1.0)
            distant_recalls.append(
                np.count_nonzero(labels.outlier & far) / np.count_nonzero(far))
        assert 0.5 < float(np.median(distant_recalls)) < 1.0
        assert 0.3 < float(np.median(overall_recalls)) < 1.0
        assert min(precisions) < 1.0  # a few inliers get misflagged

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(77)
        pts = np.vstack([ring_with_noise(rng, n=60),
                         rng.uniform(-20, 20, (8, 2))])
        labels = proximity_stage(pts, rng_seed=9)
        perm = rng.permutation(len(pts))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels_perm = proximity_stage(pts[perm], rng_seed=9)
        assert np.array_equal(labels.outlier[perm], labels_perm.outlier)

    @settings(max_examples=16, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-6, 6),
           dim=st.sampled_from([2, 3]))
    def test_exact_scale_invariance(self, seed, k, dim):
        # scaling by 2^k scales every distance by 2^k and t by 4^k exactly,
        # so -d^2/t, the Laplacian, the spectrum and the labels keep their
        # bits
        model = MILD_ELLIPSE if dim == 2 \
            else FREEZE_SCENARIOS["ellipsoid3d"].model
        cfg = ExperimentConfig(model=model, n_inliers=40 * dim,
                               n_outliers=15, sigma0=0.05, sigma1=2.0,
                               seed=seed)
        pts = make_dataset(cfg).points
        scaled = pts * 2.0 ** k
        a, b = spectrum_of_points(pts), spectrum_of_points(scaled)
        assert a.eigenvalues.tobytes() == b.eigenvalues.tobytes()
        assert a.eigenvectors.tobytes() == b.eigenvectors.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            labels = proximity_stage(pts, rng_seed=seed)
            labels_scaled = proximity_stage(scaled, rng_seed=seed)
        assert labels.outlier.tobytes() == labels_scaled.outlier.tobytes()
        assert tuple(labels.stage) == tuple(labels_scaled.stage)

    def test_refuses_above_cap_before_the_graph(self):
        # one K x K float64 array at K=5001 is 191 MiB; the refusal comes
        # before the first of them
        from conic_purge.spectral import MAX_POINTS
        pts = np.random.default_rng(3).normal(size=(MAX_POINTS + 1, 2))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the configured cap"):
                proximity_stage(pts, rng_seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2 ** 20

    def test_needs_twelve_points(self):
        with pytest.raises(TooFewPoints):
            proximity_stage(np.zeros((11, 2)), rng_seed=0)

    def test_stage_tag(self):
        rng = np.random.default_rng(5)
        labels = proximity_stage(ring_with_noise(rng), rng_seed=1)
        assert set(labels.stage) == {"proximity"}

    def test_best_of_repeats(self):
        rng = np.random.default_rng(13)
        pts = np.vstack([ring_with_noise(rng), [[15.0, 0.0], [14.0, 6.0]]])
        cfg = EligibilityConfig(repeats=3)
        labels = proximity_stage(pts, cfg, rng_seed=2)
        again = proximity_stage(pts, cfg, rng_seed=2)
        assert np.array_equal(labels.outlier, again.outlier)
        assert labels.outlier[-2:].all()


def reference_detect_1d(values, gamma, rng_seed, max_iter=100,
                        initial_inliers=None):
    """The detector as it was before it sorted once: a boolean mask over
    all values and one ``np.quantile`` call per pass.  Kept as the
    reference the sorted-order detector must reproduce."""
    flat_rtol = 1e-9
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 4:
        raise TooFewPoints("need at least 4 values for quartiles")
    if np.ptp(v) <= flat_rtol * max(1.0, float(np.abs(v).max())):
        return np.zeros(n, dtype=bool)
    if initial_inliers is None:
        order = np.lexsort((np.arange(n), v))
        rng = np.random.default_rng(rng_seed)
        chosen = order[rng.permutation(n)[:n // 2]]
        inliers = np.zeros(n, dtype=bool)
        inliers[chosen] = True
    else:
        inliers = np.asarray(initial_inliers, dtype=bool).copy()
        if inliers.shape != v.shape or not inliers.any():
            raise ValueError("initial inlier mask must be nonempty over values")
    for _ in range(max_iter):
        q1, mu, q3 = np.quantile(v[inliers], [0.25, 0.5, 0.75],
                                 method="linear")
        lo, hi = mu - gamma * (mu - q1), mu + gamma * (q3 - mu)
        pad = flat_rtol * max(1.0, abs(lo), abs(hi))
        updated = (v >= lo - pad) & (v <= hi + pad)
        if not updated.any():
            warnings.warn("interval excluded every element; keeping all points",
                          RuntimeWarning, stacklevel=2)
            return np.zeros(n, dtype=bool)
        if np.array_equal(updated, inliers):
            break
        inliers = updated
    return ~inliers


@st.composite
def samples(draw, min_size, max_size=400):
    """Seeded 1-D samples of several shapes: smooth, tied, constant runs,
    rounded, heavy-tailed and near-binary (indicator-like) vectors."""
    n = draw(st.integers(min_size, max_size))
    kind = draw(st.sampled_from(["normal", "ties", "runs", "rounded",
                                 "cauchy", "binary"]))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "normal":
        v = rng.normal(draw(st.sampled_from([0.0, -3.0, 1e6])),
                       draw(st.sampled_from([1e-3, 1.0, 50.0])), n)
    elif kind == "ties":
        v = rng.integers(0, draw(st.integers(1, 6)), n).astype(float)
    elif kind == "runs":
        levels = rng.normal(size=draw(st.integers(1, 5)))
        v = np.repeat(levels, rng.multinomial(n, np.ones(levels.size)
                                              / levels.size))
        if draw(st.booleans()):
            v = v[rng.permutation(n)]
    elif kind == "rounded":
        v = np.round(rng.normal(size=n), draw(st.integers(0, 3)))
    elif kind == "cauchy":
        v = rng.standard_cauchy(n)
    else:
        v = np.full(n, 0.08) + rng.normal(0.0, 1e-5, n)
        spikes = rng.choice(n, draw(st.integers(0, max(1, n // 4))),
                            replace=False)
        v[spikes] = rng.normal(-0.5, 0.01, spikes.size)
    return v + 0.0  # drop negative zeros, see test_sorted_quartiles_bitwise


def sorted_quartiles(x):
    """The batched quartiles of one ascending row, every value selected."""
    quartiles = _row_quartiles(x[None, :], np.array([0]), np.array([x.size]),
                               lambda r: r)
    return np.concatenate(quartiles)


def flags_and_warnings(detector, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        flags = detector(*args, **kwargs)
    return flags, [str(w.message) for w in caught]


class TestSortedOrderEquivalence:
    # A partition may place equal elements in either order, so a -0.0 and a
    # 0.0 can trade places between two correct quantile routines; the
    # samples hold no negative zeros, and bit equality is checked on the
    # rest.
    @settings(max_examples=300, deadline=None)
    @given(samples(min_size=1))
    def test_sorted_quartiles_bitwise(self, values):
        x = np.sort(values)
        ours = sorted_quartiles(x)
        ref = np.quantile(values, [0.25, 0.5, 0.75], method="linear")
        assert ours.tobytes() == ref.tobytes()

    def test_sorted_quartiles_small_hand_values(self):
        for m in range(1, 9):
            x = np.arange(m, dtype=float) ** 2
            ref = np.quantile(x, [0.25, 0.5, 0.75], method="linear")
            assert sorted_quartiles(x).tobytes() == ref.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(samples(min_size=4),
           st.sampled_from([0.3, 1.0, 1.5, 2.5, 3.0, 6.0]),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 2, 100]))
    def test_random_half_matches_reference(self, values, gamma, seed,
                                           max_iter):
        ours, ref = (flags_and_warnings(detector, values, gamma, seed,
                                        max_iter)
                     for detector in (detect_1d, reference_detect_1d))
        assert np.array_equal(ours[0], ref[0]) and ours[1] == ref[1]

    @settings(max_examples=200, deadline=None)
    @given(samples(min_size=4),
           st.sampled_from([0.05, 1.0, 2.5]),
           st.integers(0, 2 ** 32 - 1),
           st.sampled_from([1, 100]))
    def test_initial_inliers_match_reference(self, values, gamma, seed,
                                             max_iter):
        rng = np.random.default_rng(seed)
        mask = rng.random(values.size) < rng.uniform(0.05, 1.0)
        mask[rng.integers(values.size)] = True
        ours, ref = (flags_and_warnings(detector, values, gamma, 0, max_iter,
                                        initial_inliers=mask)
                     for detector in (detect_1d, reference_detect_1d))
        assert np.array_equal(ours[0], ref[0]) and ours[1] == ref[1]

    def test_excluded_every_element_warning(self):
        # two far-apart starting inliers and a narrow interval: the interval
        # sits between them and holds no value at all
        values = np.r_[np.zeros(5), np.ones(5)]
        mask = np.zeros(10, dtype=bool)
        mask[[0, 9]] = True
        for detector in (detect_1d, reference_detect_1d):
            with pytest.warns(RuntimeWarning, match="excluded every element"):
                flags = detector(values, 0.1, 0, initial_inliers=mask)
            assert not flags.any()

    def test_values_on_the_padded_ends_are_inliers(self):
        # the first five values give q1, mu, q3 = 1, 2, 3, so with gamma 1
        # the interval is [1, 3] padded by 1e-9 * 3 on each side; the last
        # two values sit exactly on its ends
        pad = 1e-9 * 3.0
        values = np.array([0.0, 1.0, 2.0, 3.0, 4.0, 1.0 - pad, 3.0 + pad])
        start = np.arange(7) < 5
        expected = np.array([True, False, False, False, True, False, False])
        for detector in (detect_1d, reference_detect_1d):
            flags = detector(values, 1.0, 0, max_iter=1,
                             initial_inliers=start)
            assert np.array_equal(flags, expected)

    def test_max_iter_one_stops_after_one_pass(self, rng):
        values = np.r_[rng.normal(0, 1, 50), rng.normal(30, 1, 5)]
        stopped_early = 0
        for seed in range(10):
            one = detect_1d(values, 2.5, seed, max_iter=1)
            assert np.array_equal(one, reference_detect_1d(values, 2.5, seed,
                                                           max_iter=1))
            stopped_early += not np.array_equal(one,
                                                detect_1d(values, 2.5, seed))
        assert stopped_early > 0

    def test_bad_initial_mask_rejected(self):
        with pytest.raises(ValueError):
            detect_1d(np.arange(6.0), 2.5, 0, initial_inliers=np.zeros(6, bool))
        with pytest.raises(ValueError):
            detect_1d(np.arange(6.0), 2.5, 0, initial_inliers=np.ones(5, bool))


def pre_trusted(spectrum: Spectrum, cfg: EligibilityConfig) -> list[int]:
    """Eligible vectors that pass the two detector-free trust tests."""
    return [idx for idx in select_eligible(spectrum, cfg)
            if spectrum.eigenvalues[idx] < cfg.strong_eig_threshold
            and spike_ratio(spectrum.eigenvectors[:, idx]) >= cfg.binary_ratio]


# SHA-256 of (outlier flags, stage tags) of the proximity stage, recorded
# when the stage still ran the detector on every eligible eigenvector and
# the detector still called np.quantile per pass (numpy 2.4, OpenBLAS,
# x86_64).  A different BLAS build may round the spectrum differently, in
# which case record them again from the unchanged code.
FROZEN_PROXIMITY_DIGESTS = {
    ("ellipsoid3d", 1):
        "25771e5ff688ee4f39d73367be34649cd92985c0b55e9f94dff38026c7e7f08d",
    ("ellipsoid3d", 3):
        "25771e5ff688ee4f39d73367be34649cd92985c0b55e9f94dff38026c7e7f08d",
    ("ransac2d", 1):
        "ed7e9e467f2066d8aa1014ac5e712ae17f56d8bb2751beef16ceeb638544feec",
    ("ransac2d", 3):
        "f6acfe9a4c48425d5c5ea5c2461d62712dc2c9e0c3d33cc5a5d72f9b181c7d3e",
    ("typical2d", 1):
        "58699b1bdaf8e9f3fac91c6730b9af0de209d9d0c344a54f26e628bd2e361b6c",
    ("typical2d", 3):
        "58699b1bdaf8e9f3fac91c6730b9af0de209d9d0c344a54f26e628bd2e361b6c",
}


# SHA-256 of the eigenvalue and eigenvector bytes of generalized_eigs on the
# freeze scenarios' heat-kernel graphs, recorded while generalized_eigs
# still reached numpy.linalg.eigh through a separate dispatch module
# (numpy 2.4, OpenBLAS, x86_64).  The bytes depend on the BLAS thread
# count, so they are taken in a subprocess pinned to one thread.
FROZEN_SPECTRUM_DIGESTS = {
    "ellipsoid3d":
        "5fab3ce7c969f03f7f022d07abe208bea84af28229bd2579b05db22bac9aaef2",
    "ransac2d":
        "c4af96b3c6ec4053cb6c7b4bf7284347ec0455dd1cb72d5e47e9aa96ef92feab",
    "typical2d":
        "22b759bbe55980849c1b4bffcd05a263a2bb267778c1c02ecc3daed342fabaf6",
}

SPECTRUM_DIGEST_SCRIPT = """
import hashlib, json
from conftest import FREEZE_SCENARIOS
from conic_purge import make_dataset
from conic_purge.proximity import spectrum_of_points
digests = {}
for name, cfg in FREEZE_SCENARIOS.items():
    spectrum = spectrum_of_points(make_dataset(cfg).points, cfg.eligibility)
    h = hashlib.sha256(spectrum.eigenvalues.tobytes())
    h.update(spectrum.eigenvectors.tobytes())
    digests[name] = h.hexdigest()
print(json.dumps(digests))
"""

# recorded like FROZEN_SPECTRUM_DIGESTS, from the spectral code that built
# each K x K intermediate as a new array and checked residuals on L itself
FROZEN_LARGE_SPECTRUM_DIGEST = \
    "0c671c0c1c8510378bdec263a36c91c560831b26b3a6f4b74a8d56aaa500f3a3"

LARGE_SPECTRUM_DIGEST_SCRIPT = """
import hashlib
from conftest import LARGE_SPECTRUM_SCENARIO as cfg
from conic_purge import make_dataset
from conic_purge.proximity import spectrum_of_points
spectrum = spectrum_of_points(make_dataset(cfg).points, cfg.eligibility)
h = hashlib.sha256(spectrum.eigenvalues.tobytes())
h.update(spectrum.eigenvectors.tobytes())
print(h.hexdigest())
"""


class TestFilterFirst:
    @pytest.mark.parametrize("scenario", sorted(FREEZE_SCENARIOS))
    def test_detector_runs_only_on_pre_trusted(self, scenario, monkeypatch):
        cfg = FREEZE_SCENARIOS[scenario]
        data = make_dataset(cfg)
        spectrum = spectrum_of_points(data.points, cfg.eligibility)
        expected = pre_trusted(spectrum, cfg.eligibility)
        calls = []
        original = proximity._detect_vectors

        def recording(rows, *args):
            calls.append((rows.copy(), list(args[-1])))
            return original(rows, *args)

        monkeypatch.setattr(proximity, "_detect_vectors", recording)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = proximity.eigenvector_flag_report(
                spectrum, cfg.eligibility, cfg.seed)
            proximity_stage(data.points, cfg.eligibility, cfg.seed, report)
        (rows, indexes), = calls
        assert indexes == expected and len(expected) > 0
        assert len(expected) < len(select_eligible(spectrum, cfg.eligibility))
        for values, idx in zip(rows, expected, strict=True):
            assert np.array_equal(values, spectrum.eigenvectors[:, idx])

    @pytest.mark.parametrize("scenario,repeats",
                             sorted(FROZEN_PROXIMITY_DIGESTS))
    def test_labels_frozen(self, scenario, repeats):
        cfg = FREEZE_SCENARIOS[scenario]
        data = make_dataset(cfg)
        eligibility = dataclasses.replace(cfg.eligibility, repeats=repeats)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            labels = proximity_stage(data.points, eligibility, cfg.seed)
        h = hashlib.sha256()
        h.update(labels.outlier.tobytes())
        h.update("\n".join(map(str, labels.stage)).encode())
        assert h.hexdigest() == FROZEN_PROXIMITY_DIGESTS[scenario, repeats]

    @staticmethod
    def _one_thread_stdout(script: str) -> str:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(__file__), env["PYTHONPATH"]])
        proc = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    def test_spectrum_frozen(self):
        assert json.loads(self._one_thread_stdout(SPECTRUM_DIGEST_SCRIPT)) \
            == FROZEN_SPECTRUM_DIGESTS

    def test_large_spectrum_frozen(self):
        # K=800 with an ~83-dimensional near-null space, where a change of
        # less than 2.3e-308 to entries of eigh's input rotates the basis
        # eigh returns for it
        assert self._one_thread_stdout(LARGE_SPECTRUM_DIGEST_SCRIPT).strip() \
            == FROZEN_LARGE_SPECTRUM_DIGEST

    def test_spectrum_memory(self):
        # distances and weights are released once used and the eigensolve
        # reuses its buffers: 4 K x K float64 arrays at once (8 before),
        # the returned eigenvectors included
        k = 1000
        pts = make_dataset(dataclasses.replace(
            LARGE_SPECTRUM_SCENARIO, n_inliers=750, n_outliers=250)).points
        tracemalloc.start()
        try:
            spectrum_of_points(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.2 * k * k * 8

    def test_report_seeds_per_index(self):
        # with detect_all the report runs every eligible vector, seeded by
        # eigenvector index, so the trusted vectors get the same flags as
        # in the report the stage makes, which detects only those
        cfg = FREEZE_SCENARIOS["typical2d"]
        data = make_dataset(cfg)
        spectrum = spectrum_of_points(data.points, cfg.eligibility)
        report = proximity.eigenvector_flag_report(spectrum, cfg.eligibility,
                                                   cfg.seed, detect_all=True)
        stage = proximity.eigenvector_flag_report(spectrum, cfg.eligibility,
                                                  cfg.seed)
        assert [r[0] for r in report] == select_eligible(spectrum,
                                                         cfg.eligibility)
        assert [r[0] for r in report if r[3]] == \
            pre_trusted(spectrum, cfg.eligibility)
        for (idx, lam, hf, trusted, flags), stage_record in zip(report, stage,
                                                              strict=True):
            vec = spectrum.eigenvectors[:, idx]
            seed = np.random.SeedSequence(entropy=cfg.seed, spawn_key=(idx,))
            own = detect_1d(vec, cfg.eligibility.gamma, seed.spawn(1)[0])
            assert np.array_equal(flags, own)
            assert lam == float(spectrum.eigenvalues[idx])
            assert hf == high_frequency_measure(vec)
            assert stage_record[:4] == (idx, lam, hf, trusted)
            if trusted:
                assert np.array_equal(stage_record[4], own)
            else:
                assert stage_record[4] is None

    def test_report_measures_each_vector_once(self, monkeypatch):
        # the hf measure is computed once per vector under the eigenvalue
        # cut, in one batch by the eligibility filter, and the report keeps
        # that value
        cfg = FREEZE_SCENARIOS["typical2d"]
        spectrum = spectrum_of_points(make_dataset(cfg).points,
                                      cfg.eligibility)
        measured = []
        original = proximity._hf_measures

        def counted(rows):
            measured.append(original(rows))
            return measured[-1]

        monkeypatch.setattr(proximity, "_hf_measures", counted)
        report = proximity.eigenvector_flag_report(spectrum, cfg.eligibility,
                                                   cfg.seed)
        below = np.count_nonzero(spectrum.eigenvalues
                                 < cfg.eligibility.eig_threshold)
        (hf,) = measured
        assert len(report) > 1 and len(hf) == below
        assert [r[2] for r in report] == \
            [h for h in hf.tolist() if h < cfg.eligibility.hf_threshold]

    @pytest.mark.parametrize("eig_threshold", [1e-6, 1e-3, 0.1, 1.0, 2.0])
    def test_eig_threshold_at_or_above_strong_cut_is_inert(self,
                                                           eig_threshold):
        # trusted vectors need an eigenvalue below strong_eig_threshold, so
        # any eligibility cut at or above it leaves the labels alone
        for name in ("typical2d", "ellipsoid3d"):
            cfg = FREEZE_SCENARIOS[name]
            data = make_dataset(cfg)
            spectrum = spectrum_of_points(data.points, cfg.eligibility)
            loose = dataclasses.replace(cfg.eligibility,
                                        eig_threshold=eig_threshold)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                base = proximity_stage(
                    data.points, cfg.eligibility, cfg.seed,
                    proximity.eigenvector_flag_report(
                        spectrum, cfg.eligibility, cfg.seed))
                labels = proximity_stage(
                    data.points, loose, cfg.seed,
                    proximity.eigenvector_flag_report(spectrum, loose,
                                                      cfg.seed))
            assert np.array_equal(labels.outlier, base.outlier)


@st.composite
def spectra(draw):
    """Seeded spectra whose vectors are smooth, near-binary, tied, flat,
    two-level or sign-mixed, with eigenvalues around every threshold."""
    k = draw(st.integers(4, 60))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.choice([0.0, 1e-9, 5e-7, 1e-3, 0.05, 0.2, 1.0], size=k)
    columns = []
    for _ in range(k):
        kind = draw(st.sampled_from(["normal", "binary", "ties", "flat",
                                     "two-level", "mixed"]))
        if kind == "normal":
            v = rng.normal(0.5, 0.1, k)
        elif kind == "binary":
            v = np.full(k, 0.08) + rng.normal(0.0, 1e-5, k)
            spikes = rng.choice(k, rng.integers(1, max(2, k // 4)),
                                replace=False)
            v[spikes] = rng.normal(-0.5, 0.01, spikes.size)
        elif kind == "ties":
            v = rng.integers(0, 4, k).astype(float)
        elif kind == "flat":
            v = np.full(k, rng.choice([0.3, -2.0]))
        elif kind == "two-level":
            v = np.where(rng.random(k) < 0.5, 0.0, 1.0)
        else:
            v = rng.normal(0.0, 1.0, k)
        columns.append(v + 0.0)
    return Spectrum(np.sort(values), np.column_stack(columns))


def report_and_warnings(report, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            made = [(type(i), i, type(lam), lam, type(hf), hf, type(ok), ok,
                     None if flags is None else
                     (flags.dtype, flags.shape, flags.tobytes()))
                    for i, lam, hf, ok, flags in report(*args)]
        except ZeroVector as exc:
            made = str(exc)
    return made, [(w.category, str(w.message)) for w in caught]


class TestBatchedReport:
    """The report made as one batch equals, bit for bit, the report made
    one eigenvector at a time (``reference_proximity``), warnings and
    errors included."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(spectrum=spectra(), repeats=st.integers(1, 3),
           detect_all=st.booleans(), max_iter=st.sampled_from([1, 2, 100]),
           gamma=st.sampled_from([0.01, 0.5, 2.5]),
           binary_ratio=st.sampled_from([1.0, 2.0, 30.0]),
           strong=st.sampled_from([1e-6, 0.1]),
           chunk_bytes=st.sampled_from([None, 1]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, spectrum, repeats, detect_all, max_iter,
                               gamma, binary_ratio, strong, chunk_bytes,
                               seed):
        cfg = EligibilityConfig(repeats=repeats, max_iter=max_iter,
                                gamma=gamma, binary_ratio=binary_ratio,
                                strong_eig_threshold=strong)
        with pytest.MonkeyPatch.context() as patch:
            if chunk_bytes is not None:  # one vector per chunk
                patch.setattr(proximity, "_CHUNK_BYTES", chunk_bytes)
            ours = report_and_warnings(proximity.eigenvector_flag_report,
                                       spectrum, cfg, seed, detect_all)
        assert ours == report_and_warnings(
            reference_proximity.eigenvector_flag_report, spectrum, cfg, seed,
            detect_all)

    def test_interval_excluding_everything(self):
        # two-level vectors and a narrow interval around a median between
        # the levels: the warning, once per vector and repeat, in order
        rng = np.random.default_rng(4)
        vectors = np.where(rng.random((40, 40)) < 0.5, 0.0, 1.0)
        spectrum = Spectrum(np.zeros(40), vectors)
        cfg = EligibilityConfig(gamma=0.01, repeats=2)
        ours = report_and_warnings(proximity.eigenvector_flag_report,
                                   spectrum, cfg, 3, True)
        assert ours == report_and_warnings(
            reference_proximity.eigenvector_flag_report, spectrum, cfg, 3,
            True)
        assert len(ours[1]) > 1
        assert {message for _, message in ours[1]} == \
            {"interval excluded every element; keeping all points"}

    def test_zero_vector(self):
        vectors = np.ones((8, 8))
        vectors[:, 3] = 0.0
        spectrum = Spectrum(np.zeros(8), vectors)
        cfg = EligibilityConfig()
        ours = report_and_warnings(proximity.eigenvector_flag_report,
                                   spectrum, cfg, 0)
        assert ours == report_and_warnings(
            reference_proximity.eigenvector_flag_report, spectrum, cfg, 0)
        assert ours[0] == "high-frequency measure of the zero vector"

    @pytest.mark.parametrize("name", sorted(FREEZE_SCENARIOS))
    def test_freeze_scenarios(self, name):
        cfg = FREEZE_SCENARIOS[name]
        spectrum = spectrum_of_points(make_dataset(cfg).points)
        for detect_all in (False, True):
            assert report_and_warnings(
                proximity.eigenvector_flag_report, spectrum, cfg.eligibility,
                cfg.seed, detect_all) == report_and_warnings(
                reference_proximity.eigenvector_flag_report, spectrum,
                cfg.eligibility, cfg.seed, detect_all)


class TestDetect1dArguments:
    @pytest.mark.parametrize("max_iter", [0, -1, True, np.True_, 2.5, None])
    def test_max_iter(self, max_iter):
        with pytest.raises(ValueError, match="max_iter"):
            detect_1d(np.arange(10.0), 2.5, 0, max_iter=max_iter)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0, math.nan, math.inf, True,
                                       "wide"])
    def test_gamma(self, gamma):
        with pytest.raises(ValueError, match="gamma"):
            detect_1d(np.arange(10.0), gamma, 0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_values_must_be_finite(self, bad):
        values = np.arange(10.0)
        values[4] = bad
        with pytest.raises(ValueError, match="finite"):
            detect_1d(values, 2.5, 0)

    def test_values_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="1-D"):
            detect_1d(np.arange(12.0).reshape(6, 2), 2.5, 0)

    def test_whole_float_max_iter_accepted(self):
        values = np.r_[np.zeros(20), 5.0]
        assert np.array_equal(detect_1d(values, 2.5, 1, max_iter=3.0),
                              detect_1d(values, 2.5, 1, max_iter=3))
