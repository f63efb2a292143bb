import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_spectral as ref
from conic_purge import (ConvergenceFailure, DegenerateBandwidth,
                         ExperimentConfig, TooFewPoints,
                         ellipse_from_eccentricity, generalized_eigs,
                         graph_laplacian, heat_kernel_weights, make_dataset,
                         pairwise_distances, select_bandwidth)
from conic_purge import spectral as spectral_mod
from conic_purge.spectral import (MAX_POINTS, RESIDUAL_RTOL, SQUARE_MARGIN,
                                  LaplacianPair)


def random_laplacian_pair(rng, k):
    pts = rng.normal(size=(k, 2)) * rng.uniform(0.5, 3.0)
    dist = pairwise_distances(pts)
    t = select_bandwidth(dist, 4)
    return graph_laplacian(heat_kernel_weights(dist, t))


def two_blocks_weights(sizes, coupling=0.0):
    k = sum(sizes)
    w = np.full((k, k), coupling)
    start = 0
    for size in sizes:
        w[start:start + size, start:start + size] = 1.0
        start += size
    return w


class TestPairwiseDistances:
    def test_three_four_five(self):
        q = pairwise_distances(np.array([[0.0, 0.0], [3.0, 4.0]]))
        assert q[0, 1] == 5.0 and q[1, 0] == 5.0
        assert q[0, 0] == 0.0

    def test_duplicated_points(self):
        q = pairwise_distances(np.array([[1.0, 2.0], [1.0, 2.0]]))
        assert q[0, 1] == 0.0

    def test_matches_per_pair_oracle_exactly(self, rng):
        pts = rng.normal(size=(100, 3))
        q = pairwise_distances(pts)
        for _ in range(200):
            i, j = rng.integers(0, 100, 2)
            direct = math.sqrt(sum((pts[i, c] - pts[j, c]) ** 2
                                   for c in range(3)))
            assert q[i, j] == direct

    def test_too_few(self):
        with pytest.raises(TooFewPoints):
            pairwise_distances(np.array([[0.0, 0.0]]))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_overflow_limit(self, dim):
        # a coordinate span up to sqrt(max / (SQUARE_MARGIN * dim)) keeps
        # every squared distance finite; the next float is refused
        limit = math.sqrt(np.finfo(float).max / (SQUARE_MARGIN * dim))
        pts = np.zeros((3, dim))
        pts[1] = limit
        with np.errstate(all="raise"):
            dist = pairwise_distances(pts)
            assert np.isfinite(dist * dist).all()
        pts[1, -1] = np.nextafter(limit, np.inf)
        with pytest.raises(DegenerateBandwidth, match="would overflow"):
            pairwise_distances(pts)

    def test_overflow_refused_before_the_matrix(self):
        # O(K) and before any K x K array, also at the K cap and for a
        # span that itself overflows
        pts = np.zeros((MAX_POINTS, 2))
        pts[0, 0], pts[1, 0] = -1e308, 1e308
        tracemalloc.start()
        try:
            with np.errstate(all="raise"):
                with pytest.raises(DegenerateBandwidth,
                                   match="span inf exceeds"):
                    pairwise_distances(pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20


class TestSelectBandwidth:
    # 3 collinear points at x = 0, 1, 2: sorted entries of the full matrix
    # are [0,0,0,1,1,1,1,2,2]
    POINTS = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])

    def test_rank_two(self):
        q = pairwise_distances(self.POINTS)
        assert select_bandwidth(q, 2) == 1.0  # 6th element = 1

    def test_rank_one_degenerate(self):
        q = pairwise_distances(self.POINTS)
        with pytest.raises(DegenerateBandwidth):
            select_bandwidth(q, 1)  # 3rd element = 0

    def test_rank_three_clamped(self):
        q = pairwise_distances(self.POINTS)
        assert select_bandwidth(q, 3) == 4.0  # 9th (last) element = 2

    def test_rank_is_a_whole_number(self):
        q = pairwise_distances(self.POINTS)
        assert select_bandwidth(q, 2.0) == select_bandwidth(q, 2)
        for rank in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(
                    f"rank_multiplier {rank!r} is not an integer")):
                select_bandwidth(q, rank)

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 120),
           rank=st.sampled_from([1, 2, 4, 7, 64, 200]),
           kind=st.sampled_from(["normal", "rounded", "duplicates"]))
    def test_selection_is_the_sorted_entry(self, seed, k, rank, kind):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(k, 2))
        if kind == "rounded":  # many tied distances
            pts = np.round(pts, 1)
        elif kind == "duplicates":  # a few distinct points, many copies
            pts = pts[rng.integers(0, max(1, k // 8), k)]
        dist = pairwise_distances(pts)
        root_t = float(np.sort(dist, axis=None)[min(rank * k, k * k) - 1])
        if root_t == 0.0:
            with pytest.raises(DegenerateBandwidth):
                select_bandwidth(dist, rank)
        else:
            assert select_bandwidth(dist, rank) == root_t * root_t

    def test_selection_at_benchmark_size(self, rng):
        dist = pairwise_distances(rng.normal(size=(800, 2)))
        root_t = float(np.sort(dist, axis=None)[4 * 800 - 1])
        assert select_bandwidth(dist, 4) == root_t * root_t


class TestHeatKernel:
    def test_zero_distance(self):
        w = heat_kernel_weights(np.zeros((2, 2)), 1.0)
        assert np.all(w == 1.0)

    def test_connection_threshold_value(self):
        t = 1.7
        w = heat_kernel_weights(np.array([[0.0, math.sqrt(t)],
                                          [math.sqrt(t), 0.0]]), t)
        assert math.isclose(w[0, 1], math.exp(-1.0))
        assert math.isclose(w[0, 1], 0.367879, abs_tol=1e-6)

    def test_direct_evaluation(self):
        w = heat_kernel_weights(np.array([[0.0, 2.0], [2.0, 0.0]]), 1.0)
        assert math.isclose(w[0, 1], math.exp(-4.0))

    def test_requires_positive_bandwidth(self):
        with pytest.raises(ValueError):
            heat_kernel_weights(np.zeros((2, 2)), 0.0)


class TestGraphLaplacian:
    def test_all_ones(self):
        lp = graph_laplacian(np.ones((2, 2)))
        assert np.array_equal(lp.degrees, [2.0, 2.0])
        assert np.array_equal(lp.laplacian, [[1.0, -1.0], [-1.0, 1.0]])

    def test_identity_weights(self):
        lp = graph_laplacian(np.eye(3))
        assert np.array_equal(lp.laplacian, np.zeros((3, 3)))
        assert np.array_equal(lp.degrees, np.ones(3))

    def test_row_sums_vanish(self, rng):
        w = rng.uniform(0.1, 1.0, (40, 40))
        w = 0.5 * (w + w.T)
        lp = graph_laplacian(w)
        assert np.abs(lp.laplacian.sum(axis=1)).max() < 1e-12

    def test_diag_minus_weights_bit_for_bit(self, rng):
        # the in-place row helpers give diag(column sums) - W exactly, and
        # leave the weights as they were
        w = rng.uniform(0.0, 1.0, (33, 33))
        w = 0.5 * (w + w.T)
        w[w < 0.2] = 0.0
        given = w.copy()
        lp = graph_laplacian(w)
        deg = w.sum(axis=0)
        assert lp.degrees.tobytes() == deg.tobytes()
        assert lp.laplacian.tobytes() == (np.diag(deg) - w).tobytes()
        assert w.tobytes() == given.tobytes()

    @pytest.mark.parametrize("shape", [(3, 4), (1, 4), (4,)])
    def test_non_square_refused(self, shape):
        with pytest.raises(ValueError, match="square"):
            graph_laplacian(np.ones(shape))


class TestGeneralizedEigs:
    def test_two_point_graph(self):
        lp = graph_laplacian(np.ones((2, 2)))
        spec = generalized_eigs(lp)
        assert np.allclose(spec.eigenvalues, [0.0, 1.0], atol=1e-12)

    def test_disconnected_cliques_zero_multiplicity(self):
        lp = graph_laplacian(two_blocks_weights([3, 3]))
        spec = generalized_eigs(lp)
        assert np.count_nonzero(spec.eigenvalues < 1e-10) == 2
        # the span of the two near-zero eigenvectors contains both
        # block indicator vectors
        basis = spec.eigenvectors[:, :2]
        for indicator in (np.r_[np.ones(3), np.zeros(3)],
                          np.r_[np.zeros(3), np.ones(3)]):
            coef, *_ = np.linalg.lstsq(basis, indicator, rcond=None)
            assert np.abs(basis @ coef - indicator).max() < 1e-8

    def test_three_cliques(self):
        lp = graph_laplacian(two_blocks_weights([4, 3, 2]))
        spec = generalized_eigs(lp)
        assert np.count_nonzero(spec.eigenvalues < 1e-10) == 3

    def test_residual_contract(self, rng):
        for k in (5, 23, 60):
            lp = random_laplacian_pair(rng, k)
            spec = generalized_eigs(lp)
            lap, deg = lp.laplacian, lp.degrees
            res = lap @ spec.eigenvectors - \
                deg[:, None] * spec.eigenvectors * spec.eigenvalues[None, :]
            limit = RESIDUAL_RTOL * np.abs(lap).sum(axis=1).max()
            assert np.abs(res).max() <= limit

    def test_max_norm_one_and_sign(self, rng):
        spec = generalized_eigs(random_laplacian_pair(rng, 30))
        peaks = np.abs(spec.eigenvectors).max(axis=0)
        assert np.allclose(peaks, 1.0)
        idx = np.argmax(np.abs(spec.eigenvectors), axis=0)
        assert np.all(spec.eigenvectors[idx, np.arange(30)] == 1.0)

    def test_constant_vector_at_zero(self, rng):
        spec = generalized_eigs(random_laplacian_pair(rng, 25))
        assert abs(spec.eigenvalues[0]) < 1e-10
        assert np.abs(spec.eigenvectors[:, 0] - 1.0).max() < 1e-8

    def test_eigenvalue_range(self, rng):
        for k in (10, 40):
            spec = generalized_eigs(random_laplacian_pair(rng, k))
            assert np.all(np.diff(spec.eigenvalues) >= 0.0)
            assert spec.eigenvalues[0] >= -1e-9
            assert spec.eigenvalues[-1] <= 2.0 + 1e-9

    def test_d_orthogonality(self, rng):
        lp = random_laplacian_pair(rng, 20)
        spec = generalized_eigs(lp)
        f = spec.eigenvectors
        scale = np.sqrt(np.einsum("ij,i,ij->j", f, lp.degrees, f))
        g = f / scale
        gram = g.T @ (lp.degrees[:, None] * g)
        lam = spec.eigenvalues
        for i in range(20):
            for j in range(i + 1, 20):
                if abs(lam[i] - lam[j]) > 1e-6:
                    assert abs(gram[i, j]) < 1e-7

    def test_permutation_invariance(self, rng):
        lp = random_laplacian_pair(rng, 18)
        perm = rng.permutation(18)
        permuted = LaplacianPair(lp.laplacian[np.ix_(perm, perm)],
                                 lp.degrees[perm])
        spec_a = generalized_eigs(lp)
        spec_b = generalized_eigs(permuted)
        assert np.allclose(spec_a.eigenvalues, spec_b.eigenvalues, atol=1e-9)

    def test_hand_off_before_the_check(self, monkeypatch, rng):
        # the callback gets the spectrum that is returned, before the
        # check, which leaves its arrays alone; a failed check still
        # raises after the hand-off
        lp = random_laplacian_pair(rng, 30)
        handed = []
        spec = generalized_eigs(
            lp, on_solved=lambda made: handed.append(
                (made, made.eigenvalues.tobytes(),
                 made.eigenvectors.tobytes())))
        (made, values, vectors), = handed
        assert made is spec
        assert spec.eigenvalues.tobytes() == values
        assert spec.eigenvectors.tobytes() == vectors
        handed.clear()
        monkeypatch.setattr(spectral_mod, "RESIDUAL_RTOL", 0.0)
        with pytest.raises(ConvergenceFailure, match="exceeds tolerance"):
            generalized_eigs(lp, on_solved=handed.append)
        assert len(handed) == 1

    def test_size_cap(self, monkeypatch):
        monkeypatch.setattr(spectral_mod, "MAX_POINTS", 10)
        lp = graph_laplacian(np.ones((11, 11)))
        with pytest.raises(ValueError):
            generalized_eigs(lp)

    def test_distance_size_cap(self, monkeypatch):
        # the cap is read at call time and checked before the K x K matrix
        monkeypatch.setattr(spectral_mod, "MAX_POINTS", 10)
        pairwise_distances(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="K=11 exceeds"):
            pairwise_distances(np.zeros((11, 2)))


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and \
        a.tobytes() == b.tobytes()


def _same_spectrum(lp: LaplacianPair) -> None:
    new = generalized_eigs(lp)
    old = ref.generalized_eigs(lp)
    assert _same_bits(new.eigenvalues, old.eigenvalues)
    assert _same_bits(new.eigenvectors, old.eigenvectors)


def _random_subnormal_weights(rng, k: int) -> np.ndarray:
    # half the exponents up to 5, half up to 800: a share of the weights
    # is subnormal (exponent between ~708 and ~745), a share underflows to
    # 0, and the rest keep the graph well coupled
    u = np.where(rng.random((k, k)) < 0.5, rng.uniform(0.0, 5.0, (k, k)),
                 rng.uniform(0.0, 800.0, (k, k)))
    w = np.triu(np.exp(-u), 1)
    w = w + w.T
    np.fill_diagonal(w, 1.0)
    return w


class TestMatchesReference:
    """The lean spectral front half returns the replaced code's bits."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 90),
           dim=st.sampled_from([2, 3]),
           kind=st.sampled_from(["normal", "mixed", "duplicates"]))
    def test_distances(self, seed, k, dim, kind):
        rng = np.random.default_rng(seed)
        pts = rng.normal(size=(k, dim))
        if kind == "mixed":
            # per-coordinate magnitudes from 1e-150 to 1e150
            pts *= 10.0 ** rng.uniform(-150.0, 150.0, (k, dim))
        elif kind == "duplicates":
            pts = np.round(pts[rng.integers(0, max(1, k // 3), k)], 1)
        before = pts.copy()
        assert _same_bits(pairwise_distances(pts),
                          ref.pairwise_distances(pts))
        assert _same_bits(pts, before)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_distances_across_row_chunks(self, dim):
        # K=2001 makes row chunks of 1999 rows, so the matrix spans two
        pts = np.random.default_rng(dim).normal(size=(2001, dim))
        pts[::7] *= 1e6
        assert _same_bits(pairwise_distances(pts),
                          ref.pairwise_distances(pts))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 60),
           t=st.floats(1e-3, 1e3))
    def test_weights_with_subnormals(self, seed, k, t):
        # d^2/t from 0 to 800, around exp's subnormal range and the -746
        # cut, plus the exact boundary values
        rng = np.random.default_rng(seed)
        x = rng.uniform(0.0, 800.0, (k, k))
        x.flat[:4] = [745.0, 745.2, 746.0, 746.0 + 1e-12]
        dist = np.sqrt(x * t)
        dist.flat[4:6] = [np.inf, np.nan][:k * k - 4]
        before = dist.copy()
        assert _same_bits(heat_kernel_weights(dist, t),
                          ref.heat_kernel_weights(dist, t))
        assert _same_bits(dist, before)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(2, 70))
    def test_spectrum_with_subnormal_weights(self, seed, k):
        rng = np.random.default_rng(seed)
        w = _random_subnormal_weights(rng, k)
        w_before = w.copy()
        lp = graph_laplacian(w)
        lap_before, deg_before = lp.laplacian.copy(), lp.degrees.copy()
        _same_spectrum(lp)
        assert _same_bits(w, w_before)
        assert _same_bits(lp.laplacian, lap_before)
        assert _same_bits(lp.degrees, deg_before)

    def test_graph_coupled_only_by_subnormals(self):
        # max-row-sum-norm(L) is itself subnormal here, so the tolerance's
        # K * tiny term is what lets the pairs that meet the bound on L pass
        _same_spectrum(graph_laplacian(np.array([[1.0, 4e-323],
                                                 [4e-323, 1.0]])))

    def test_subnormal_weights_occur(self):
        w = _random_subnormal_weights(np.random.default_rng(0), 60)
        tiny = np.finfo(float).tiny
        assert np.count_nonzero((w > 0.0) & (w < tiny)) > 10
        assert np.count_nonzero(w == 0.0) > 10

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           sizes=st.lists(st.integers(1, 12), min_size=2, max_size=6))
    def test_disconnected_null_space(self, seed, sizes):
        # each block a random connected graph, no edges between blocks: the
        # null space has one dimension per block
        rng = np.random.default_rng(seed)
        w = two_blocks_weights(sizes)
        w *= rng.uniform(0.1, 1.0, w.shape)
        w = np.maximum(w, w.T)
        np.fill_diagonal(w, 1.0)
        lp = graph_laplacian(w)
        assert np.count_nonzero(
            generalized_eigs(lp).eigenvalues < 1e-10) == len(sizes)
        _same_spectrum(lp)

    def test_benchmark_shaped_graph(self):
        # K=800 points on and around an ellipse: subnormal weights and a
        # many-dimensional near-null space
        pts = make_dataset(ExperimentConfig(
            model=ellipse_from_eccentricity(5.0, 0.95), n_inliers=600,
            n_outliers=200, sigma0=0.05, sigma1=2.0, seed=11)).points
        dist = pairwise_distances(pts)
        t = select_bandwidth(dist, 4)
        w = heat_kernel_weights(dist, t)
        assert np.count_nonzero((w > 0.0) & (w < np.finfo(float).tiny)) > 0
        _same_spectrum(graph_laplacian(w))


class TestResidualCheck:
    @pytest.mark.parametrize("column", [0, 17, 39])
    def test_a_bad_pair_raises(self, column, monkeypatch, rng):
        lp = random_laplacian_pair(rng, 40)
        eigh = np.linalg.eigh

        def perturbed(a):
            evals, evecs = eigh(a)
            evecs[:, column] += 1e-4 * evecs[:, (column + 1) % 40]
            return evals, evecs

        generalized_eigs(lp)
        monkeypatch.setattr(np.linalg, "eigh", perturbed)
        with pytest.raises(ConvergenceFailure, match="exceeds tolerance"):
            generalized_eigs(lp)
