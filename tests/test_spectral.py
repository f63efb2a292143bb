import math

import numpy as np
import pytest

from conic_purge import (DegenerateBandwidth,
                         TooFewPoints, generalized_eigs, graph_laplacian,
                         heat_kernel_weights, pairwise_distances,
                         select_bandwidth)
from conic_purge.spectral import RESIDUAL_RTOL, LaplacianPair


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

    def test_size_cap(self, monkeypatch):
        from conic_purge import spectral as spectral_mod
        monkeypatch.setattr(spectral_mod, "MAX_POINTS", 10)
        lp = graph_laplacian(np.ones((11, 11)))
        with pytest.raises(ValueError):
            generalized_eigs(lp)

    def test_distance_size_cap(self, monkeypatch):
        # the cap is read at call time and checked before the K x K matrix
        from conic_purge import spectral as spectral_mod
        monkeypatch.setattr(spectral_mod, "MAX_POINTS", 10)
        pairwise_distances(np.zeros((10, 2)))
        with pytest.raises(ValueError, match="K=11 exceeds"):
            pairwise_distances(np.zeros((11, 2)))
