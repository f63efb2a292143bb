"""Proximity graph construction and its generalized eigendecomposition.

Pipeline: pairwise Euclidean distances -> heat-kernel edge weights with a
rank-selected bandwidth -> graph Laplacian -> full spectrum of the
generalized problem  L f = lambda D f.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DegenerateBandwidth, TooFewPoints

__all__ = [
    "DistanceMatrix",
    "LaplacianPair",
    "Spectrum",
    "pairwise_distances",
    "select_bandwidth",
    "heat_kernel_weights",
    "graph_laplacian",
    "generalized_eigs",
]

MAX_POINTS = 5000  # dense full-spectrum solve; keeps O(K^3) within reason

RESIDUAL_RTOL = 1e-8

DistanceMatrix = np.ndarray


@dataclass(frozen=True)
class LaplacianPair:
    """Graph Laplacian L = diag(degrees) - W with its degree vector."""

    laplacian: np.ndarray
    degrees: np.ndarray

    def __post_init__(self):
        lap = np.asarray(self.laplacian, dtype=float)
        deg = np.asarray(self.degrees, dtype=float)
        k = lap.shape[0]
        if lap.shape != (k, k) or deg.shape != (k,):
            raise ValueError("laplacian must be KxK with a K degree vector")
        if not (deg > 0.0).all():
            raise ValueError("all degrees must be positive")
        object.__setattr__(self, "laplacian", lap)
        object.__setattr__(self, "degrees", deg)


@dataclass(frozen=True)
class Spectrum:
    """Ascending generalized eigenvalues with max-norm-1 eigenvectors.

    Column i of ``eigenvectors`` pairs with ``eigenvalues[i]``; each column
    is scaled so its largest-magnitude entry is exactly +1.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def pairwise_distances(points: np.ndarray) -> DistanceMatrix:
    """K x K Euclidean distance matrix, computed coordinate-wise.

    Row-chunked so K up to MAX_POINTS stays within memory; the arithmetic
    matches a naive per-pair evaluation bit for bit.  K above MAX_POINTS
    is refused here, before any K x K array exists.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise TooFewPoints("need at least 2 points")
    k = pts.shape[0]
    if k > MAX_POINTS:
        raise ValueError(f"K={k} exceeds the configured cap of {MAX_POINTS}")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
    out = np.empty((k, k))
    chunk = max(1, int(4e6) // max(k, 1))
    for start in range(0, k, chunk):
        stop = min(start + chunk, k)
        diff = pts[start:stop, None, :] - pts[None, :, :]
        out[start:stop] = np.sqrt(np.sum(diff * diff, axis=2))
    np.fill_diagonal(out, 0.0)
    return out


def select_bandwidth(dist: DistanceMatrix, rank_multiplier: int = 4) -> float:
    """Squared bandwidth t from the ranked flattened distance matrix.

    Of all K^2 entries (diagonal zeros and both symmetric copies included)
    the (rank_multiplier * K)-th smallest, 1-indexed and clamped to K^2, is
    taken as sqrt(t); a selection finds it without sorting.  A zero value
    there means duplicated points dominate and no meaningful scale exists.
    """
    if rank_multiplier < 1:
        raise ValueError("rank multiplier must be >= 1")
    k = dist.shape[0]
    idx = min(rank_multiplier * k, k * k) - 1
    root_t = float(np.partition(dist, idx, axis=None)[idx])
    if root_t <= 0.0:
        raise DegenerateBandwidth(
            f"rank-{rank_multiplier * k} pairwise distance is zero; "
            "data contains too many duplicated points")
    return root_t * root_t


def heat_kernel_weights(dist: DistanceMatrix, t: float) -> np.ndarray:
    """Edge weights exp(-d^2 / t); the zero diagonal maps to weight 1."""
    if t <= 0.0:
        raise ValueError("bandwidth t must be positive")
    return np.exp(-(dist * dist) / t)


def graph_laplacian(weights: np.ndarray) -> LaplacianPair:
    """L = diag(column sums) - W for a symmetric weight matrix."""
    w = np.asarray(weights, dtype=float)
    deg = w.sum(axis=0)
    lap = np.diag(deg) - w
    return LaplacianPair(lap, deg)


def generalized_eigs(lp: LaplacianPair) -> Spectrum:
    """Full spectrum of  L f = lambda D f  via the symmetric reduction.

    The problem is rescaled with D^{-1/2} to a standard symmetric one,
    which ``numpy.linalg.eigh`` solves.  Every returned pair is verified
    against
        max|L f - lambda D f|  <=  RESIDUAL_RTOL * max-row-sum-norm(L)
    and ConvergenceFailure is raised if any pair misses it.
    """
    lap, deg = lp.laplacian, lp.degrees
    k = lap.shape[0]
    if k > MAX_POINTS:
        raise ValueError(f"K={k} exceeds the configured cap of {MAX_POINTS}")
    inv_root = 1.0 / np.sqrt(deg)
    sym = lap * inv_root[:, None] * inv_root[None, :]
    sym = 0.5 * (sym + sym.T)
    evals, evecs = np.linalg.eigh(sym)
    vectors = evecs * inv_root[:, None]
    # max-norm 1 with the largest-magnitude entry exactly +1
    peak = np.argmax(np.abs(vectors), axis=0)
    vectors = vectors / vectors[peak, np.arange(k)]
    residual = lap @ vectors - deg[:, None] * vectors * evals[None, :]
    limit = RESIDUAL_RTOL * float(np.abs(lap).sum(axis=1).max())
    worst = float(np.abs(residual).max())
    if worst > limit:
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds tolerance {limit:.3e}")
    return Spectrum(evals, vectors)
