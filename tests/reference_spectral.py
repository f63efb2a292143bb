"""Reference spectral front half for the tests.

Before the spectral stage was made lean at large K, ``pairwise_distances``
summed a (chunk, K, d) cube of squared coordinate differences over its
last axis, ``heat_kernel_weights`` evaluated ``exp`` on every entry, and
``generalized_eigs`` built each K x K intermediate as a new array and
checked its residual against the Laplacian as given, subnormal entries
included.  The functions below are that implementation, copied verbatim,
so the differential tests compare the new ones with it bit for bit.
"""

import numpy as np

from conic_purge.errors import ConvergenceFailure, TooFewPoints
from conic_purge.spectral import (MAX_POINTS, RESIDUAL_RTOL, DistanceMatrix,
                                  LaplacianPair, Spectrum)


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


def heat_kernel_weights(dist: DistanceMatrix, t: float) -> np.ndarray:
    """Edge weights exp(-d^2 / t); the zero diagonal maps to weight 1."""
    if t <= 0.0:
        raise ValueError("bandwidth t must be positive")
    return np.exp(-(dist * dist) / t)


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
