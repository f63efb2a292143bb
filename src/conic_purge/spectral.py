"""Proximity graph construction and its generalized eigendecomposition.

Pipeline: pairwise Euclidean distances -> heat-kernel edge weights with a
rank-selected bandwidth -> graph Laplacian -> full spectrum of the
generalized problem  L f = lambda D f.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, DegenerateBandwidth, TooFewPoints,
                     typed_number)

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

# entries per block of rows that the distances and the kernel each work
# on at once: 256 KiB of float64 temporaries.  Small blocks stay in cache,
# and they keep a thread's temporaries far below glibc's mmap threshold,
# which rises to the size of a freed K x K matrix, so the heap that keeps
# what is freed below it stays small
BLOCK_ENTRIES = 1 << 15

# squared distances must stay this factor below the largest float64, so
# that d^2 in the kernel and the squared bandwidth cannot overflow either
SQUARE_MARGIN = 16.0

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


def _row_blocks(k: int):
    """The rows of a K x K matrix in blocks of BLOCK_ENTRIES entries."""
    rows = max(1, BLOCK_ENTRIES // k)
    return [(start, min(start + rows, k)) for start in range(0, k, rows)]


def pairwise_distances(points: np.ndarray) -> DistanceMatrix:
    """K x K Euclidean distance matrix, computed coordinate-wise.

    Row-chunked so K up to MAX_POINTS stays within memory; the arithmetic
    matches a naive per-pair evaluation bit for bit.  K above MAX_POINTS
    is refused here, before any K x K array exists, and so are finite
    coordinates whose squared distances could overflow: DegenerateBandwidth
    when a coordinate's span (max - min) exceeds sqrt(max float /
    (SQUARE_MARGIN * dims)), which bounds every squared distance by
    max float / SQUARE_MARGIN.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise TooFewPoints("need at least 2 points")
    k = pts.shape[0]
    if k > MAX_POINTS:
        raise ValueError(f"K={k} exceeds the configured cap of {MAX_POINTS}")
    if not np.isfinite(pts).all():
        raise ValueError("coordinates must be finite")
    with np.errstate(over="ignore"):  # an infinite span is refused below
        span = float((pts.max(axis=0) - pts.min(axis=0)).max())
    limit = float(np.sqrt(np.finfo(float).max
                          / (SQUARE_MARGIN * pts.shape[1])))
    if span > limit:
        raise DegenerateBandwidth(
            f"coordinate span {span:.3e} exceeds {limit:.3e}; squared "
            "pairwise distances would overflow float64")
    out = np.zeros((k, k))
    for start, stop in _row_blocks(k):
        block = out[start:stop]
        # one coordinate column at a time: 0 + dx^2 + dy^2 (+ dz^2), left
        # to right, the order in which numpy sums fewer than 8 values
        for column in pts.T:
            diff = column[start:stop, None] - column[None, :]
            diff *= diff
            block += diff
        np.sqrt(block, out=block)
    np.fill_diagonal(out, 0.0)
    return out


def select_bandwidth(dist: DistanceMatrix, rank_multiplier: int = 4) -> float:
    """Squared bandwidth t from the ranked flattened distance matrix.

    Of all K^2 entries (diagonal zeros and both symmetric copies included)
    the (rank_multiplier * K)-th smallest, 1-indexed and clamped to K^2, is
    taken as sqrt(t); a selection finds it without sorting.  A zero value
    there means duplicated points dominate, or points so close that their
    squared differences underflow, and no meaningful scale exists.
    ``rank_multiplier`` is a whole number (see
    :func:`~conic_purge.errors.typed_number`), at least 1.
    """
    rank_multiplier = typed_number(int, rank_multiplier, "rank_multiplier")
    if rank_multiplier < 1:
        raise ValueError("rank multiplier must be >= 1")
    k = dist.shape[0]
    idx = min(rank_multiplier * k, k * k) - 1
    root_t = float(np.partition(dist, idx, axis=None)[idx])
    if root_t <= 0.0:
        raise DegenerateBandwidth(
            f"rank-{rank_multiplier * k} pairwise distance is zero; "
            "data contains too many duplicated points, or points so close "
            "that their squared differences underflow")
    return root_t * root_t


def heat_kernel_weights(dist: DistanceMatrix, t: float) -> np.ndarray:
    """Edge weights exp(-d^2 / t); the zero diagonal maps to weight 1.

    exp is exactly 0 below -746, so those entries are left at 0 without
    taking exp's slow underflow path.
    """
    if t <= 0.0:
        raise ValueError("bandwidth t must be positive")
    w = np.array(dist, dtype=float)
    for start, stop in _row_blocks(w.shape[0]):
        # -(d * d) / t, then exp where it does not underflow (NaN stays)
        x = w[start:stop]
        np.multiply(x, x, out=x)
        np.negative(x, out=x)
        x /= t
        under = x < -746.0
        np.exp(x, out=x, where=~under)
        x[under] = 0.0
    return w


def graph_laplacian(weights: np.ndarray) -> LaplacianPair:
    """L = diag(column sums) - W for a symmetric weight matrix."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weights must be a square matrix")
    deg = w.sum(axis=0)
    lap = w.copy()
    np.subtract(0.0, lap, out=lap)  # 0 - w off the diagonal
    np.fill_diagonal(lap, deg - w.diagonal())
    return LaplacianPair(lap, deg)


def generalized_eigs(lp: LaplacianPair, *,
                     on_solved: Callable[[Spectrum], None] | None = None,
                     ) -> Spectrum:
    """Full spectrum of  L f = lambda D f  via the symmetric reduction.

    The problem is rescaled with D^{-1/2} to a standard symmetric one,
    which ``numpy.linalg.eigh`` solves.  Every returned pair is verified
    against
        max|L' f - lambda D f|  <=  RESIDUAL_RTOL * max-row-sum-norm(L)
                                    + K * tiny
    and ConvergenceFailure is raised if any pair misses it.  L' is L with
    its entries below tiny, the smallest normal float (2.2e-308), in
    magnitude set to 0, so the check's product avoids the slow subnormal
    path; eigh sees L itself.  Each entry moves by less than tiny, so
    |L' f - L f| <= K * tiny for a max-norm-1 vector, which the second
    term allows for: a pair that meets the bound on L meets this one.  On
    a heat-kernel graph with a rank-selected bandwidth max-row-sum-norm(L)
    is at least 2/e, and K * tiny (at most 1.2e-304) rounds away.

    ``on_solved``, when given, is called with the spectrum once its
    vectors are normalized and before the check, so another thread may
    read it while the check runs; that spectrum is not yet verified.
    The check only reads it, and the same object is returned once it
    passes.

    Four K x K float64 arrays are live at most, L included, besides what
    eigh allocates internally; the inputs are not modified.
    """
    lap, deg = lp.laplacian, lp.degrees
    k = lap.shape[0]
    if k > MAX_POINTS:
        raise ValueError(f"K={k} exceeds the configured cap of {MAX_POINTS}")
    inv_root = 1.0 / np.sqrt(deg)
    # S = D^{-1/2} L D^{-1/2} as (L r_i) r_j, then 0.5 (S + S^T)
    scaled = lap * inv_root[:, None]
    scaled *= inv_root[None, :]
    sym = scaled + scaled.T
    sym *= 0.5
    del scaled
    evals, vectors = np.linalg.eigh(sym)
    vectors *= inv_root[:, None]
    # max-norm 1 with the largest-magnitude entry exactly +1
    peak = np.argmax(np.abs(vectors, out=sym), axis=0)
    vectors /= vectors[peak, np.arange(k)]
    spectrum = Spectrum(evals, vectors)
    if on_solved is not None:
        on_solved(spectrum)
    # sym's buffer is reused for |L|, L' and D F diag(λ)
    np.abs(lap, out=sym)
    row_sum = float(sym.sum(axis=1).max())
    np.multiply(lap, sym >= np.finfo(float).tiny, out=sym)
    residual = sym @ vectors
    np.multiply(deg[:, None], vectors, out=sym)
    sym *= evals[None, :]
    residual -= sym
    worst = float(np.abs(residual, out=residual).max())
    limit = RESIDUAL_RTOL * row_sum + k * np.finfo(float).tiny
    if worst > limit:
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds tolerance {limit:.3e}")
    return spectrum
