"""Proximity graph construction and its generalized eigendecomposition.

Pipeline: pairwise Euclidean distances -> heat-kernel edge weights with a
rank-selected bandwidth -> graph Laplacian -> full spectrum of the
generalized problem  L f = lambda D f.
"""

from __future__ import annotations

import threading
from collections.abc import Callable
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
    "RowHalves",
]

MAX_POINTS = 5000  # dense full-spectrum solve; keeps O(K^3) within reason

RESIDUAL_RTOL = 1e-8

# entries per block of rows that the distances, the kernel and a shared
# residual check each work on at once: 256 KiB of float64 temporaries.
# Small blocks stay in cache, and they keep a thread's temporaries far
# below glibc's mmap threshold, which rises to the size of a freed K x K
# matrix, so the heap that keeps what is freed below it stays small
BLOCK_ENTRIES = 1 << 15

# squared distances must stay this factor below the largest float64, so
# that d^2 in the kernel and the squared bandwidth cannot overflow either
SQUARE_MARGIN = 16.0

DistanceMatrix = np.ndarray


def _check_degrees(deg: np.ndarray) -> None:
    if not (deg > 0.0).all():
        raise ValueError("all degrees must be positive")


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
        _check_degrees(deg)
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
    is refused here, before any K x K array exists, and so are finite
    coordinates whose squared distances could overflow: DegenerateBandwidth
    when a coordinate's span (max - min) exceeds sqrt(max float /
    (SQUARE_MARGIN * dims)), which bounds every squared distance by
    max float / SQUARE_MARGIN.
    """
    pts = _checked_points(points)
    k = pts.shape[0]
    out = np.zeros((k, k))
    _distance_rows(pts, out, 0, k)
    return out


def _checked_points(points: np.ndarray) -> np.ndarray:
    """``points`` as float64, refused as ``pairwise_distances`` documents."""
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
    return pts


def _row_blocks(k: int, first: int, end: int):
    """Rows first..end-1 of a K x K matrix in blocks of BLOCK_ENTRIES."""
    rows = max(1, BLOCK_ENTRIES // k)
    return [(start, min(start + rows, end))
            for start in range(first, end, rows)]


def _distance_rows(pts: np.ndarray, out: np.ndarray, first: int,
                   end: int) -> None:
    """Rows first..end-1 of the distance matrix, into a zeroed ``out``."""
    for start, stop in _row_blocks(pts.shape[0], first, end):
        block = out[start:stop]
        # one coordinate column at a time: 0 + dx^2 + dy^2 (+ dz^2), left
        # to right, the order in which numpy sums fewer than 8 values
        for column in pts.T:
            diff = column[start:stop, None] - column[None, :]
            diff *= diff
            block += diff
        np.sqrt(block, out=block)
    diagonal = np.arange(first, end)
    out[diagonal, diagonal] = 0.0


def select_bandwidth(dist: DistanceMatrix, rank_multiplier: int = 4) -> float:
    """Squared bandwidth t from the ranked flattened distance matrix.

    Of all K^2 entries (diagonal zeros and both symmetric copies included)
    the (rank_multiplier * K)-th smallest, 1-indexed and clamped to K^2, is
    taken as sqrt(t); a selection finds it without sorting.  A zero value
    there means duplicated points dominate, or points so close that their
    squared differences underflow, and no meaningful scale exists.
    """
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
    _kernel_rows(w, t, 0, w.shape[0])
    return w


def _kernel_rows(w: np.ndarray, t: float, first: int, end: int) -> None:
    """Distances to weights in rows first..end-1 of ``w``, in place."""
    for start, stop in _row_blocks(w.shape[0], first, end):
        # -(d * d) / t, then exp where it does not underflow (NaN stays)
        x = w[start:stop]
        np.multiply(x, x, out=x)
        np.negative(x, out=x)
        x /= t
        under = x < -746.0
        np.exp(x, out=x, where=~under)
        x[under] = 0.0


def graph_laplacian(weights: np.ndarray) -> LaplacianPair:
    """L = diag(column sums) - W for a symmetric weight matrix."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError("weights must be a square matrix")
    k = w.shape[0]
    deg = np.empty(k)
    _degree_columns(w, deg, 0, k)
    lap = w.copy()
    _laplacian_rows(lap, deg, 0, k)
    return LaplacianPair(lap, deg)


def _degree_columns(w: np.ndarray, deg: np.ndarray, first: int,
                    end: int) -> None:
    """Degrees first..end-1, the column sums of ``w``, into ``deg``.  A
    column sum adds the column's entries top to bottom, whichever other
    columns are summed with it."""
    deg[first:end] = w[:, first:end].sum(axis=0)


def _laplacian_rows(w: np.ndarray, deg: np.ndarray, first: int,
                    end: int) -> None:
    """Rows first..end-1 of the weights to L = diag(deg) - W, in place:
    0 - w off the diagonal."""
    rows = slice(first, end)
    inner = np.arange(first, end)
    on_diagonal = w[inner, inner]
    np.subtract(0.0, w[rows], out=w[rows])
    w[inner, inner] = deg[inner] - on_diagonal


def _scaled_rows(lap: np.ndarray, inv_root: np.ndarray, out: np.ndarray,
                 first: int, end: int) -> None:
    """Rows first..end-1 of D^{-1/2} L D^{-1/2}, (L r_i) r_j, into ``out``."""
    rows = slice(first, end)
    np.multiply(lap[rows], inv_root[rows, None], out=out[rows])
    out[rows] *= inv_root[None, :]


def _symmetric_rows(scaled: np.ndarray, out: np.ndarray, first: int,
                    end: int) -> None:
    """Rows first..end-1 of 0.5 (S + S^T) into ``out``."""
    rows = slice(first, end)
    np.add(scaled[rows], scaled[:, rows].T, out=out[rows])
    out[rows] *= 0.5


def generalized_eigs(lp: LaplacianPair, *,
                     on_solved: Callable[[Spectrum], None] | None = None,
                     halves: RowHalves | None = None) -> Spectrum:
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

    ``halves``, the :class:`RowHalves` whose ``build(1)`` returned ``lp``,
    supplies the symmetric form the two threads built, and splits the
    check into row blocks that the other thread may share
    (:meth:`RowHalves.check`); the result and any error are the same.

    Four K x K float64 arrays are live at most, L included, besides what
    eigh allocates internally; the inputs are not modified.  With
    ``halves`` three are (L, the symmetric form, reused as the check's
    scratch, and the vectors), and each check block adds a product of
    ``BLOCK_ENTRIES`` entries per thread.
    """
    lap, deg = lp.laplacian, lp.degrees
    k = lap.shape[0]
    if k > MAX_POINTS:
        raise ValueError(f"K={k} exceeds the configured cap of {MAX_POINTS}")
    inv_root = 1.0 / np.sqrt(deg)
    if halves is None:
        scaled = np.empty((k, k))
        _scaled_rows(lap, inv_root, scaled, 0, k)
        sym = np.empty((k, k))
        _symmetric_rows(scaled, sym, 0, k)
        del scaled
    else:
        sym = halves.symmetric
    evals, vectors = np.linalg.eigh(sym)
    vectors *= inv_root[:, None]
    # max-norm 1 with the largest-magnitude entry exactly +1
    peak = np.argmax(np.abs(vectors, out=sym), axis=0)
    vectors /= vectors[peak, np.arange(k)]
    spectrum = Spectrum(evals, vectors)
    if halves is not None:
        halves.solved(lp, spectrum, sym)
    if on_solved is not None:
        on_solved(spectrum)
    if halves is None:
        # sym's buffer is reused for |L|, L' and D F diag(λ)
        row_sum, worst = _residual_rows(lap, deg, spectrum, 0, k, sym)
    else:
        row_sum, worst = halves.verify()
    limit = RESIDUAL_RTOL * row_sum + k * np.finfo(float).tiny
    if worst > limit:
        raise ConvergenceFailure(
            f"eigenpair residual {worst:.3e} exceeds tolerance {limit:.3e}")
    return spectrum


def _residual_rows(lap: np.ndarray, deg: np.ndarray, spectrum: Spectrum,
                   first: int, end: int, scratch: np.ndarray,
                   ) -> tuple[float, float]:
    """The residual check's rows first..end-1: their largest row sum of
    |L| and their largest |L' f - lambda D f|, with rows first..end-1 of
    ``scratch`` overwritten."""
    rows = slice(first, end)
    buf = scratch[rows]
    np.abs(lap[rows], out=buf)
    row_sum = float(buf.sum(axis=1).max())
    np.multiply(lap[rows], buf >= np.finfo(float).tiny, out=buf)
    residual = buf @ spectrum.eigenvectors
    np.multiply(deg[rows, None], spectrum.eigenvectors[rows], out=buf)
    buf *= spectrum.eigenvalues[None, :]
    residual -= buf
    return row_sum, float(np.abs(residual, out=residual).max())


class RowHalves:
    """The graph and the residual check of ``spectrum_of_points`` on one
    point set, shared by two threads, with the bits of one thread.

    The thread that makes it (part 0, the lower rows) calls
    ``build(0)`` and, once the spectrum is solved, ``check()``; the other
    (part 1) calls ``generalized_eigs(build(1), halves=...)``, which
    solves and verifies the eigenpairs.  Making it refuses the points as
    ``pairwise_distances`` would.

    The graph is built in passes over row halves with a barrier between
    passes: distances; the bandwidth, which part 1 selects from the whole
    matrix; the kernel; the degrees, by column halves; the Laplacian and
    D^{-1/2} L D^{-1/2}; and its symmetric part.  One K x K buffer holds
    the distances, then the weights, then L, and the symmetric form takes
    two more, one of which is released before the solve, so no more
    arrays are live than on one thread.  Part 1 allocates all three, so
    they come from its malloc arena, as on one thread; from part 0's,
    large2d_cli's peak RSS rose by up to 4 MiB.  Each entry undergoes the
    operations of the serial functions in the same order: the kernel and
    the scaling are elementwise, and a column sum adds the column's
    entries top to bottom whichever other columns are summed with it.
    An error in either part goes to part 1, which raises the one the
    serial functions would meet first: of the earliest pass, and of part
    0 before part 1 within a pass.

    The check is split into blocks of rows (``BLOCK_ENTRIES`` entries
    each), taken in turn by whichever thread is free; each row's products
    are those of the whole matrix.  Part 1 waits for the last block, then
    takes the largest row sum and residual over all blocks, or raises the
    error of the lowest block that failed.
    """

    def __init__(self, points: np.ndarray, rank_multiplier: int):
        self._pts = _checked_points(points)
        k = self._pts.shape[0]
        if k < 4:  # a half must keep two columns for its column sums
            raise ValueError("row halves need at least 4 points")
        if rank_multiplier < 1:
            raise ValueError("rank multiplier must be >= 1")
        self._rank = rank_multiplier
        self._halves = ((0, k // 2), (k // 2, k))
        self._barrier = threading.Barrier(2)
        self._degrees = np.empty(k)
        self._t = None
        # the K x K buffers, allocated by part 1 in build
        self._graph = self._scaled = self.symmetric = None
        self._errors: dict = {}
        self._part0_built = threading.Event()
        self._blocks = _row_blocks(k, 0, k)
        self._claimed = 0
        self._done = threading.Condition()
        self._results: dict = {}
        self._solved = None

    def build(self, part: int) -> LaplacianPair | None:
        """Part ``part``'s half of the graph.  Part 1 waits for part 0 and
        returns the Laplacian pair, or raises the first error of either
        part; part 0 returns None and leaves its errors to part 1."""
        first, end = self._halves[part]
        k = self._pts.shape[0]
        step = 0
        try:
            if part == 1:  # see the class docstring on the arena
                self._graph = np.zeros((k, k))
            self._barrier.wait()
            g = self._graph
            _distance_rows(self._pts, g, first, end)
            self._barrier.wait()
            step = 1
            if part == 1:  # the ranked distance, from the whole matrix
                self._t = select_bandwidth(g, self._rank)
            self._barrier.wait()
            step = 2
            _kernel_rows(g, self._t, first, end)
            self._barrier.wait()
            step = 3
            if part == 1:
                self._scaled = np.empty((k, k))
                self.symmetric = np.empty((k, k))
            deg = self._degrees
            _degree_columns(g, deg, first, end)
            self._barrier.wait()
            step = 4
            _check_degrees(deg)
            step = 5
            _laplacian_rows(g, deg, first, end)
            _scaled_rows(g, 1.0 / np.sqrt(deg), self._scaled, first, end)
            self._barrier.wait()
            _symmetric_rows(self._scaled, self.symmetric, first, end)
            self._barrier.wait()
        except threading.BrokenBarrierError:
            pass  # the other part failed; its error is recorded
        except BaseException as exc:
            self._errors[step, part] = exc
            self._barrier.abort()
        finally:
            if part == 0:
                self._part0_built.set()
        if part == 0:
            return None
        self._part0_built.wait()
        self._scaled = None  # released before the solve
        if self._errors:
            raise self._errors[min(self._errors)]
        return LaplacianPair(self._graph, self._degrees)

    def release(self) -> None:
        """Part 0 is done with the graph, or gives up on it before
        ``build(0)``: part 1 waits for it no longer."""
        if not self._part0_built.is_set():
            self._errors.setdefault(
                (-1, 0), RuntimeError("part 0 left the graph unbuilt"))
            self._barrier.abort()
            self._part0_built.set()

    def solved(self, lp: LaplacianPair, spectrum: Spectrum,
               scratch: np.ndarray) -> None:
        """Hand the solved spectrum over for the check; ``scratch`` is a
        K x K buffer whose rows the check may overwrite."""
        self._solved = (lp.laplacian, lp.degrees, spectrum, scratch)

    def check(self) -> None:
        """Check row blocks until none is left; errors go to part 1."""
        lap, deg, spectrum, scratch = self._solved
        while True:
            with self._done:
                block = self._claimed
                self._claimed += 1
            if block >= len(self._blocks):
                return
            try:
                result = _residual_rows(lap, deg, spectrum,
                                        *self._blocks[block], scratch)
            except BaseException as exc:
                result = exc
            with self._done:
                self._results[block] = result
                self._done.notify_all()

    def verify(self) -> tuple[float, float]:
        """Part 1: check blocks, wait for the last, and return the largest
        row sum and residual, or raise the lowest block's error."""
        self.check()
        with self._done:
            self._done.wait_for(
                lambda: len(self._results) == len(self._blocks))
        results = [self._results[b] for b in range(len(self._blocks))]
        for result in results:
            if isinstance(result, BaseException):
                raise result
        row_sums, worsts = np.array(results).T
        return float(row_sums.max()), float(worsts.max())
