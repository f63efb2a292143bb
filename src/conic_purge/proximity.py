"""Stage 1: flag points that sit away from the dominant proximity cluster.

Eigenvectors of the proximity graph with near-zero eigenvalues are close
to indicator vectors of weakly coupled point groups (Belkin & Niyogi 2003,
von Luxburg 2007).  A small group shows up as a handful of protruding
entries in such a vector.  The stage first picks, from the spectrum alone,
the eigenvectors it can trust: eligible, of a strongly separated group and
near-binary.  Only those go through the repeated quantile-interval test,
and their flags are united.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import TooFewPoints, ZeroVector, typed_number
from .spectral import (Spectrum, generalized_eigs, graph_laplacian,
                       heat_kernel_weights, pairwise_distances,
                       select_bandwidth)

__all__ = [
    "EligibilityConfig",
    "DetectionLabels",
    "spectrum_of_points",
    "eigenvector_flag_report",
    "proximity_stage",
]

MIN_POINTS = 12  # fewest points the proximity stage accepts

# spread below this (relative to the data magnitude) is considered flat
_FLAT_RTOL = 1e-9

# the eligibility report examines its eigenvectors in chunks of at most
# this many bytes.  glibc serves arrays below its mmap threshold, which
# rises to the size of a freed K x K matrix, from a heap that keeps what
# is freed, so the report's working set stays resident: at K=800 the
# whole batch at once raised the benchmark's peak RSS by 5 MiB
_CHUNK_BYTES = 1 << 18


@dataclass(frozen=True)
class EligibilityConfig:
    """Knobs for eigenvector eligibility and the 1-D interval detector.

    Beyond the low-eigenvalue / low-sign-mix eligibility filters, three
    knobs control which detections the stage trusts enough to unite:
    ``strong_eig_threshold`` keeps only eigenvectors of strongly separated
    groups (coupling several bandwidths wide, scale-free since the
    spectrum is degree-normalized); ``binary_ratio`` is the minimum
    peak-to-bulk ratio ptp/MAD that marks a vector as near-binary rather
    than a smooth mode; ``max_flag_fraction`` bounds how much of the data
    one eigenvector may flag, since a weakly coupled group is small by
    assumption.

    A trusted vector must already have an eigenvalue below
    ``strong_eig_threshold``, so ``eig_threshold`` changes the stage's
    labels only when it is set below ``strong_eig_threshold``.  With the
    defaults (0.1 against 1e-6) it only decides which vectors the
    eligibility report (``detect --dump-eligible``) lists.
    """

    eig_threshold: float = 0.1
    hf_threshold: float = 0.9
    gamma: float = 2.5
    max_iter: int = 100
    bandwidth_rank: int = 4
    repeats: int = 1
    max_flag_fraction: float = 0.4
    strong_eig_threshold: float = 1e-6
    binary_ratio: float = 30.0

    def __post_init__(self):
        for spec in fields(self):
            cast = int if spec.type in (int, "int") else float
            object.__setattr__(self, spec.name, typed_number(
                cast, getattr(self, spec.name), spec.name))
        if not 0.0 < self.eig_threshold < math.inf:
            raise ValueError("eig_threshold must be positive and finite")
        if not 0.0 < self.hf_threshold <= 1.0:
            raise ValueError("hf_threshold must lie in (0, 1]")
        if not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.bandwidth_rank < 1:
            raise ValueError("bandwidth_rank must be >= 1")
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if not 0.0 < self.max_flag_fraction <= 1.0:
            raise ValueError("max_flag_fraction must lie in (0, 1]")
        if not 0.0 < self.strong_eig_threshold < math.inf:
            raise ValueError(
                "strong_eig_threshold must be positive and finite")
        if not 1.0 <= self.binary_ratio < math.inf:
            raise ValueError("binary_ratio must be finite and >= 1")


@dataclass(frozen=True)
class DetectionLabels:
    """Per-point outlier flags plus the stage that decided each flag."""

    outlier: np.ndarray
    stage: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        flags = np.asarray(self.outlier, dtype=bool)
        stage = self.stage
        if stage is None:
            stage = np.full(flags.shape, "proximity", dtype=object)
        elif isinstance(stage, str):
            stage = np.full(flags.shape, stage, dtype=object)
        else:
            stage = np.asarray(stage, dtype=object)
            if stage.shape != flags.shape:
                raise ValueError("stage tags must align with flags")
        if flags.all():
            raise ValueError("labels must keep at least one inlier")
        object.__setattr__(self, "outlier", flags)
        object.__setattr__(self, "stage", stage)

    def __len__(self) -> int:
        return int(self.outlier.shape[0])

    @property
    def inlier(self) -> np.ndarray:
        return ~self.outlier

    @property
    def n_outliers(self) -> int:
        return int(np.count_nonzero(self.outlier))


def _hf_measures(rows: np.ndarray) -> np.ndarray:
    """High-frequency measure of each row of a C-contiguous array: the
    fraction of absolute mass cancelled by sign mixing.

    (sum|v_j| - |sum v_j|) / sum|v_j|:  0 for a one-signed vector, 1 when
    positive and negative mass balance exactly.  A row's sums are the
    pairwise sums numpy takes of the vector alone, so each measure equals
    the one-vector value bit for bit.
    """
    total = np.abs(rows).sum(axis=1)
    if not total.all():
        raise ZeroVector("high-frequency measure of the zero vector")
    mixed = np.abs(rows.sum(axis=1))
    with np.errstate(all="ignore"):  # the arithmetic of Python floats
        return (total - mixed) / total


def _row_chunks(vectors: np.ndarray, indexes: np.ndarray, copies: int = 1):
    """Columns ``indexes`` of ``vectors`` as C-contiguous rows, a few at a
    time, with their indexes: each chunk, ``copies`` times over, stays
    within ``_CHUNK_BYTES``."""
    size = max(1, _CHUNK_BYTES // (8 * vectors.shape[0] * copies))
    for first in range(0, len(indexes), size):
        chunk = indexes[first:first + size]
        yield chunk, vectors.T[chunk]


def _eligible(spectrum: Spectrum, cfg: EligibilityConfig):
    """Indexes of the eligible eigenvectors, ascending, with their hf
    measures."""
    below = np.flatnonzero(spectrum.eigenvalues < cfg.eig_threshold)
    hf = np.concatenate([np.empty(0)] + [
        _hf_measures(rows)
        for _, rows in _row_chunks(spectrum.eigenvectors, below)])
    keep = hf < cfg.hf_threshold
    return below[keep], hf[keep]


def _first_max(first, *rest):
    """Python's ``max(first, *rest)`` elementwise: the first of the largest,
    so that a NaN after the first argument is passed over."""
    out = first
    for x in rest:
        out = np.where(x > out, x, out)
    return out


def _row_quartiles(s: np.ndarray, rows: np.ndarray, count: np.ndarray,
                   at: Callable):
    """Quartiles of a selection from each ascending row ``rows`` of ``s``,
    equal bit for bit to ``np.quantile(selection, [0.25, 0.5, 0.75],
    method="linear")``.

    Row j selects ``count[j]`` of its values; ``at(ranks)`` maps one rank
    per row to its position in the row.  Hyndman & Fan type 7: rank
    (count-1)*q, interpolated between its two neighbours with numpy's
    two-sided rule (from the upper neighbour when the weight is at least
    one half).
    """
    last = count - 1
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = last * q
        i = np.floor(pos)
        t = pos - i
        i = i.astype(np.intp)
        a = s[rows, at(np.minimum(i, last))]
        b = s[rows, at(np.minimum(i + 1, last))]
        with np.errstate(all="ignore"):  # the arithmetic of Python floats
            d = b - a
            inner = np.where(t >= 0.5, b - d * (1.0 - t), a + d * t)
        out.append(np.where(i >= last, b, inner))
    return out


def _detect_rows(values: np.ndarray, gamma: float, max_iter: int,
                 seeds=None, initial: np.ndarray | None = None):
    """The iterative quantile-interval outlier test on each row of
    ``values`` at once; returns the (rows, n) outlier flags and the rows
    whose interval excluded every element, ascending.

    A pass builds [mu - gamma*(mu - q1), mu + gamma*(q3 - mu)] from the
    quartiles of a row's inliers and takes the values inside it as the
    next inliers, to a fixpoint or ``max_iter`` passes.  A row of
    negligible spread, or whose interval excludes every value, gets no
    flags.  Row j starts from the random half drawn with ``seeds[j]``, or
    from ``initial[j]`` when given.  Each row is sorted once, and the rows
    iterate together, each to its own end, so a row's flags are those of
    the test run on that row alone:

    - Everything after the start depends on the sorted values only, not
      on which of two equal values sorts first, so the rows are sorted
      without keeping ties in index order.
    - After the first pass the inliers are a range of the sorted order,
      and each pass finds the next range by counting the values below
      and above its interval.
    - From the first pass on, each range is a function of the range
      before it.  So when a row's range repeats an earlier one, its later
      passes cycle, and its range after ``max_iter`` passes is read off
      the cycle instead of iterated to.  A fixpoint is a cycle of one.
    """
    m, n = values.shape
    with np.errstate(all="ignore"):  # the arithmetic of Python floats
        if initial is None:
            s = np.sort(values, axis=1)
        else:
            order = np.argsort(values, axis=1)
            s = np.take_along_axis(values, order, axis=1)
        flat = s[:, -1] - s[:, 0] <= _FLAT_RTOL * _first_max(
            1.0, np.abs(s[:, 0]), np.abs(s[:, -1]))
        live = np.flatnonzero(~flat)
        if initial is None:
            member = np.zeros((live.size, n), dtype=bool)
            for row, j in zip(member, live):
                rng = np.random.default_rng(seeds[j])
                row[rng.permutation(n)[:n // 2]] = True
        else:
            member = np.take_along_axis(initial[live], order[live], axis=1)
        count = member.sum(axis=1)
        positions = np.nonzero(member)[1]  # of each row's members, in turn
        offsets = np.cumsum(count) - count
        every = np.arange(n)

        spans = []  # per pass: (2, rows) starts and stops, -1 if not run
        last = np.zeros(live.size, dtype=np.intp)  # pass whose range ends
        excluded = np.zeros(live.size, dtype=bool)
        active = np.arange(live.size)
        for step in range(max_iter):
            if not active.size:
                break
            if step == 0:
                q1, mu, q3 = _row_quartiles(s, live, count,
                                            lambda r: positions[offsets + r])
            else:
                start, stop = spans[-1][:, active]
                q1, mu, q3 = _row_quartiles(s, live[active], stop - start,
                                            lambda r: start + r)
            lo, hi = mu - gamma * (mu - q1), mu + gamma * (q3 - mu)
            # sub-noise variation around the interval must not protrude
            pad = _FLAT_RTOL * _first_max(1.0, np.abs(lo), np.abs(hi))
            lo, hi = lo - pad, hi + pad
            # searchsorted's positions, counted over the active rows at
            # once (all of s, uncopied, while every row is live and
            # active); a NaN bound sorts after every value
            rows = s if active.size == m else s[live[active]]
            start = np.where(np.isnan(lo), n, (rows < lo[:, None]).sum(axis=1))
            stop = np.where(np.isnan(hi), n, (rows <= hi[:, None]).sum(axis=1))
            empty = stop <= start
            if step == 0:
                inside = (every >= start[:, None]) & (every < stop[:, None])
                ended = ((stop - start == count)
                         & ((member & inside).sum(axis=1) == stop - start))
                last[active[ended]] = 0
            else:
                earlier = np.stack(spans)[:, :, active]
                same = (earlier[:, 0] == start) & (earlier[:, 1] == stop)
                ended = same.any(axis=0)
                first = same.argmax(axis=0)[ended]
                period = step - first
                last[active[ended]] = first + (max_iter - 1 - first) % period
            span = np.full((2, live.size), -1, dtype=np.intp)
            span[:, active] = start, stop
            spans.append(span)
            excluded[active[empty]] = True
            active = active[~(empty | ended)]
        last[active] = max_iter - 1

        # a row's inliers are the values within its last range's ends; a
        # row with no range keeps every value
        bounds = np.empty((2, m))
        bounds[0], bounds[1] = -np.inf, np.inf
        kept = np.flatnonzero(~excluded)
        if kept.size:
            start, stop = np.stack(spans)[last[kept], :, kept].T
            bounds[:, live[kept]] = (s[live[kept], start],
                                     s[live[kept], stop - 1])
        flags = (values < bounds[0, :, None]) | (values > bounds[1, :, None])
    return flags, live[excluded]


def _intra_class_deviation(values: np.ndarray, flags: np.ndarray) -> float:
    dev = 0.0
    for mask in (flags, ~flags):
        if np.count_nonzero(mask) > 1:
            dev += float(np.var(values[mask]))
    return dev


def _detect_vectors(rows: np.ndarray, cfg: EligibilityConfig, rng_seed: int,
                    indexes) -> list[np.ndarray]:
    """The flags of each row, the eigenvector of the same place in
    ``indexes``, from ``repeats`` seeded runs of the detector, batched;
    with repeats>1 the tightest classification is kept."""
    if len(rows) and rows.shape[1] < 4:
        raise TooFewPoints("need at least 4 values for quartiles")
    repeats = cfg.repeats
    # seeded per eigenvector index, so a vector's flags do not depend on
    # which other vectors are examined: the children that
    # SeedSequence(rng_seed, spawn_key=(idx,)).spawn(repeats) makes
    seeds = [np.random.SeedSequence(rng_seed, spawn_key=(idx, r))
             for idx in indexes for r in range(repeats)]
    flags, excluded = _detect_rows(np.repeat(rows, repeats, axis=0),
                                   cfg.gamma, cfg.max_iter, seeds)
    for _ in excluded:
        warnings.warn("interval excluded every element; keeping all points",
                      RuntimeWarning, stacklevel=3)
    if repeats == 1:
        return list(flags)
    kept = []
    for values, runs in zip(rows, flags.reshape(len(rows), repeats, -1)):
        best, best_dev = None, np.inf
        for run in runs:
            dev = _intra_class_deviation(values, run)
            if dev < best_dev:
                best, best_dev = run, dev
        kept.append(best)
    return kept


def _spike_ratios(rows: np.ndarray) -> np.ndarray:
    """Peak-to-bulk ratio ptp/MAD of each row: large for a near-binary
    vector (its bulk at one level), below ~10 for smooth modes and noise.
    A median is read from the sorted row as ``np.median`` reads it from a
    partition, the mean of the middle two for an even length, so each
    ratio equals the one-vector value bit for bit."""
    def medians(x):
        x = np.sort(x, axis=1)
        mid = x.shape[1] // 2
        if x.shape[1] % 2:
            return x[:, mid]
        return (x[:, mid - 1] + x[:, mid]) / 2.0

    mad = medians(np.abs(rows - medians(rows)[:, None]))
    with np.errstate(all="ignore"):  # the arithmetic of Python floats
        return np.ptp(rows, axis=1) / (mad + 1e-300)


def spectrum_of_points(points: np.ndarray,
                       cfg: EligibilityConfig | None = None, *,
                       on_solved: Callable[[Spectrum], None] | None = None,
                       ) -> Spectrum:
    """Heat-kernel graph spectrum of a point set (the stage's front half).

    The one driver of the graph: distances, bandwidth, kernel, Laplacian
    and eigensolve, one after the other on the calling thread, which in
    the overlapped pipeline stages is the worker
    (:func:`~conic_purge.pipeline.detect_points`).  ``on_solved`` goes to
    :func:`~conic_purge.spectral.generalized_eigs`, which hands it the
    spectrum before verifying its eigenpairs.
    """
    cfg = cfg or EligibilityConfig()
    dist = pairwise_distances(np.asarray(points, dtype=float))
    t = select_bandwidth(dist, cfg.bandwidth_rank)
    w = heat_kernel_weights(dist, t)
    del dist  # each K x K array is released once used, to bound the peak
    lp = graph_laplacian(w)
    del w
    return generalized_eigs(lp, on_solved=on_solved)


def eigenvector_flag_report(spectrum: Spectrum, cfg: EligibilityConfig,
                            rng_seed: int, detect_all: bool = False,
                            ) -> list[tuple]:
    """Per eligible eigenvector: (index, eigenvalue, hf measure, trusted,
    flags), in index order; empty when nothing is eligible.

    Trusted vectors are near-binary (spike ratio at least ``binary_ratio``)
    and of strongly separated groups (eigenvalue below
    ``strong_eig_threshold``).  The detector runs once on each trusted
    vector, or on every eligible one with ``detect_all``; the flags of a
    vector it does not run on are None.

    The report is computed as one batch: the measures, the spike ratios
    and the detector's passes run over all vectors at once, with one sort
    and one seeded start per vector, and each entry equals that of the
    vector examined alone bit for bit.
    """
    vectors = spectrum.eigenvectors
    idx, hf = _eligible(spectrum, cfg)
    lam = spectrum.eigenvalues[idx]
    trusted = lam < cfg.strong_eig_threshold
    trusted[trusted] = np.concatenate([np.empty(0)] + [
        _spike_ratios(rows)
        for _, rows in _row_chunks(vectors, idx[trusted])]) \
        >= cfg.binary_ratio
    run = np.ones_like(trusted) if detect_all else trusted
    flags = iter([flags for chunk, rows in _row_chunks(vectors, idx[run],
                                                       cfg.repeats)
                  for flags in _detect_vectors(rows, cfg, rng_seed,
                                               chunk.tolist())])
    return [(i, lam_i, hf_i, ok, next(flags) if detect else None)
            for i, lam_i, hf_i, ok, detect in zip(
                idx.tolist(), lam.tolist(), hf.tolist(), trusted.tolist(),
                run.tolist())]


def proximity_stage(points: np.ndarray, cfg: EligibilityConfig | None = None,
                    rng_seed: int = 0, report: list[tuple] | None = None,
                    ) -> DetectionLabels:
    """Run the full proximity stage on a point set.

    Builds the heat-kernel graph and reads its eligible eigenvectors from
    ``eigenvector_flag_report`` (or from ``report`` when the caller made
    it already, with the same ``cfg`` and ``rng_seed``), so that only the
    vectors the stage can trust go through the 1-D detector.  A detection
    counts when it flags at most ``max_flag_fraction`` of the data.  The
    union of the counted flags grows from the most-separated groups up
    and stops before it would exceed half the data, since inliers are
    assumed to be the majority.  With nothing eligible or trusted the
    stage flags nothing; the subtle outliers it cannot see are the model
    stage's job.
    """
    cfg = cfg or EligibilityConfig()
    pts = np.asarray(points, dtype=float)
    k = pts.shape[0]
    if k < MIN_POINTS:
        raise TooFewPoints(
            f"proximity stage needs at least {MIN_POINTS} points")
    if report is None:
        report = eigenvector_flag_report(spectrum_of_points(pts, cfg), cfg,
                                         rng_seed)
    if not report:
        warnings.warn("no eligible eigenvectors; skipping proximity flags",
                      RuntimeWarning, stacklevel=2)
        return DetectionLabels(np.zeros(k, dtype=bool), "proximity")
    trusted = [(lam, idx, flags) for idx, lam, _hf, ok, flags in report
               if ok and 0 < np.count_nonzero(flags) <= cfg.max_flag_fraction * k]
    trusted.sort(key=lambda t: (t[0], t[1]))
    flagged = np.zeros(k, dtype=bool)
    for _lam, _idx, flags in trusted:
        union = flagged | flags
        if np.count_nonzero(union) > k // 2:
            warnings.warn("flag budget reached; dropping weaker groups",
                          RuntimeWarning, stacklevel=2)
            break
        flagged = union
    return DetectionLabels(flagged, "proximity")
