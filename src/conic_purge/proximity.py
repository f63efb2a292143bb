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
from dataclasses import dataclass, field

import numpy as np

from .errors import NoEligibleVectors, TooFewPoints, ZeroVector, typed_number
from .spectral import (Spectrum, generalized_eigs, graph_laplacian,
                       heat_kernel_weights, pairwise_distances,
                       select_bandwidth)

__all__ = [
    "EligibilityConfig",
    "DetectionLabels",
    "high_frequency_measure",
    "select_eligible",
    "detect_1d",
    "spike_ratio",
    "spectrum_of_points",
    "eigenvector_flag_report",
    "proximity_stage",
]

MIN_POINTS = 12  # fewest points the proximity stage accepts

# spread below this (relative to the data magnitude) is considered flat
_FLAT_RTOL = 1e-9


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
        for name in ("max_iter", "bandwidth_rank", "repeats"):
            object.__setattr__(
                self, name, typed_number(int, getattr(self, name), name))
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


def high_frequency_measure(vector: np.ndarray) -> float:
    """Fraction of absolute mass cancelled by sign mixing.

    (sum|v_j| - |sum v_j|) / sum|v_j|:  0 for a one-signed vector, 1 when
    positive and negative mass balance exactly.
    """
    v = np.asarray(vector, dtype=float)
    total = float(np.abs(v).sum())
    if total == 0.0:
        raise ZeroVector("high-frequency measure of the zero vector")
    return (total - abs(float(v.sum()))) / total


def _eligible_measures(spectrum: Spectrum,
                       cfg: EligibilityConfig) -> list[tuple[int, float]]:
    """(index, hf measure) of each eligible eigenvector, ascending."""
    eligible = []
    for i, lam in enumerate(spectrum.eigenvalues):
        if lam < cfg.eig_threshold:
            hf = high_frequency_measure(spectrum.eigenvectors[:, i])
            if hf < cfg.hf_threshold:
                eligible.append((i, hf))
    return eligible


def select_eligible(spectrum: Spectrum, cfg: EligibilityConfig) -> list[int]:
    """Indices of low-eigenvalue, low-sign-mix eigenvectors, ascending.

    Raises NoEligibleVectors when nothing qualifies; callers fall back to
    "no proximity outliers" and continue with the model stage.
    """
    eligible = [i for i, _hf in _eligible_measures(spectrum, cfg)]
    if not eligible:
        raise NoEligibleVectors("no eigenvector passed the eligibility filters")
    return eligible


def _sorted_quartiles(x: np.ndarray) -> tuple[float, float, float]:
    """Quartiles of an ascending sample, equal bit for bit to
    ``np.quantile(x, [0.25, 0.5, 0.75], method="linear")``.

    Hyndman & Fan type 7: position (m-1)*q, interpolated between its two
    neighbours with numpy's two-sided rule (from the upper neighbour when
    the weight is at least one half).
    """
    m = x.shape[0]
    out = []
    for q in (0.25, 0.5, 0.75):
        pos = (m - 1) * q
        i = math.floor(pos)
        if i >= m - 1:
            out.append(float(x[-1]))
            continue
        t = pos - i
        a, b = float(x[i]), float(x[i + 1])
        d = b - a
        out.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return out[0], out[1], out[2]


def detect_1d(values: np.ndarray, gamma: float, rng_seed,
              max_iter: int = 100,
              initial_inliers: np.ndarray | None = None) -> np.ndarray:
    """Iterative quantile-interval outlier test on a 1-D sample.

    Starts from a random half of the elements (or ``initial_inliers`` when
    given), builds the interval
    [mu - gamma*(mu - q1), mu + gamma*(q3 - mu)] from the current inliers'
    quartiles, reclassifies everything against it, and repeats to a
    fixpoint (or ``max_iter``).  Returns the boolean outlier flags.

    The random half is drawn from the value-sorted order, so for a fixed
    seed the flags do not depend on how the input happens to be arranged.
    A sample whose total spread is negligible relative to its magnitude
    yields no flags, as does an interval that would exclude everything.

    The values are sorted once.  After the first pass the inliers are an
    interval of values, i.e. a contiguous range of the sorted order, so
    each pass reads its quartiles from a slice and finds the next range
    with two binary searches.
    """
    v = np.asarray(values, dtype=float)
    n = v.shape[0]
    if n < 4:
        raise TooFewPoints("need at least 4 values for quartiles")
    order = np.lexsort((np.arange(n), v))
    s = v[order]
    if s[-1] - s[0] <= _FLAT_RTOL * max(1.0, abs(s[0]), abs(s[-1])):
        return np.zeros(n, dtype=bool)

    # the first pass starts from an arbitrary subset, held as a mask over
    # the sorted order; every later pass from the range span = (start, stop)
    if initial_inliers is None:
        rng = np.random.default_rng(rng_seed)
        member = np.zeros(n, dtype=bool)
        member[rng.permutation(n)[:n // 2]] = True
    else:
        mask = np.asarray(initial_inliers, dtype=bool)
        if mask.shape != v.shape or not mask.any():
            raise ValueError("initial inlier mask must be nonempty over values")
        member = mask[order]
    span = None

    for _ in range(max_iter):
        selected = s[member] if span is None else s[span[0]:span[1]]
        q1, mu, q3 = _sorted_quartiles(selected)
        lo, hi = mu - gamma * (mu - q1), mu + gamma * (q3 - mu)
        # sub-noise variation around the interval must not protrude
        pad = _FLAT_RTOL * max(1.0, abs(lo), abs(hi))
        start = int(np.searchsorted(s, lo - pad, side="left"))
        stop = int(np.searchsorted(s, hi + pad, side="right"))
        if stop <= start:
            warnings.warn("interval excluded every element; keeping all points",
                          RuntimeWarning, stacklevel=2)
            return np.zeros(n, dtype=bool)
        if span is None:
            fixpoint = (stop - start == selected.shape[0]
                        and bool(member[start:stop].all()))
        else:
            fixpoint = span == (start, stop)
        span = (start, stop)
        if fixpoint:
            break

    flags = np.ones(n, dtype=bool)
    flags[order[member] if span is None else order[span[0]:span[1]]] = False
    return flags


def _intra_class_deviation(values: np.ndarray, flags: np.ndarray) -> float:
    dev = 0.0
    for mask in (flags, ~flags):
        if np.count_nonzero(mask) > 1:
            dev += float(np.var(values[mask]))
    return dev


def _detect_vector(values, cfg: EligibilityConfig, seed_seq) -> np.ndarray:
    """One eigenvector's flags; repeats>1 keeps the tightest classification."""
    seeds = seed_seq.spawn(cfg.repeats)
    best, best_dev = None, np.inf
    for seed in seeds:
        flags = detect_1d(values, cfg.gamma, seed, cfg.max_iter)
        if cfg.repeats == 1:
            return flags
        dev = _intra_class_deviation(values, flags)
        if dev < best_dev:
            best, best_dev = flags, dev
    return best


def spike_ratio(vector: np.ndarray) -> float:
    """Peak-to-bulk ratio ptp/MAD; large for near-binary vectors.

    An indicator-like vector keeps its bulk at one level (tiny MAD) with a
    few protruding entries (ptp of order 1); smooth modes and noise stay
    below ~10.
    """
    v = np.asarray(vector, dtype=float)
    mad = float(np.median(np.abs(v - np.median(v))))
    return float(np.ptp(v)) / (mad + 1e-300)


def spectrum_of_points(points: np.ndarray,
                       cfg: EligibilityConfig | None = None) -> Spectrum:
    """Heat-kernel graph spectrum of a point set (the stage's front half)."""
    cfg = cfg or EligibilityConfig()
    dist = pairwise_distances(np.asarray(points, dtype=float))
    t = select_bandwidth(dist, cfg.bandwidth_rank)
    w = heat_kernel_weights(dist, t)
    del dist  # each K x K array is released once used, to bound the peak
    lp = graph_laplacian(w)
    del w
    return generalized_eigs(lp)


def _vector_seed(rng_seed: int, idx: int) -> np.random.SeedSequence:
    # per eigenvector index, so a vector's flags do not depend on which
    # other vectors are examined
    return np.random.SeedSequence(entropy=rng_seed, spawn_key=(idx,))


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
    """
    report = []
    for idx, hf in _eligible_measures(spectrum, cfg):
        lam = float(spectrum.eigenvalues[idx])
        vec = spectrum.eigenvectors[:, idx]
        trusted = (lam < cfg.strong_eig_threshold
                   and spike_ratio(vec) >= cfg.binary_ratio)
        flags = (_detect_vector(vec, cfg, _vector_seed(rng_seed, idx))
                 if trusted or detect_all else None)
        report.append((idx, lam, hf, trusted, flags))
    return report


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
