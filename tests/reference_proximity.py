"""Reference eligibility report for the tests.

Before the report was computed as one batch, ``eigenvector_flag_report``
measured, screened and ran the 1-D detector one eigenvector at a time,
and ``detect_1d`` did not check its arguments.  The functions below are
that implementation, copied verbatim, so the differential tests compare
the batched report with it bit for bit.
"""

import math
import warnings

import numpy as np

from conic_purge.errors import TooFewPoints, ZeroVector
from conic_purge.proximity import EligibilityConfig
from conic_purge.spectral import Spectrum

# spread below this (relative to the data magnitude) is considered flat
_FLAT_RTOL = 1e-9


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
