"""Spans around the program's functions, recorded from outside the program.

Each site names the module attribute through which a caller looks a
function up.  While a dataset is traced, that attribute is replaced by a
wrapper that appends (name, start, end, parent, dataset, raised) to an
in-memory list; the originals are put back when the dataset ends.  A site
whose module or attribute no longer exists is reported as absent.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
import tracemalloc
from collections import defaultdict

import numpy as np

ROOT_SPAN = "bench.dataset"

LAYERS = ("synth", "spectral", "eigh_backends", "proximity", "modelfit",
          "geometry", "pipeline", "cli")

# (module, attribute the caller looks up, span name).  A function imported
# into several modules is wrapped at each of them under one span name.
SITES = (
    ("conic_purge.pipeline", "run_experiment", "pipeline.run_experiment"),
    ("conic_purge.pipeline", "detect_points", "pipeline.detect_points"),
    ("conic_purge.pipeline", "make_dataset", "synth.make_dataset"),
    ("conic_purge.pipeline", "detection_metrics", "synth.detection_metrics"),
    ("conic_purge.pipeline", "proximity_stage", "proximity.proximity_stage"),
    ("conic_purge.pipeline", "refine", "modelfit.refine"),
    ("conic_purge.pipeline", "vanilla_ransac", "modelfit.vanilla_ransac"),
    ("conic_purge.pipeline", "fit_ellipse_direct", "modelfit.fit_direct"),
    ("conic_purge.pipeline", "fit_ellipsoid_direct", "modelfit.fit_direct"),
    ("conic_purge.pipeline", "nonoverlap_ratio", "geometry.nonoverlap_ratio"),
    ("conic_purge.cli", "main", "cli.main"),
    ("conic_purge.cli", "cmd_detect", "cli.cmd_detect"),
    ("conic_purge.cli", "read_dataset_csv", "synth.read_dataset_csv"),
    ("conic_purge.cli", "spectrum_of_points", "proximity.spectrum_of_points"),
    ("conic_purge.cli", "eigenvector_flag_report",
     "proximity.eigenvector_flag_report"),
    ("conic_purge.cli", "detect_points", "pipeline.detect_points"),
    ("conic_purge.proximity", "spectrum_of_points",
     "proximity.spectrum_of_points"),
    ("conic_purge.proximity", "eigenvector_flag_report",
     "proximity.eigenvector_flag_report"),
    ("conic_purge.proximity", "detect_1d", "proximity.detect_1d"),
    ("conic_purge.proximity", "pairwise_distances",
     "spectral.pairwise_distances"),
    ("conic_purge.proximity", "select_bandwidth", "spectral.select_bandwidth"),
    ("conic_purge.proximity", "heat_kernel_weights",
     "spectral.heat_kernel_weights"),
    ("conic_purge.proximity", "graph_laplacian", "spectral.graph_laplacian"),
    ("conic_purge.proximity", "generalized_eigs", "spectral.generalized_eigs"),
    ("conic_purge.spectral", "solve_symmetric",
     "eigh_backends.solve_symmetric"),
    ("conic_purge.modelfit", "fit_ellipse_direct", "modelfit.fit_direct"),
    ("conic_purge.modelfit", "fit_ellipsoid_direct", "modelfit.fit_direct"),
    ("conic_purge.modelfit", "signed_residuals", "geometry.signed_residuals"),
)

PEAK_ALLOC_SITE = ("conic_purge.pipeline", "proximity_stage")


def _lookup(module_name: str, attr: str):
    try:
        module = importlib.import_module(module_name)
    except ImportError:
        return None, None
    return module, getattr(module, attr, None)


def trusted_vectors(eigenvalues, eigenvectors, eligibility) -> int:
    """Eligible eigenvectors that pass the proximity stage's trust predicates.

    Eligible: eigenvalue below ``eig_threshold`` and sign-mix measure below
    ``hf_threshold``.  Trusted: eigenvalue below ``strong_eig_threshold``
    and peak-to-bulk ratio ptp/MAD at least ``binary_ratio``.  Computed
    here from the spectrum alone, so the count does not depend on how the
    program orders its filters.
    """
    strong = min(eligibility.strong_eig_threshold, eligibility.eig_threshold)
    count = 0
    for idx in np.flatnonzero(np.asarray(eigenvalues) < strong):
        v = np.asarray(eigenvectors[:, idx], dtype=float)
        total = float(np.abs(v).sum())
        if total == 0.0 or (total - abs(float(v.sum()))) / total \
                >= eligibility.hf_threshold:
            continue
        mad = float(np.median(np.abs(v - np.median(v))))
        if float(np.ptp(v)) / (mad + 1e-300) >= eligibility.binary_ratio:
            count += 1
    return count


class Recorder:
    """In-memory spans of the traced datasets of one run."""

    def __init__(self, eligibility):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._dataset = None
        self.iterations: dict = defaultdict(int)
        self.trusted: dict = defaultdict(int)
        self._eligibility = eligibility
        self._pending_spectra: list = []
        observers = {"modelfit.refine": self._observe_refine,
                     "spectral.generalized_eigs": self._observe_spectrum}
        self.absent: list[str] = []
        self._installs, self._originals = [], []
        for module_name, attr, name in SITES:
            module, original = _lookup(module_name, attr)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._originals.append((module, attr, original))
            wrapper = self._wrap(name, original, observers.get(name))
            self._installs.append((module, attr, wrapper))

    def _observe_refine(self, result) -> None:
        self.iterations[self._dataset] += int(getattr(result, "iterations", 0))

    def _observe_spectrum(self, spectrum) -> None:
        # keep only the few near-zero columns; analysed after the dataset
        evals = np.asarray(spectrum.eigenvalues)
        keep = np.flatnonzero(evals < self._eligibility.strong_eig_threshold)
        columns = spectrum.eigenvectors[:, keep].copy()
        self._pending_spectra.append((self._dataset, evals[keep], columns))

    def _wrap(self, name, fn, observe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, raised=True)
                raise
            self._close(idx, raised=False)
            if observe is not None:
                observe(result)
            return result
        return traced

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent,
                           self._dataset, False])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int, raised: bool) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = raised
        self._stack.pop()

    @contextlib.contextmanager
    def dataset(self, dataset_id: int):
        """Trace one dataset: wrappers in, a root span around the body."""
        for module, attr, wrapper in self._installs:
            setattr(module, attr, wrapper)
        self._dataset = dataset_id
        root = self._open(ROOT_SPAN)
        try:
            yield
        finally:
            self._close(root, raised=False)
            for module, attr, original in self._originals:
                setattr(module, attr, original)
            for ds, evals, evecs in self._pending_spectra:
                self.trusted[ds] += trusted_vectors(evals, evecs,
                                                    self._eligibility)
            self._pending_spectra.clear()

    def _self_seconds(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [span[2] - span[1] for span in self.spans]
        for span in self.spans:
            if span[3] >= 0:
                own[span[3]] -= span[2] - span[1]
        return own

    def layer_stats(self, count_datasets) -> dict:
        """Per span name: mean ms and self ms per traced dataset, and the
        calls, raises, refine iterations and trusted vectors per dataset
        among ``count_datasets`` (a fixed set, so counts repeat exactly)."""
        datasets = {span[4] for span in self.spans}
        counted = set(count_datasets) & datasets
        n, n_count = max(len(datasets), 1), max(len(counted), 1)
        stats = defaultdict(lambda: dict.fromkeys(
            ("ms", "self_ms", "calls", "raised"), 0.0))
        for span, own in zip(self.spans, self._self_seconds()):
            entry = stats[span[0]]
            entry["ms"] += 1e3 * (span[2] - span[1]) / n
            entry["self_ms"] += 1e3 * own / n
            if span[4] in counted:
                entry["calls"] += 1.0 / n_count
                entry["raised"] += float(span[5]) / n_count
        stats["modelfit.refine"]["iterations"] = \
            sum(self.iterations[d] for d in counted) / n_count
        stats["proximity.detect_1d"]["trusted"] = \
            sum(self.trusted[d] for d in counted) / n_count
        return stats

    def layer_shares(self) -> dict:
        """Share of the traced time spent in each layer's own code."""
        total = sum(s[2] - s[1] for s in self.spans if s[0] == ROOT_SPAN)
        shares = dict.fromkeys(LAYERS, 0.0)
        for span, own in zip(self.spans, self._self_seconds()):
            layer = span[0].split(".", 1)[0]
            if layer in shares and total > 0.0:
                shares[layer] += own / total
        return shares


@contextlib.contextmanager
def peak_alloc(peaks: list):
    """Record tracemalloc's peak above entry, in MiB, of each call of the
    proximity stage made while the context is open."""
    module, original = _lookup(*PEAK_ALLOC_SITE)
    if original is None:
        yield
        return

    @functools.wraps(original)
    def measured(*args, **kwargs):
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        try:
            return original(*args, **kwargs)
        finally:
            peaks.append((tracemalloc.get_traced_memory()[1] - base) / 2**20)

    setattr(module, PEAK_ALLOC_SITE[1], measured)
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()
        setattr(module, PEAK_ALLOC_SITE[1], original)
