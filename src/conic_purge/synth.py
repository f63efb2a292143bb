"""Seeded synthetic scenarios and detection-quality metrics.

A scenario is a ground-truth ellipse or ellipsoid, N low-noise points on
it (inliers) and M points generated the same way but with a much larger
noise amplitude (outliers), all shuffled together.  Everything is a pure
function of the configuration, seed included.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .errors import LengthMismatch, typed_number
from .geometry import (EllipseParams, EllipsoidParams,
                       ellipse_boundary_points, ellipsoid_boundary_points)
from .modelfit import RefineConfig
from .proximity import DetectionLabels, EligibilityConfig

__all__ = [
    "ExperimentConfig",
    "LabeledDataset",
    "ellipse_from_eccentricity",
    "make_dataset",
    "detection_metrics",
    "read_dataset_csv",
    "write_dataset_csv",
    "write_text",
]


def ellipse_from_eccentricity(a: float, eccentricity: float,
                              center=(0.0, 0.0), theta: float = 0.0,
                              ) -> EllipseParams:
    """Ellipse from semi-major length and eccentricity: b = a*sqrt(1-e^2)."""
    if not 0.0 <= eccentricity < 1.0:
        raise ValueError("eccentricity must lie in [0, 1)")
    if a <= 0.0:
        raise ValueError("semi-major length must be positive")
    b = a * math.sqrt(1.0 - eccentricity ** 2)
    return EllipseParams(float(center[0]), float(center[1]), a, b, theta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete description of one synthetic scenario."""

    model: EllipseParams | EllipsoidParams
    n_inliers: int = 100
    n_outliers: int = 50
    sigma0: float = 0.01
    sigma1: float = 2.0
    seed: int = 0
    outlier_mode: str = "gaussian"  # or "uniform": box over the noisy extent
    eligibility: EligibilityConfig = field(default_factory=EligibilityConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)

    def __post_init__(self):
        for name, cast in (("n_inliers", int), ("n_outliers", int),
                           ("sigma0", float), ("sigma1", float),
                           ("seed", int)):
            object.__setattr__(
                self, name, typed_number(cast, getattr(self, name), name))
        if self.n_inliers < 12:
            raise ValueError("need at least 12 inliers")
        if self.n_outliers < 0:
            raise ValueError("outlier count cannot be negative")
        if not (math.isfinite(self.sigma0) and math.isfinite(self.sigma1)):
            raise ValueError("sigma0 and sigma1 must be finite")
        if not 0.0 <= self.sigma0 <= self.sigma1:
            raise ValueError("require sigma1 >= sigma0 >= 0")
        if self.outlier_mode not in ("gaussian", "uniform"):
            raise ValueError("outlier_mode must be 'gaussian' or 'uniform'")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")

    @property
    def dimension(self) -> int:
        return 2 if isinstance(self.model, EllipseParams) else 3

    def to_json_dict(self) -> dict:
        return {
            "model": self.model.to_json_dict(),
            "n_inliers": self.n_inliers,
            "n_outliers": self.n_outliers,
            "sigma0": self.sigma0,
            "sigma1": self.sigma1,
            "seed": self.seed,
            "outlier_mode": self.outlier_mode,
            "eligibility": vars(self.eligibility).copy(),
            "refine": vars(self.refine).copy(),
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "ExperimentConfig":
        """The config of a scenario JSON object; a missing required key,
        a model, ``eligibility`` or ``refine`` that is not an object, or an
        unknown key of the last two, raises ValueError naming the key and
        the object it belongs to."""
        if not isinstance(obj, dict):
            raise ValueError("expected a JSON object")
        if "model" not in obj:
            raise ValueError("missing key 'model'")
        model_obj = obj["model"]
        if not isinstance(model_obj, dict):
            raise ValueError("model: expected a JSON object")
        try:
            if model_obj.get("type") == "ellipsoid":
                model = EllipsoidParams.from_json_dict(model_obj)
            elif "eccentricity" in model_obj:
                model = ellipse_from_eccentricity(
                    float(model_obj["semi_major"]),
                    float(model_obj["eccentricity"]),
                    model_obj.get("center", (0.0, 0.0)),
                    float(model_obj.get("rotation", 0.0)))
            else:
                model = EllipseParams.from_json_dict(model_obj)
        except KeyError as exc:
            raise ValueError(f"model: missing key {exc.args[0]!r}") from None
        return cls(
            model=model,
            n_inliers=obj.get("n_inliers", 100),
            n_outliers=obj.get("n_outliers", 50),
            sigma0=obj.get("sigma0", 0.01),
            sigma1=obj.get("sigma1", 2.0),
            seed=obj.get("seed", 0),
            outlier_mode=str(obj.get("outlier_mode", "gaussian")),
            eligibility=_knobs(EligibilityConfig, obj, "eligibility"),
            refine=_knobs(RefineConfig, obj, "refine"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        try:
            return cls.from_json_dict(obj)
        except ValueError as exc:
            raise ValueError(f"scenario config: {exc}") from None


def _knobs(config_type, obj: dict, name: str):
    """``config_type`` built from the optional object ``obj[name]``; a
    value that is not an object, an unknown key or a refused value raises
    ValueError naming ``name``."""
    knobs = obj.get(name, {})
    if not isinstance(knobs, dict):
        raise ValueError(f"{name}: expected a JSON object")
    known = {f.name for f in fields(config_type)}
    for key in knobs:
        if key not in known:
            raise ValueError(f"{name}: unknown key {key!r}")
    try:
        return config_type(**knobs)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{name}: {exc}") from None


@dataclass(frozen=True)
class LabeledDataset:
    """Generated points with ground-truth labels and their noiseless bases."""

    points: np.ndarray
    truth: DetectionLabels
    config: ExperimentConfig
    base_points: np.ndarray

    @property
    def n_points(self) -> int:
        return int(self.points.shape[0])


def _surface_samples(model, count: int, rng) -> np.ndarray:
    if isinstance(model, EllipseParams):
        return ellipse_boundary_points(model, rng.uniform(0.0, 2.0 * math.pi,
                                                          count))
    azimuth = rng.uniform(0.0, 2.0 * math.pi, count)
    elevation = rng.uniform(-math.pi / 2.0, math.pi / 2.0, count)
    return ellipsoid_boundary_points(model, azimuth, elevation)


def make_dataset(cfg: ExperimentConfig) -> LabeledDataset:
    """Generate one scenario, bit-identical for a fixed configuration.

    Inliers and outliers are both surface samples at uniform random
    parametric angles plus i.i.d. per-coordinate Gaussian noise (sigma0
    for inliers, sigma1 for outliers); "uniform" outlier mode instead
    scatters outliers in a box spanning the noisy extent.  The rows are
    shuffled so class membership carries no positional hint.
    """
    rng = np.random.default_rng(cfg.seed)
    dim = cfg.dimension
    n, m = cfg.n_inliers, cfg.n_outliers
    base_in = _surface_samples(cfg.model, n, rng)
    inliers = base_in + rng.normal(0.0, cfg.sigma0, (n, dim))
    base_out = _surface_samples(cfg.model, m, rng)
    if cfg.outlier_mode == "gaussian":
        outliers = base_out + rng.normal(0.0, cfg.sigma1, (m, dim))
    else:
        lo = base_in.min(axis=0) - 3.0 * cfg.sigma1
        hi = base_in.max(axis=0) + 3.0 * cfg.sigma1
        outliers = rng.uniform(lo, hi, (m, dim))
    points = np.vstack([inliers, outliers])
    bases = np.vstack([base_in, base_out])
    flags = np.zeros(n + m, dtype=bool)
    flags[n:] = True
    perm = rng.permutation(n + m)
    return LabeledDataset(points[perm], DetectionLabels(flags[perm], "truth"),
                          cfg, bases[perm])


def detection_metrics(predicted: DetectionLabels | np.ndarray,
                      truth: DetectionLabels | np.ndarray) -> dict:
    """Precision/recall/F1 on the outlier class.

    Empty-denominator conventions: a score is 1 when both the predicted
    and true outlier sets are empty, 0 when only the denominator side is.
    """
    pred = predicted.outlier if isinstance(predicted, DetectionLabels) \
        else np.asarray(predicted, dtype=bool)
    true = truth.outlier if isinstance(truth, DetectionLabels) \
        else np.asarray(truth, dtype=bool)
    if pred.shape != true.shape:
        raise LengthMismatch(
            f"prediction has {pred.shape[0]} labels, truth {true.shape[0]}")
    tp = int(np.count_nonzero(pred & true))
    fp = int(np.count_nonzero(pred & ~true))
    fn = int(np.count_nonzero(~pred & true))
    if tp + fp == 0:
        precision = 1.0 if tp + fn == 0 else 0.0
    else:
        precision = tp / (tp + fp)
    if tp + fn == 0:
        recall = 1.0 if tp + fp == 0 else 0.0
    else:
        recall = tp / (tp + fn)
    f1 = 0.0 if precision + recall == 0.0 \
        else 2.0 * precision * recall / (precision + recall)
    return {"precision": precision, "recall": recall, "f1": f1}


def write_dataset_csv(path, points: np.ndarray,
                      labels: DetectionLabels | None = None) -> None:
    """CSV with header x,y[,z][,label]; floats use shortest round-trip form."""
    pts = np.asarray(points, dtype=float)
    dim = pts.shape[1]
    header = ["x", "y", "z"][:dim]
    if labels is not None:
        header.append("label")
    lines = [",".join(header)]
    for i, row in enumerate(pts):
        cells = [repr(float(v)) for v in row]
        if labels is not None:
            cells.append("outlier" if labels.outlier[i] else "inlier")
        lines.append(",".join(cells))
    write_text(path, "\n".join(lines) + "\n")


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 with LF line ends, creating its
    parent directories."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def outlier_flag(label: str, where: str) -> bool:
    """True for ``outlier``, False for ``inlier``; anything else is refused."""
    if label not in ("inlier", "outlier"):
        raise ValueError(
            f"{where}: label {label!r} is neither 'inlier' nor 'outlier'")
    return label == "outlier"


def _coordinate(cell: str, where: str) -> float:
    """The finite number a coordinate cell holds; anything else is refused."""
    try:
        value = float(cell)
    except ValueError:
        raise ValueError(f"{where}: coordinate {cell!r} is not a number") \
            from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: coordinate {cell!r} is not finite")
    return value


def read_dataset_csv(path):
    """Read points and the optional ground-truth label column.

    Returns (points, truth_flags_or_None).  A row with the wrong number of
    cells, a coordinate that is not a finite number or an unknown label is
    refused with the file and row named.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows:
        raise ValueError(f"{path}: empty dataset file")
    header = [h.strip().lower() for h in rows[0].split(",")]
    has_label = header[-1] == "label"
    coord_names = header[:-1] if has_label else header
    if coord_names not in (["x", "y"], ["x", "y", "z"]):
        raise ValueError(f"{path}: expected columns x,y[,z][,label]")
    dim = len(coord_names)
    points, flags = [], []
    for row, line in enumerate(rows[1:], start=1):
        where = f"{path}: row {row}"
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise ValueError(f"{where}: expected {len(header)} cells "
                             f"({','.join(header)}), got {len(cells)}")
        points.append([_coordinate(c, where) for c in cells[:dim]])
        if has_label:
            flags.append(outlier_flag(cells[dim], where))
    pts = np.asarray(points, dtype=float)
    return pts, (np.asarray(flags, dtype=bool) if has_label else None)
