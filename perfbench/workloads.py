"""The benchmark's four workloads and the public call each one times.

A workload turns (run seed, dataset index) into one input, makes one call
through a public entry point (``pipeline.run_experiment`` or ``cli.main``)
and reduces the outputs to a SHA-256 digest plus the quality scores.  The
entry points are looked up on their modules at call time, so a traced run
sees the wrappers installed there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from conic_purge import cli, pipeline
from conic_purge.geometry import (EllipseParams, EllipsoidParams,
                                  nonoverlap_ratio)
from conic_purge.synth import (ExperimentConfig, ellipse_from_eccentricity,
                               make_dataset, write_dataset_csv)

TYPICAL_ELLIPSE = ellipse_from_eccentricity(5.0, 0.95)
ELLIPSOID = EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]), np.eye(3))


def dataset_seed(seed: int, workload_index: int, dataset_index: int) -> int:
    """Seed of one dataset, derived like ``pipeline.sweep_trial_seed``.

    Repeated here rather than imported so that no change to the program
    can change the benchmark's inputs.
    """
    seq = np.random.SeedSequence([int(seed), int(workload_index),
                                  int(dataset_index)])
    return int(seq.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Outcome:
    digest: str
    failed: bool
    f1: float
    nonoverlap: float

    @classmethod
    def raised(cls, exc: BaseException) -> "Outcome":
        return cls(f"raised {type(exc).__name__}", True, math.nan, math.nan)


def _sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "little"))
        h.update(part)
    return h.hexdigest()


@dataclass(frozen=True)
class ExperimentWorkload:
    """``pipeline.run_experiment`` on one generated scenario per dataset."""

    name: str
    index: int
    scenario: ExperimentConfig
    pipeline: str
    min_f1: float
    max_nonoverlap: float
    ransac_k: int = 1000

    def prepare(self, seed: int, i: int, workdir: Path) -> ExperimentConfig:
        return replace(self.scenario, seed=dataset_seed(seed, self.index, i))

    def call(self, cfg: ExperimentConfig):
        return pipeline.run_experiment(cfg, self.pipeline, self.ransac_k)

    def inspect(self, cfg: ExperimentConfig, record) -> Outcome:
        labels = record.final_labels
        digest = _sha(labels.outlier.tobytes(),
                      "\n".join(map(str, labels.stage)).encode(),
                      json.dumps(record.model_json, sort_keys=True).encode())
        failed = not math.isfinite(record.nonoverlap)
        return Outcome(digest, failed, record.f1, record.nonoverlap)


@dataclass(frozen=True)
class CliJob:
    config: ExperimentConfig
    argv: list
    outputs: tuple


@dataclass(frozen=True)
class CliWorkload:
    """``conic-purge detect`` with both debug dumps on a CSV per dataset.

    The CSV is written before the call and is not part of its time; the
    fitted model is scored against the truth after the call.
    """

    name: str
    index: int
    scenario: ExperimentConfig
    min_f1: float
    max_nonoverlap: float

    def prepare(self, seed: int, i: int, workdir: Path) -> CliJob:
        cfg = replace(self.scenario, seed=dataset_seed(seed, self.index, i))
        workdir.mkdir(parents=True, exist_ok=True)
        data = make_dataset(cfg)
        csv = workdir / "data.csv"
        write_dataset_csv(csv, data.points, data.truth)
        outputs = tuple(workdir / name for name in (
            "labels.csv", "model.json", "spectrum.csv", "eligible.csv"))
        argv = ["detect", "--data", str(csv), "--seed", str(cfg.seed),
                "--out-labels", str(outputs[0]),
                "--out-model", str(outputs[1]),
                "--dump-spectrum", str(outputs[2]),
                "--dump-eligible", str(outputs[3])]
        return CliJob(cfg, argv, outputs)

    def call(self, job: CliJob):
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(job.argv)
        return code, stdout.getvalue()

    def inspect(self, job: CliJob, raw) -> Outcome:
        code, stdout = raw
        if code != 0:
            return Outcome(f"exit {code}", True, math.nan, math.nan)
        contents = [path.read_bytes() for path in job.outputs]
        model = EllipseParams.from_json_dict(json.loads(contents[1]))
        return Outcome(_sha(*contents), False, json.loads(stdout)["f1"],
                       nonoverlap_ratio(model, job.config.model))


# Quality limits sit well outside the range seen over many seeds; they
# catch a broken algorithm, not a small change in accuracy.
WORKLOADS = {
    wl.name: wl for wl in (
        ExperimentWorkload(
            "typical2d", 0,
            ExperimentConfig(model=TYPICAL_ELLIPSE, n_inliers=100,
                             n_outliers=50, sigma0=0.01, sigma1=2.0),
            "two_stage", min_f1=0.9, max_nonoverlap=0.05),
        ExperimentWorkload(
            "ransac2d", 1,
            ExperimentConfig(model=TYPICAL_ELLIPSE, n_inliers=100,
                             n_outliers=90, sigma0=0.1, sigma1=5.0),
            "ransac", min_f1=0.6, max_nonoverlap=1.0),
        ExperimentWorkload(
            "ellipsoid3d", 2,
            ExperimentConfig(model=ELLIPSOID, n_inliers=300, n_outliers=50,
                             sigma0=0.1, sigma1=5.0),
            "two_stage", min_f1=0.9, max_nonoverlap=0.1),
        CliWorkload(
            "large2d_cli", 3,
            ExperimentConfig(model=TYPICAL_ELLIPSE, n_inliers=600,
                             n_outliers=200, sigma0=0.05, sigma1=2.0),
            min_f1=0.9, max_nonoverlap=0.05),
    )
}
