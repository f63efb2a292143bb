import dataclasses
import typing

import numpy as np
import pytest

from conic_purge import (ConicCoeffs, ExperimentConfig, QuadricCoeffs,
                         detect_points, ellipse_from_eccentricity,
                         make_dataset, run_experiment)
from conic_purge.pipeline import (PIPELINES, DetectionOutcome, RunRecord,
                                  run_sweep_cell, sweep_trial_seed)


TYPICAL = ExperimentConfig(model=ellipse_from_eccentricity(5.0, 0.95),
                           n_inliers=100, n_outliers=30, sigma0=0.05,
                           sigma1=2.0, seed=17)


class TestDetectPoints:
    def test_stage_both_equals_chain(self):
        data = make_dataset(TYPICAL)
        both = detect_points(data.points, "both", seed=4)
        prox = detect_points(data.points, "proximity", seed=4)
        chained = detect_points(data.points, "model", seed=4,
                                init_labels=prox.labels)
        assert np.array_equal(both.labels.outlier, chained.labels.outlier)
        assert np.array_equal(both.model.values, chained.model.values)

    def test_unknown_stage(self):
        data = make_dataset(TYPICAL)
        with pytest.raises(ValueError):
            detect_points(data.points, "bogus")

    def test_ransac_branch(self):
        data = make_dataset(TYPICAL)
        out = detect_points(data.points, seed=1, ransac_k=100)
        assert out.proximity_labels is None
        assert out.fit.iterations == 100


@pytest.mark.parametrize("record", [DetectionOutcome, RunRecord])
def test_record_annotations_resolve(record):
    hints = typing.get_type_hints(record)
    assert set(hints) == {f.name for f in dataclasses.fields(record)}
    if record is DetectionOutcome:
        assert hints["model"] == ConicCoeffs | QuadricCoeffs


class TestRunExperiment:
    def test_record_reproducible(self):
        a = run_experiment(TYPICAL)
        b = run_experiment(TYPICAL)
        assert a.nonoverlap == b.nonoverlap
        assert a.precision == b.precision
        assert np.array_equal(a.final_labels.outlier, b.final_labels.outlier)
        assert a.model_json == b.model_json

    def test_all_pipelines_run(self):
        for pipeline in PIPELINES:
            rec = run_experiment(TYPICAL, pipeline, ransac_k=80)
            assert rec.pipeline == pipeline
            assert np.isfinite(rec.nonoverlap)

    def test_unknown_pipeline(self):
        with pytest.raises(ValueError):
            run_experiment(TYPICAL, "bogus")


class TestSweepCells:
    def test_seed_derivation_stable(self):
        assert sweep_trial_seed(1, 2, 3) == sweep_trial_seed(1, 2, 3)
        assert sweep_trial_seed(1, 2, 3) != sweep_trial_seed(1, 2, 4)
        assert sweep_trial_seed(1, 2, 3) != sweep_trial_seed(1, 3, 3)

    def test_cell_rows(self):
        rows = run_sweep_cell(TYPICAL, "n_outliers", 20, 0, 0, 9,
                              ("two_stage", "no_elimination"), 100)
        assert len(rows) == 2
        for _pi, value, pipeline, err, prec, rec in rows:
            assert value == 20.0 and pipeline in PIPELINES
            assert err >= 0.0 and 0.0 <= prec <= 1.0 and 0.0 <= rec <= 1.0

    def test_bad_vary_field(self):
        with pytest.raises(ValueError):
            run_sweep_cell(TYPICAL, "seed", 1, 0, 0, 9, ("two_stage",), 10)
