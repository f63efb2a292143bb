import json
import math
import re

import numpy as np
import pytest
from scipy import stats

from conic_purge import (EllipsoidParams, ExperimentConfig,
                         LengthMismatch, conic_from_ellipse, detection_metrics,
                         ellipse_from_eccentricity, make_dataset,
                         quadric_from_ellipsoid, sampson_distance)
from conic_purge.synth import read_dataset_csv, write_dataset_csv


TYPICAL = ellipse_from_eccentricity(5.0, 0.95)


class TestEllipseFromEccentricity:
    def test_zero_eccentricity_is_circle(self):
        e = ellipse_from_eccentricity(3.0, 0.0)
        assert e.a == e.b == 3.0

    def test_high_eccentricity_shape(self):
        e = ellipse_from_eccentricity(5.0, 0.95)
        expected = 5.0 * math.sqrt(1.0 - 0.95 ** 2)
        assert math.isclose(e.b, expected)
        assert math.isclose(e.b, 1.5612495, abs_tol=1e-6)
        assert math.isclose(e.b ** 2, e.a ** 2 * (1 - 0.95 ** 2))

    def test_near_unit_eccentricity(self):
        e = ellipse_from_eccentricity(5.0, 0.999999)
        assert 0.0 < e.b < 0.01

    def test_domain(self):
        with pytest.raises(ValueError):
            ellipse_from_eccentricity(5.0, 1.0)
        with pytest.raises(ValueError):
            ellipse_from_eccentricity(-1.0, 0.5)


class TestMakeDataset:
    def test_noiseless_points_on_model(self):
        cfg = ExperimentConfig(model=TYPICAL, n_inliers=30, n_outliers=10,
                               sigma0=0.0, sigma1=0.0, seed=3)
        data = make_dataset(cfg)
        d = sampson_distance(data.points, conic_from_ellipse(TYPICAL))
        assert d.max() < 1e-12

    def test_noiseless_3d(self):
        model = EllipsoidParams(np.zeros(3), np.array([5.0, 4.0, 3.0]),
                                np.eye(3))
        cfg = ExperimentConfig(model=model, n_inliers=40, n_outliers=0,
                               sigma0=0.0, sigma1=0.0, seed=5)
        data = make_dataset(cfg)
        d = sampson_distance(data.points, quadric_from_ellipsoid(model))
        assert d.max() < 1e-12

    def test_statistical_scales(self):
        # inlier deviations behave like |N(0, sigma0)| to first order, so
        # their RMS estimates sigma0; outlier coordinate deviations from
        # their base points have std sigma1
        rms_list, std_list = [], []
        for seed in range(20):
            cfg = ExperimentConfig(model=TYPICAL, n_inliers=100, n_outliers=50,
                                   sigma0=0.01, sigma1=2.0, seed=seed)
            data = make_dataset(cfg)
            d = sampson_distance(data.points[data.truth.inlier],
                                 conic_from_ellipse(TYPICAL))
            rms_list.append(math.sqrt(float(np.mean(d ** 2))))
            dev = data.points[data.truth.outlier] - \
                data.base_points[data.truth.outlier]
            std_list.append(float(dev.std()))
        rms = float(np.mean(rms_list))
        assert cfg.sigma0 / 1.5 <= rms <= cfg.sigma0 * 1.5
        std = float(np.mean(std_list))
        assert cfg.sigma1 / 1.2 <= std <= cfg.sigma1 * 1.2

    def test_deterministic(self):
        cfg = ExperimentConfig(model=TYPICAL, seed=123)
        a, b = make_dataset(cfg), make_dataset(cfg)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.truth.outlier, b.truth.outlier)
        assert np.array_equal(a.base_points, b.base_points)

    def test_counts_and_shuffle(self):
        cfg = ExperimentConfig(model=TYPICAL, n_inliers=60, n_outliers=25,
                               seed=9)
        data = make_dataset(cfg)
        assert data.n_points == 85
        assert data.truth.n_outliers == 25
        # shuffling keeps the (point, label) pairing: outliers deviate more
        d = sampson_distance(data.points, conic_from_ellipse(TYPICAL))
        assert np.median(d[data.truth.outlier]) > np.median(d[data.truth.inlier])

    def test_uniform_outlier_mode(self):
        cfg = ExperimentConfig(model=TYPICAL, n_outliers=40, seed=2,
                               outlier_mode="uniform")
        data = make_dataset(cfg)
        assert data.truth.n_outliers == 40

    def test_equal_sigmas_indistinguishable(self):
        # with sigma1 == sigma0 the two classes have the same law, so a
        # two-sample test on deviations should rarely reject
        conic = conic_from_ellipse(TYPICAL)
        rejects = 0
        for seed in range(20):
            cfg = ExperimentConfig(model=TYPICAL, n_inliers=100, n_outliers=50,
                                   sigma0=0.1, sigma1=0.1, seed=seed)
            data = make_dataset(cfg)
            d = sampson_distance(data.points, conic)
            p = stats.ks_2samp(d[data.truth.inlier],
                               d[data.truth.outlier]).pvalue
            rejects += int(p < 0.01)
        assert rejects <= 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(model=TYPICAL, n_inliers=5)
        with pytest.raises(ValueError):
            ExperimentConfig(model=TYPICAL, sigma0=2.0, sigma1=1.0)


class TestDetectionMetrics:
    def test_perfect(self):
        truth = np.r_[np.zeros(5, bool), np.ones(3, bool)]
        scores = detection_metrics(truth, truth)
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_all_inliers_predicted(self):
        truth = np.r_[np.zeros(5, bool), np.ones(3, bool)]
        scores = detection_metrics(np.zeros(8, bool), truth)
        assert scores["recall"] == 0.0 and scores["precision"] == 0.0

    def test_hand_counts(self):
        truth = np.zeros(100, bool)
        truth[:10] = True
        predicted = np.zeros(100, bool)
        predicted[:8] = True    # 8 of the 10 true outliers
        predicted[50:52] = True  # plus 2 inliers
        scores = detection_metrics(predicted, truth)
        assert scores["precision"] == 0.8 and scores["recall"] == 0.8

    def test_empty_empty_convention(self):
        nothing = np.zeros(6, bool)
        scores = detection_metrics(nothing, nothing)
        assert scores == {"precision": 1.0, "recall": 1.0, "f1": 1.0}

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            detection_metrics(np.zeros(4, bool), np.zeros(5, bool))


class TestDatasetCsv:
    def test_round_trip_with_labels(self, tmp_path):
        cfg = ExperimentConfig(model=TYPICAL, n_inliers=15, n_outliers=5,
                               seed=1)
        data = make_dataset(cfg)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, data.points, data.truth)
        back, flags = read_dataset_csv(path)
        assert np.array_equal(back, data.points)
        assert np.array_equal(flags, data.truth.outlier)

    def test_no_labels(self, tmp_path, rng):
        pts = rng.normal(size=(8, 3))
        path = tmp_path / "d3.csv"
        write_dataset_csv(path, pts)
        back, flags = read_dataset_csv(path)
        assert np.array_equal(back, pts) and flags is None

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            read_dataset_csv(path)

    @pytest.mark.parametrize("label", ["OUTLIER", "Inlier", "outliers", "1"])
    def test_unknown_label_names_the_row(self, tmp_path, label):
        path = tmp_path / "d.csv"
        path.write_text(f"x,y,label\n1,2,inlier\n3,4,{label}\n5,6,outlier\n")
        with pytest.raises(ValueError,
                           match=re.escape(f"{path}: row 2: label")):
            read_dataset_csv(path)


class TestConfigJson:
    def test_round_trip(self):
        cfg = ExperimentConfig(model=TYPICAL, n_inliers=77, n_outliers=33,
                               sigma0=0.05, sigma1=1.5, seed=42)
        back = ExperimentConfig.from_json_dict(cfg.to_json_dict())
        assert back.n_inliers == 77 and back.seed == 42
        assert math.isclose(back.model.b, TYPICAL.b)
        assert back.eligibility == cfg.eligibility
        assert back.refine == cfg.refine
        json.dumps(cfg.to_json_dict())  # serializable

    def test_eccentricity_form(self):
        obj = {"model": {"type": "ellipse", "center": [0, 0],
                         "semi_major": 5.0, "eccentricity": 0.95},
               "n_inliers": 100, "n_outliers": 50,
               "sigma0": 0.01, "sigma1": 2.0, "seed": 1}
        cfg = ExperimentConfig.from_json_dict(obj)
        assert math.isclose(cfg.model.b, 5.0 * math.sqrt(1 - 0.95 ** 2))

    def test_ellipsoid_form(self):
        obj = {"model": {"type": "ellipsoid", "center": [0, 0, 0],
                         "semi_axes": [5, 4, 3]},
               "n_inliers": 300, "n_outliers": 50,
               "sigma0": 0.1, "sigma1": 5.0, "seed": 1}
        cfg = ExperimentConfig.from_json_dict(obj)
        assert cfg.dimension == 3
