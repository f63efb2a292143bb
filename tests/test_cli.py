import hashlib
import json
import math
import os
import subprocess
import sys
import threading
import types
import warnings

import numpy as np
import pytest

from conic_purge import EllipseParams
from conic_purge.geometry import ellipse_boundary_points
from conic_purge.proximity import DetectionLabels
from conic_purge.synth import make_dataset, read_dataset_csv, write_dataset_csv

from conftest import FREEZE_SCENARIOS, LARGE_SPECTRUM_SCENARIO, warm_pool


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "conic_purge", *args],
                          capture_output=True, text=True, cwd=cwd)


# sha256 of the curves CSV of TestSweep.test_sweep_curves_frozen
FROZEN_SWEEP_DIGEST = \
    "c57b5f53d7c8ee679293d55bd1b16f6c251b65cf2486dd4a860ae82b123cd4db"

TYPICAL_CONFIG = {
    "model": {"type": "ellipse", "center": [0.0, 0.0], "semi_major": 5.0,
              "eccentricity": 0.95, "rotation": 0.0},
    "n_inliers": 100, "n_outliers": 50,
    "sigma0": 0.01, "sigma1": 2.0, "seed": 11,
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(TYPICAL_CONFIG))
    return path


def write_noiseless_ellipse(path, n=60):
    e = EllipseParams(1.0, -0.5, 4.0, 2.5, 0.3)
    pts = ellipse_boundary_points(e, np.linspace(0, 2 * math.pi, n + 1)[:-1])
    write_dataset_csv(path, pts)
    return e


def detect_argv(csv, seed, labels, model, spectrum, eligible):
    """``detect`` stage "both" on ``csv`` with both dumps."""
    return ["detect", "--data", str(csv), "--seed", str(seed),
            "--out-labels", str(labels), "--out-model", str(model),
            "--dump-spectrum", str(spectrum), "--dump-eligible", str(eligible)]


class TestGenerate:
    def test_typical_scenario_counts(self, tmp_path, config_path):
        out = tmp_path / "data.csv"
        proc = run_cli("generate", "--config", str(config_path),
                       "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 151
        assert lines[0] == "x,y,label"
        assert sum(1 for ln in lines if ln.endswith(",outlier")) == 50

    def test_small_clean_dataset(self, tmp_path):
        cfg = dict(TYPICAL_CONFIG, n_inliers=12, n_outliers=0)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "d.csv"
        assert run_cli("generate", "--config", str(path),
                       "--out", str(out)).returncode == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 13
        assert all(ln.endswith(",inlier") for ln in lines[1:])

    def test_byte_identical(self, tmp_path, config_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("generate", "--config", str(config_path), "--out", str(a))
        run_cli("generate", "--config", str(config_path), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_bad_config_exit_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        proc = run_cli("generate", "--config", str(path),
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1

    def test_missing_file_exit_1(self, tmp_path):
        proc = run_cli("generate", "--config", str(tmp_path / "nope.json"),
                       "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 1

    @pytest.mark.parametrize("sigmas", [(0.01, math.inf), (math.inf, math.inf),
                                        (-math.inf, 2.0), (0.01, math.nan)],
                             ids=["sigma1", "both", "sigma0", "nan"])
    def test_non_finite_noise_exit_1(self, tmp_path, capsys, sigmas):
        from conic_purge import cli
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(dict(TYPICAL_CONFIG, sigma0=sigmas[0],
                                        sigma1=sigmas[1])))
        out = tmp_path / "d.csv"
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(out)]) == 1
        assert "sigma0 and sigma1 must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("config, message", [
        ({k: v for k, v in TYPICAL_CONFIG.items() if k != "model"},
         "missing key 'model'"),
        (dict(TYPICAL_CONFIG, model={"type": "ellipse", "center": [0, 0]}),
         "model: missing key 'semi_axes'"),
        (dict(TYPICAL_CONFIG, model={"eccentricity": 0.5}),
         "model: missing key 'semi_major'"),
        (dict(TYPICAL_CONFIG, model={"type": "ellipsoid",
                                     "semi_axes": [3, 2, 1]}),
         "model: missing key 'center'"),
        (dict(TYPICAL_CONFIG, model=None), "model: expected a JSON object"),
        ([TYPICAL_CONFIG], "expected a JSON object"),
        (dict(TYPICAL_CONFIG, seed=-1), "seed must be >= 0, got -1"),
    ], ids=["model", "semi_axes", "semi_major", "center", "model-null",
            "list", "negative-seed"])
    def test_bad_config_names_the_key_exit_1(self, tmp_path, capsys, config,
                                             message):
        from conic_purge import cli
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "d.csv"
        assert cli.main(["generate", "--config", str(path),
                         "--out", str(out)]) == 1
        assert f"error: scenario config: {message}\n" in \
            capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("change, message", [
        ({"eligibility": {"bogus": 1}}, "eligibility: unknown key 'bogus'"),
        ({"refine": {"tau": 3.0}}, "refine: unknown key 'tau'"),
        ({"eligibility": 5}, "eligibility: expected a JSON object"),
        ({"refine": [1]}, "refine: expected a JSON object"),
        ({"eligibility": {"gamma": None}}, "eligibility: "),
        ({"n_inliers": 100.7}, "n_inliers 100.7 is not an integer"),
        ({"n_outliers": 3.9}, "n_outliers 3.9 is not an integer"),
        ({"seed": 3.9}, "seed 3.9 is not an integer"),
        ({"seed": True}, "seed True is not an integer"),
        ({"sigma1": False}, "sigma1 False is not a number"),
        ({"sigma1": None}, "sigma1 None is not a number"),
    ] + [({obj: {key: 2.5}}, f"{obj}: {key} 2.5 is not an integer")
         for obj, key in [("eligibility", "max_iter"),
                          ("eligibility", "bandwidth_rank"),
                          ("eligibility", "repeats"), ("refine", "max_iter"),
                          ("refine", "min_points")]] + [
        ({"model": {"semi_major": None, "eccentricity": 0.5}},
         "model: semi_major None is not a number"),
        ({"model": dict(TYPICAL_CONFIG["model"], eccentricity="e")},
         "model: eccentricity 'e' is not a number"),
        ({"model": dict(TYPICAL_CONFIG["model"], center=5)},
         "model: center 5 is not a list of 2 numbers"),
        ({"model": dict(TYPICAL_CONFIG["model"], rotation=[0.0])},
         "model: rotation [0.0] is not a number"),
        ({"model": {"center": [0, 0], "semi_axes": [3, None]}},
         "model: semi_axes [3, None] is not a list of 2 numbers"),
        ({"model": {"type": "ellipsoid", "center": 5,
                    "semi_axes": [3, 2, 1]}},
         "model: center 5 is not a list of 3 numbers"),
        ({"model": {"type": "ellipsoid", "center": [0, 0, 0],
                    "semi_axes": [3, 2, 1], "orientation": [1, 0]}},
         "model: orientation [1, 0] is not a 3x3 matrix"),
        ({"model": {"center": [0, 0], "semi_axes": [1, 2]}},
         "model: require a >= b > 0, got a=1.0, b=2.0"),
        ({"model": dict(TYPICAL_CONFIG["model"], eccentricity=1.5)},
         "model: eccentricity must lie in [0, 1)"),
    ],
        ids=["eligibility-key", "refine-key", "eligibility-value",
             "refine-value", "eligibility-null", "n_inliers", "n_outliers",
             "seed", "seed-bool", "sigma1-bool", "sigma1",
             "eligibility-max_iter", "bandwidth_rank",
             "repeats", "refine-max_iter", "min_points", "semi_major-null",
             "eccentricity-text", "center-number", "rotation-list",
             "semi_axes-null", "ellipsoid-center", "orientation",
             "semi_axes-order", "eccentricity-range"])
    def test_bad_field_names_it_exit_1(self, tmp_path, capsys, monkeypatch,
                                       change, message):
        # the same refusal in a scenario config and in a sweep's base,
        # before any dataset is made or any trial runs
        from conic_purge import cli
        monkeypatch.setattr(cli, "make_dataset", None)
        monkeypatch.setattr(cli, "run_experiment", None)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(dict(TYPICAL_CONFIG, **change)))
        out = tmp_path / "d.csv"
        assert cli.main(["generate", "--config", str(cfg),
                         "--out", str(out)]) == 1
        assert f"error: scenario config: {message}" in capsys.readouterr().err
        assert not out.exists()
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"base": dict(TYPICAL_CONFIG, **change),
                                    "vary": "sigma1", "grid": [2.0]}))
        assert cli.main(["sweep", "--spec", str(spec),
                         "--out", str(out)]) == 1
        assert f"error: malformed sweep spec: base: {message}" in \
            capsys.readouterr().err
        assert not out.exists()

    def test_out_in_new_directory(self, tmp_path, config_path):
        flat, nested = tmp_path / "d.csv", tmp_path / "new" / "dir" / "d.csv"
        for out in (flat, nested):
            assert run_cli("generate", "--config", str(config_path),
                           "--out", str(out)).returncode == 0
        assert nested.read_bytes() == flat.read_bytes()


class TestDetect:
    def test_noiseless_ellipse_zero_outliers(self, tmp_path):
        data = tmp_path / "clean.csv"
        e = write_noiseless_ellipse(data)
        model_path = tmp_path / "model.json"
        proc = run_cli("detect", "--data", str(data), "--stage", "both",
                       "--seed", "0", "--out-model", str(model_path),
                       "--out-labels", str(tmp_path / "labels.csv"))
        assert proc.returncode == 0
        summary = json.loads(proc.stdout)
        assert summary["n_outliers_detected"] == 0
        model = json.loads(model_path.read_text())
        assert math.isclose(model["semi_axes"][0], e.a, rel_tol=1e-6)
        assert math.isclose(model["semi_axes"][1], e.b, rel_tol=1e-6)
        assert np.allclose(model["center"], [e.center_x, e.center_y],
                           atol=1e-6)

    def test_stage_composability(self, tmp_path, config_path):
        data = tmp_path / "data.csv"
        run_cli("generate", "--config", str(config_path), "--out", str(data))
        prox = tmp_path / "prox.csv"
        chained = tmp_path / "chained.csv"
        both = tmp_path / "both.csv"
        assert run_cli("detect", "--data", str(data), "--stage", "proximity",
                       "--seed", "11", "--out-labels", str(prox),
                       "--out-model", str(tmp_path / "m0.json")
                       ).returncode == 0
        assert run_cli("detect", "--data", str(data), "--stage", "model",
                       "--init-labels", str(prox), "--seed", "11",
                       "--out-labels", str(chained),
                       "--out-model", str(tmp_path / "m1.json")
                       ).returncode == 0
        assert run_cli("detect", "--data", str(data), "--stage", "both",
                       "--seed", "11", "--out-labels", str(both),
                       "--out-model", str(tmp_path / "m2.json")
                       ).returncode == 0
        assert chained.read_bytes() == both.read_bytes()
        assert (tmp_path / "m1.json").read_bytes() == \
            (tmp_path / "m2.json").read_bytes()

    def test_metrics_against_truth(self, tmp_path, config_path):
        data = tmp_path / "data.csv"
        run_cli("generate", "--config", str(config_path), "--out", str(data))
        proc = run_cli("detect", "--data", str(data), "--seed", "11")
        summary = json.loads(proc.stdout)
        assert {"precision", "recall", "f1"} <= set(summary)
        assert summary["precision"] >= 0.9 and summary["recall"] >= 0.9

    def test_ransac_baseline(self, tmp_path, config_path):
        data = tmp_path / "data.csv"
        run_cli("generate", "--config", str(config_path), "--out", str(data))
        proc = run_cli("detect", "--data", str(data), "--baseline", "ransac",
                       "--k", "200", "--seed", "3")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["stage"] == "ransac"

    @pytest.mark.parametrize("k", ["0", "-1"])
    def test_ransac_trial_count_exit_1(self, tmp_path, k):
        data = tmp_path / "data.csv"
        write_noiseless_ellipse(data)
        proc = run_cli("detect", "--data", str(data), "--baseline", "ransac",
                       "--k", k)
        assert proc.returncode == 1
        assert "--k must be >= 1" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flag,value,knob", [
        ("--gamma", "nan", "gamma"),
        ("--gamma", "inf", "gamma"),
        ("--eig-threshold", "nan", "eig_threshold"),
        ("--eig-threshold", "inf", "eig_threshold"),
        ("--tau-scale", "nan", "tau_scale"),
        ("--tau-scale", "inf", "tau_scale"),
    ])
    def test_non_finite_knob_exit_1(self, tmp_path, flag, value, knob):
        data = tmp_path / "data.csv"
        write_noiseless_ellipse(data)
        proc = run_cli("detect", "--data", str(data), flag, value)
        assert proc.returncode == 1
        assert f"{knob} must be positive and finite" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("bad_file", ["data", "init-labels"])
    def test_unknown_label_exit_1(self, tmp_path, bad_file):
        points = ellipse_boundary_points(
            EllipseParams(0.0, 0.0, 4.0, 2.5, 0.0),
            np.linspace(0, 2 * math.pi, 41)[:-1])
        labels = DetectionLabels(np.zeros(40, bool))
        data, init = tmp_path / "data.csv", tmp_path / "init.csv"
        write_dataset_csv(data, points, labels)
        init.write_text("index,label,stage\n" + "".join(
            f"{i},inlier,none\n" for i in range(40)))
        bad = data if bad_file == "data" else init
        lines = bad.read_text().splitlines()
        lines[3] = lines[3].replace("inlier", "Outlier")
        bad.write_text("\n".join(lines) + "\n")
        proc = run_cli("detect", "--data", str(data), "--stage", "model",
                       "--init-labels", str(init))
        assert proc.returncode == 1
        assert f"{bad}: row 3: label 'Outlier'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("stage", [["--stage", "both"],
                                       ["--stage", "model"],
                                       ["--baseline", "ransac"]],
                             ids=["both", "model", "ransac"])
    @pytest.mark.parametrize("cell", ["abc", "nan", "inf", "-inf"])
    def test_bad_coordinate_exit_1(self, tmp_path, capsys, cell, stage):
        from conic_purge import cli
        data = tmp_path / "data.csv"
        write_noiseless_ellipse(data, n=40)
        lines = data.read_text().splitlines()
        lines[5] = f"{lines[5].split(',')[0]},{cell}"
        data.write_text("\n".join(lines) + "\n")
        assert cli.main(["detect", "--data", str(data), *stage]) == 1
        assert f"{data}: row 5: coordinate {cell!r}" in capsys.readouterr().err

    def test_init_labels_placed_by_index(self, tmp_path):
        # point 0 is marked an outlier on the seventh row; refine puts it
        # back, so its tag (and no other) becomes "model"
        data, init = tmp_path / "data.csv", tmp_path / "init.csv"
        write_noiseless_ellipse(data, n=40)
        order = [1, 2, 3, 4, 5, 6, 0] + list(range(7, 40))
        init.write_text("index,label,stage\n" + "".join(
            f"{i},{'outlier' if i == 0 else 'inlier'},none\n" for i in order))
        out = tmp_path / "labels.csv"
        proc = run_cli("detect", "--data", str(data), "--stage", "model",
                       "--init-labels", str(init), "--out-labels", str(out))
        assert proc.returncode == 0, proc.stderr
        rows = out.read_text().splitlines()[1:]
        assert rows[0] == "0,inlier,model"
        assert all(row.endswith(",inlier,none") for row in rows[1:])

    @pytest.mark.parametrize("row, message", [
        (",inlier,none", "row 4: missing index"),
        ("1,inlier,none", "row 4: index 1 is repeated"),
        ("40,inlier,none", "row 4: index 40 is outside 0..39"),
        ("-3,inlier,none", "row 4: index -3 is outside 0..39"),
        ("3.0,inlier,none", "row 4: index '3.0' is not an integer"),
        ("x,inlier,none", "row 4: index 'x' is not an integer"),
        ("3,inlier", "row 4: expected 3 cells (index,label,stage), got 2"),
        ("3,inlier,none,extra", "row 4: expected 3 cells"),
    ], ids=["missing", "duplicate", "past_end", "negative", "float",
            "text", "two_cells", "four_cells"])
    def test_bad_init_label_row_exit_1(self, tmp_path, row, message):
        data, init = tmp_path / "data.csv", tmp_path / "init.csv"
        write_noiseless_ellipse(data, n=40)
        lines = [f"{i},inlier,none" for i in range(40)]
        lines[3] = row
        init.write_text("index,label,stage\n" + "\n".join(lines) + "\n")
        proc = run_cli("detect", "--data", str(data), "--stage", "model",
                       "--init-labels", str(init))
        assert proc.returncode == 1
        assert f"{init}: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bad_init_labels_write_no_dump(self, tmp_path):
        # the labels are read and checked before the spectrum is dumped
        data, init = tmp_path / "data.csv", tmp_path / "init.csv"
        write_noiseless_ellipse(data, n=40)
        lines = [f"{i},inlier,none" for i in range(40)]
        lines[3] = "3,inlier"
        init.write_text("index,label,stage\n" + "\n".join(lines) + "\n")
        spectrum, eligible = tmp_path / "spec.csv", tmp_path / "elig.csv"
        proc = run_cli("detect", "--data", str(data), "--stage", "model",
                       "--init-labels", str(init),
                       "--dump-spectrum", str(spectrum),
                       "--dump-eligible", str(eligible))
        assert proc.returncode == 1
        assert f"{init}: row 4: expected 3 cells" in proc.stderr
        assert not spectrum.exists() and not eligible.exists()

    def test_above_point_cap_exit_1(self, tmp_path):
        from conic_purge.spectral import MAX_POINTS
        data = tmp_path / "big.csv"
        pts = np.random.default_rng(2).normal(size=(MAX_POINTS + 1, 2))
        write_dataset_csv(data, pts)
        proc = run_cli("detect", "--data", str(data))
        assert proc.returncode == 1
        assert f"K={MAX_POINTS + 1} exceeds the configured cap" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_duplicated_points_exit_2(self, tmp_path):
        data = tmp_path / "dup.csv"
        rows = ["x,y"] + ["1.0,2.0"] * 20
        data.write_text("\n".join(rows) + "\n")
        proc = run_cli("detect", "--data", str(data))
        assert proc.returncode == 2
        assert "DegenerateBandwidth" in proc.stderr

    @pytest.mark.parametrize("spare", [True, False])
    @pytest.mark.parametrize("scale, message", [
        (1e200, "squared pairwise distances would overflow"),
        (1e-200, "too many duplicated points, or points so close that "
                 "their squared differences underflow")],
        ids=["overflow", "underflow"])
    def test_extreme_scale_exit_2(self, tmp_path, monkeypatch, capsys, spare,
                                  scale, message):
        # finite coordinates whose squared distances overflow, or are
        # distinct but underflow, exit 2 with no numpy warning
        from conic_purge import _cores, cli
        monkeypatch.setattr(_cores, "spare_core", lambda: spare)
        t = np.linspace(0.0, 2.0 * math.pi, 60, endpoint=False)
        data = tmp_path / "data.csv"
        write_dataset_csv(data, np.c_[3.0 * np.cos(t), np.sin(t)] * scale)
        outputs = [tmp_path / name for name in
                   ("labels.csv", "model.json", "spec.csv", "elig.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(detect_argv(data, 0, *outputs)) == 2
        err = capsys.readouterr().err
        assert "DegenerateBandwidth" in err and message in err
        assert not any(path.exists() for path in outputs)

    @pytest.mark.parametrize("args, error", [
        (["--stage", "model"], "DegenerateConfiguration"),
        (["--baseline", "ransac", "--k", "150"], "NoValidModel")],
        ids=["model", "ransac"])
    def test_points_too_small_to_square_exit_2(self, tmp_path, capsys, args,
                                               error):
        # scaled by 2^-540, every conic fit of the scene is refused (its
        # reduced matrix is not finite), so the model stage and RANSAC end
        # in their numerical errors, not in numpy's LinAlgError
        from conic_purge import cli
        data = tmp_path / "data.csv"
        write_dataset_csv(data, make_dataset(
            FREEZE_SCENARIOS["ransac2d"]).points * 2.0 ** -540)
        argv = ["detect", "--data", str(data), *args,
                "--out-labels", str(tmp_path / "labels.csv"),
                "--out-model", str(tmp_path / "model.json")]
        assert cli.main(argv) == 2
        assert f"error: {error}: " in capsys.readouterr().err

    @pytest.mark.parametrize("spare", [True, False])
    def test_failed_check_writes_no_dump(self, tmp_path, monkeypatch, capsys,
                                         spare):
        # a spectrum that fails its residual check exits 2; the dumps,
        # which would be made from it, are not written
        from conic_purge import _cores, cli, spectral
        monkeypatch.setattr(_cores, "spare_core", lambda: spare)
        monkeypatch.setattr(spectral, "RESIDUAL_RTOL", 0.0)
        cfg = FREEZE_SCENARIOS["typical2d"]
        data = tmp_path / "data.csv"
        write_dataset_csv(data, make_dataset(cfg).points)
        outputs = [tmp_path / name for name in
                   ("labels.csv", "model.json", "spec.csv", "elig.csv")]
        warm_pool()
        before = threading.active_count()
        assert cli.main(detect_argv(data, cfg.seed, *outputs)) == 2
        assert "ConvergenceFailure" in capsys.readouterr().err
        assert not any(path.exists() for path in outputs)
        assert threading.active_count() == before

    def test_too_few_rows_exit_1(self, tmp_path):
        data = tmp_path / "tiny.csv"
        data.write_text("x,y\n" + "\n".join(f"{i}.0,0.0" for i in range(5)))
        assert run_cli("detect", "--data", str(data)).returncode == 1

    def test_usage_error_exit_1(self):
        assert run_cli("detect").returncode == 1
        assert run_cli("detect", "--data", "d.csv",
                       "--stage", "bogus").returncode == 1

    def test_spectrum_and_eligible_dumps(self, tmp_path, config_path):
        data = tmp_path / "data.csv"
        run_cli("generate", "--config", str(config_path), "--out", str(data))
        spec_csv = tmp_path / "spectrum.csv"
        elig_csv = tmp_path / "eligible.csv"
        proc = run_cli("detect", "--data", str(data), "--seed", "11",
                       "--dump-spectrum", str(spec_csv),
                       "--dump-eligible", str(elig_csv))
        assert proc.returncode == 0
        spec_lines = spec_csv.read_text().splitlines()
        assert spec_lines[0] == "index,eigenvalue"
        assert len(spec_lines) == 151
        eigenvalues = [float(ln.split(",")[1]) for ln in spec_lines[1:]]
        assert eigenvalues == sorted(eigenvalues)
        elig_lines = elig_csv.read_text().splitlines()
        assert elig_lines[0] == "eigenvalue,hf_measure,flagged_count"
        assert len(elig_lines) > 1

    def test_dumps_share_the_detection_spectrum(self, tmp_path, config_path,
                                                monkeypatch):
        # for every stage, baseline and dump combination, with the stages
        # overlapped or not, one spectrum and at most one detector run per
        # eligible vector serve the dumps and the stage, and the dumps
        # leave the outputs alone
        from conic_purge import _cores, cli, proximity
        data = tmp_path / "data.csv"
        assert cli.main(["generate", "--config", str(config_path),
                         "--out", str(data)]) == 0
        eligibility = proximity.EligibilityConfig()
        report = proximity.eigenvector_flag_report(
            proximity.spectrum_of_points(read_dataset_csv(data)[0],
                                         eligibility), eligibility, 11)
        solves, detected = [], []
        original_eigs = proximity.generalized_eigs
        original_detect = proximity._detect_vectors
        monkeypatch.setattr(proximity, "generalized_eigs",
                            lambda lp, **hand_off: solves.append(1)
                            or original_eigs(lp, **hand_off))
        monkeypatch.setattr(
            proximity, "_detect_vectors",
            lambda rows, *args: detected.extend(row.tobytes() for row in rows)
            or original_detect(rows, *args))
        modes = [[], ["--stage", "proximity"], ["--stage", "model"],
                 ["--baseline", "ransac", "--k", "50"]]
        for spare in (True, False):
            monkeypatch.setattr(_cores, "spare_core", lambda: spare)
            for mode in modes:
                outs = {}
                for dumps in [(), ("spectrum",), ("eligible",),
                              ("spectrum", "eligible")]:
                    solves.clear()
                    detected.clear()
                    labels = tmp_path / "labels.csv"
                    model = tmp_path / "m.json"
                    assert cli.main(
                        ["detect", "--data", str(data), "--seed", "11",
                         *mode, "--out-labels", str(labels),
                         "--out-model", str(model),
                         *[arg for d in dumps
                           for arg in (f"--dump-{d}", str(tmp_path / d))]]) \
                        == 0
                    outs[dumps] = labels.read_bytes(), model.read_bytes()
                    stage_runs = mode in modes[:2]
                    assert len(solves) == int(stage_runs or bool(dumps))
                    assert len(set(detected)) == len(detected)
                    if "eligible" in dumps:
                        assert len(detected) == len(report) > 0
                    else:
                        assert len(detected) == \
                            stage_runs * sum(r[3] for r in report)
                assert len(set(outs.values())) == 1

    @pytest.mark.parametrize("scenario", ["typical2d", "large"])
    def test_overlapped_outputs_are_the_serial_bytes(self, tmp_path,
                                                     monkeypatch, threads,
                                                     scenario):
        # stage "both" with both dumps, the spectrum solved on a worker
        # beside the rescue start or on the caller before it: the same
        # labels, model and dumps, byte for byte, and after a warm-up no
        # thread started
        from conic_purge import _cores, cli, proximity
        cfg = FREEZE_SCENARIOS.get(scenario, LARGE_SPECTRUM_SCENARIO)
        data = make_dataset(cfg)
        csv = tmp_path / "data.csv"
        write_dataset_csv(csv, data.points, data.truth)
        solved_on = []
        original = proximity.generalized_eigs
        monkeypatch.setattr(
            proximity, "generalized_eigs",
            lambda lp, **hand_off: solved_on.append(
                threading.current_thread()) or original(lp, **hand_off))
        outputs = {}
        for spare in (True, False):
            monkeypatch.setattr(_cores, "spare_core", lambda: spare)
            warm_pool()
            solved_on.clear()
            threads.clear()
            before = threading.active_count()
            paths = [tmp_path / f"{spare}-{name}" for name in
                     ("labels.csv", "model.json", "spectrum.csv",
                      "eligible.csv")]
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "flag budget|no eligible",
                                        RuntimeWarning)
                assert cli.main(detect_argv(csv, cfg.seed, *paths)) == 0
            assert threading.active_count() == before
            assert len(solved_on) == 1 and len(threads) == int(spare)
            assert solved_on[0] is (threads[0] if spare
                                    else threading.main_thread())
            outputs[spare] = [path.read_bytes() for path in paths]
        assert outputs[True] == outputs[False]

    @pytest.mark.parametrize("spare", [True, False])
    def test_dumps_written_before_the_model_stage(self, tmp_path,
                                                  monkeypatch, capsys,
                                                  spare):
        # a run that fails in refine exits 2 and still leaves both dumps,
        # with the bytes of a run that succeeds
        from conic_purge import _cores, cli, pipeline
        from conic_purge.errors import DegenerateConfiguration
        monkeypatch.setattr(_cores, "spare_core", lambda: spare)
        cfg = FREEZE_SCENARIOS["typical2d"]
        data = make_dataset(cfg)
        csv = tmp_path / "data.csv"
        write_dataset_csv(csv, data.points, data.truth)
        names = ("labels.csv", "model.json", "spectrum.csv", "eligible.csv")
        good = [tmp_path / f"good-{name}" for name in names]
        failed = [tmp_path / f"failed-{name}" for name in names]
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "flag budget|no eligible",
                                    RuntimeWarning)
            assert cli.main(detect_argv(csv, cfg.seed, *good)) == 0

            def planted(*args, **kwargs):
                raise DegenerateConfiguration("planted")

            monkeypatch.setattr(pipeline, "refine", planted)
            capsys.readouterr()
            assert cli.main(detect_argv(csv, cfg.seed, *failed)) == 2
        assert "DegenerateConfiguration: planted" in capsys.readouterr().err
        assert not failed[0].exists() and not failed[1].exists()
        assert [p.read_bytes() for p in failed[2:]] == \
            [p.read_bytes() for p in good[2:]]

    @pytest.mark.parametrize("mode, conflict", [
        ([], "--stage both"),
        (["--stage", "proximity"], "--stage proximity"),
        (["--stage", "model", "--baseline", "ransac"], "--baseline ransac"),
        (["--stage", "proximity", "--baseline", "ransac"],
         "--baseline ransac"),
    ], ids=["both", "proximity", "ransac-model", "ransac-proximity"])
    def test_init_labels_need_stage_model(self, tmp_path, capsys, mode,
                                          conflict):
        # only --stage model starts from the labels; elsewhere they would
        # be ignored
        from conic_purge import cli
        data, init = tmp_path / "data.csv", tmp_path / "init.csv"
        write_noiseless_ellipse(data, n=40)
        init.write_text("index,label,stage\n" + "".join(
            f"{i},inlier,none\n" for i in range(40)))
        out = tmp_path / "labels.csv"
        assert cli.main(["detect", "--data", str(data), *mode,
                         "--init-labels", str(init),
                         "--out-labels", str(out)]) == 1
        assert f"cannot be used with {conflict}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode", [
        [], ["--stage", "model"], ["--stage", "proximity"],
        ["--baseline", "ransac"]], ids=["both", "model", "proximity",
                                        "ransac"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, mode):
        # refused before the dataset is read or any dump is written
        from conic_purge import cli
        data = tmp_path / "data.csv"
        write_noiseless_ellipse(data, n=40)
        outputs = [tmp_path / name for name in
                   ("spec.csv", "elig.csv", "labels.csv", "model.json")]
        assert cli.main(["detect", "--data", str(data), *mode, "--seed", "-1",
                         "--dump-spectrum", str(outputs[0]),
                         "--dump-eligible", str(outputs[1]),
                         "--out-labels", str(outputs[2]),
                         "--out-model", str(outputs[3])]) == 1
        assert "error: --seed must be >= 0, got -1\n" in \
            capsys.readouterr().err
        assert not any(path.exists() for path in outputs)

    def test_ellipsoid_dataset(self, tmp_path):
        cfg = {"model": {"type": "ellipsoid", "center": [0.0, 0.0, 0.0],
                         "semi_axes": [5.0, 4.0, 3.0]},
               "n_inliers": 300, "n_outliers": 50,
               "sigma0": 0.1, "sigma1": 5.0, "seed": 2}
        cfg_path = tmp_path / "cfg3d.json"
        cfg_path.write_text(json.dumps(cfg))
        data = tmp_path / "data3d.csv"
        assert run_cli("generate", "--config", str(cfg_path),
                       "--out", str(data)).returncode == 0
        assert data.read_text().splitlines()[0] == "x,y,z,label"
        model_path = tmp_path / "model3d.json"
        proc = run_cli("detect", "--data", str(data), "--seed", "2",
                       "--out-model", str(model_path),
                       "--out-labels", str(tmp_path / "l3d.csv"))
        assert proc.returncode == 0
        model = json.loads(model_path.read_text())
        assert model["type"] == "ellipsoid"
        assert np.allclose(sorted(model["semi_axes"], reverse=True),
                           [5.0, 4.0, 3.0], atol=0.3)

    def test_detect_determinism(self, tmp_path, config_path):
        data = tmp_path / "data.csv"
        run_cli("generate", "--config", str(config_path), "--out", str(data))
        outs = []
        for tag in ("a", "b"):
            labels = tmp_path / f"{tag}.csv"
            model = tmp_path / f"{tag}.json"
            proc = run_cli("detect", "--data", str(data), "--seed", "5",
                           "--out-labels", str(labels),
                           "--out-model", str(model))
            outs.append((labels.read_bytes(), model.read_bytes(), proc.stdout))
        assert outs[0] == outs[1]


def trial_runs(errs, score):
    """Stand-ins for one cell's run records: these errors, and ``score`` as
    every trial's precision and recall."""
    return [types.SimpleNamespace(nonoverlap=err, precision=score,
                                  recall=score) for err in errs]


class TestSweep:
    def sweep_spec(self, trials=2, grid=(10, 20)):
        return {
            "base": dict(TYPICAL_CONFIG, sigma0=0.1, sigma1=3.0),
            "vary": "n_outliers",
            "grid": list(grid),
            "trials": trials,
            "pipelines": ["two_stage", "no_elimination"],
            "master_seed": 5,
        }

    def test_columns_and_rows(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(self.sweep_spec()))
        out = tmp_path / "curves.csv"
        proc = run_cli("sweep", "--spec", str(spec), "--out", str(out))
        assert proc.returncode == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("param_value,pipeline,mean_error,median_error,"
                            "p90_error,mean_precision,mean_recall")
        assert len(lines) == 1 + 2 * 2  # grid x pipelines
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[1] in ("two_stage", "no_elimination")
            float(cells[0]), float(cells[2]), float(cells[6])
        # by grid index, then pipeline name; stderr counts the rows written
        assert [ln.split(",")[:2] for ln in lines[1:]] == [
            ["10.0", "no_elimination"], ["10.0", "two_stage"],
            ["20.0", "no_elimination"], ["20.0", "two_stage"]]
        assert f"wrote 4 sweep rows to {out}" in proc.stderr

    @pytest.mark.parametrize("pipelines, message", [
        (["no_elimination", "no_elimination"],
         "error: pipeline 'no_elimination' is repeated"),
        (["ransac", "two_stage", "ransac"],
         "error: pipeline 'ransac' is repeated"),
        ("ransac", "error: malformed sweep spec: pipelines 'ransac' is not "
                   "a list of pipeline names"),
    ], ids=["twice", "apart", "string"])
    def test_pipelines_not_distinct_names_exit_1(self, tmp_path, capsys,
                                                 monkeypatch, pipelines,
                                                 message):
        # refused before any trial runs, naming the entry
        from conic_purge import cli
        monkeypatch.setattr(cli, "run_experiment", None)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(dict(self.sweep_spec(),
                                        pipelines=pipelines)))
        out = tmp_path / "c.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert f"{message}\n" in capsys.readouterr().err
        assert not out.exists()

    def test_configs_built_once(self, tmp_path, monkeypatch):
        from conic_purge import cli, pipeline
        build, calls = pipeline.sweep_configs, []

        def counted(*args):
            calls.append(args)
            return build(*args)

        for module in (cli, pipeline):
            monkeypatch.setattr(module, "sweep_configs", counted)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(dict(self.sweep_spec(trials=3),
                                        pipelines=["no_elimination"])))
        out = tmp_path / "c.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 0
        assert len(calls) == 1
        assert len(out.read_text().splitlines()) == 1 + 2

    def test_elimination_beats_none(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(self.sweep_spec(trials=3, grid=(30,))))
        out = tmp_path / "curves.csv"
        run_cli("sweep", "--spec", str(spec), "--out", str(out))
        rows = {ln.split(",")[1]: ln.split(",") for ln
                in out.read_text().splitlines()[1:]}
        assert float(rows["two_stage"][3]) < float(rows["no_elimination"][3])

    def test_empty_grid(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(self.sweep_spec(grid=())))
        out = tmp_path / "curves.csv"
        proc = run_cli("sweep", "--spec", str(spec), "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text().splitlines() == [
            "param_value,pipeline,mean_error,median_error,p90_error,"
            "mean_precision,mean_recall"]

    def test_malformed_spec_exit_1(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps({"vary": "n_outliers"}))
        assert run_cli("sweep", "--spec", str(spec),
                       "--out", str(tmp_path / "c.csv")).returncode == 1
        spec.write_text(json.dumps(dict(self.sweep_spec(),
                                        pipelines=["bogus"])))
        assert run_cli("sweep", "--spec", str(spec),
                       "--out", str(tmp_path / "c.csv")).returncode == 1

    @pytest.mark.parametrize("fields, message", [
        ({"vary": "bogus", "grid": []}, "vary 'bogus' is not one of"),
        ({"vary": ["n_outliers"]}, "vary ['n_outliers'] is not one of"),
        ({"grid": [10, "abc"]},
         "grid[1] 'abc' is not an integer for n_outliers"),
        ({"grid": [math.inf]}, "grid[0] inf is not an integer for n_outliers"),
        ({"grid": [10, 3.7]}, "grid[1] 3.7 is not an integer for n_outliers"),
        ({"vary": "sigma1", "grid": [3.0, None]},
         "grid[1] None is not a number for sigma1"),
        ({"vary": "sigma0", "grid": [[0.1]]},
         "grid[0] [0.1] is not a number for sigma0"),
        ({"grid": [5, -1]},
         "grid[1] -1 for n_outliers: outlier count cannot be negative"),
        ({"vary": "sigma1", "grid": [0.5, math.inf]},
         "grid[1] inf for sigma1: sigma0 and sigma1 must be finite"),
        ({"vary": "sigma1", "grid": [0.5, 0.05]},
         "grid[1] 0.05 for sigma1: require sigma1 >= sigma0 >= 0"),
    ], ids=["vary", "vary-list", "text", "inf", "fraction", "null", "list",
            "negative", "infinite-sigma", "sigma-order"])
    def test_bad_vary_or_grid_exit_1(self, tmp_path, capsys, monkeypatch,
                                     fields, message):
        # refused before any cell runs, naming the spec file and the field
        from conic_purge import cli
        monkeypatch.setattr(cli, "run_experiment", None)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(dict(self.sweep_spec(), **fields)))
        out = tmp_path / "c.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert f"error: {spec}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("trials", 1.7, "trials 1.7 is not an integer"),
        ("master_seed", 2.5, "master_seed 2.5 is not an integer"),
        ("ransac_k", 99.5, "ransac_k 99.5 is not an integer"),
        ("trials", "many", "trials 'many' is not an integer"),
        ("ransac_k", math.inf, "ransac_k inf is not an integer"),
        ("trials", True, "trials True is not an integer"),
    ], ids=["trials", "master_seed", "ransac_k", "text", "inf", "bool"])
    def test_fractional_count_exit_1(self, tmp_path, capsys, monkeypatch,
                                     key, value, message):
        # refused before any cell runs, like a fractional grid count
        from conic_purge import cli
        monkeypatch.setattr(cli, "run_experiment", None)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(dict(self.sweep_spec(), **{key: value})))
        out = tmp_path / "c.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert f"error: malformed sweep spec: {message}" in \
            capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("change, message", [
        (lambda spec: spec.pop("vary"),
         "malformed sweep spec: missing key 'vary'"),
        (lambda spec: spec.pop("base"),
         "malformed sweep spec: missing key 'base'"),
        (lambda spec: spec["base"].pop("model"),
         "malformed sweep spec: base: missing key 'model'"),
        (lambda spec: spec["base"]["model"].pop("semi_major"),
         "malformed sweep spec: base: model: missing key 'semi_major'"),
        (lambda spec: spec.update(master_seed=-1),
         "master_seed must be >= 0, got -1"),
        (lambda spec: spec["base"].update(seed=-1),
         "malformed sweep spec: base: seed must be >= 0, got -1"),
    ], ids=["vary", "base", "model", "semi_major", "master_seed", "seed"])
    def test_bad_spec_names_the_key_exit_1(self, tmp_path, capsys,
                                           monkeypatch, change, message):
        # refused before any cell runs, naming the key and its object
        from conic_purge import cli
        monkeypatch.setattr(cli, "run_experiment", None)
        fields = json.loads(json.dumps(self.sweep_spec()))  # a deep copy
        change(fields)
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(fields))
        out = tmp_path / "c.csv"
        assert cli.main(["sweep", "--spec", str(spec), "--out", str(out)]) == 1
        assert f"error: {message}\n" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("ransac_k", [0, -1])
    def test_ransac_trial_count_exit_1(self, tmp_path, ransac_k):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(dict(self.sweep_spec(),
                                        pipelines=["ransac"],
                                        ransac_k=ransac_k)))
        out = tmp_path / "c.csv"
        proc = run_cli("sweep", "--spec", str(spec), "--out", str(out))
        assert proc.returncode == 1
        assert "ransac_k must be >= 1" in proc.stderr
        assert not out.exists()

    @pytest.mark.parametrize("trials, failed, p90", [
        (11, 1, "1.0"),  # zero weight on the failed upper neighbour
        (10, 3, "inf"),
        (20, 3, "inf"),
        (21, 2, "1.0"),
        (1, 1, "inf"),
        (4, 4, "inf"),
    ])
    def test_failed_trials_in_p90(self, trials, failed, p90):
        from conic_purge.cli import _curve_row
        good = trials - failed
        errs = [(i + 1) / good for i in range(good)] + [math.inf] * failed
        runs = trial_runs(np.random.default_rng(trials).permutation(errs),
                          1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            line = _curve_row(30.0, "two_stage", runs)
        assert line.split(",")[4] == p90

    def test_finite_p90_is_numpys(self):
        from conic_purge.cli import _curve_row
        errs = np.random.default_rng(3).exponential(size=(5, 13))
        for i in range(5):
            line = _curve_row(float(i), "ransac",
                              trial_runs(errs[i, :i + 9], 0.5))
            assert line.split(",")[4] == \
                repr(float(np.percentile(errs[i, :i + 9], 90)))

    def test_sweep_determinism(self, tmp_path):
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(self.sweep_spec()))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli("sweep", "--spec", str(spec),
                       "--out", str(a)).returncode == 0
        assert run_cli("sweep", "--spec", str(spec),
                       "--out", str(b)).returncode == 0
        assert a.read_bytes() == b.read_bytes()

    def test_sweep_curves_frozen(self, tmp_path):
        # the curves CSV of all three pipelines, pinned byte for byte; the
        # spectrum depends on the BLAS thread count, so it runs on one
        spec = tmp_path / "sweep.json"
        spec.write_text(json.dumps(dict(
            self.sweep_spec(trials=3, grid=(20, 60)),
            pipelines=["two_stage", "no_elimination", "ransac"],
            master_seed=9, ransac_k=100)))
        out = tmp_path / "curves.csv"
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "conic_purge", "sweep", "--spec",
             str(spec), "--out", str(out)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert hashlib.sha256(out.read_bytes()).hexdigest() == \
            FROZEN_SWEEP_DIGEST
