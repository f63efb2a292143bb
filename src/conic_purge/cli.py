"""Command-line front end: generate data, detect outliers, sweep parameters.

Exit codes: 0 success, 1 usage or configuration problem, 2 numerical or
degenerate-data failure.  All file outputs are byte-identical across
re-runs with the same inputs and seed; timing chatter goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .errors import ConicPurgeError, typed_number
from .modelfit import RefineConfig
from .pipeline import (PIPELINES, RunRecord, detect_points,
                       model_params_from_coeffs, run_experiment,
                       sweep_configs, sweep_trial_seed)
from .proximity import (MIN_POINTS, DetectionLabels, EligibilityConfig,
                        eigenvector_flag_report, spectrum_of_points)
from .synth import (ExperimentConfig, detection_metrics, make_dataset,
                    outlier_flag, read_dataset_csv, write_dataset_csv,
                    write_text)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    numerical failures, so remap usage problems to 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(f"error: {message}", EXIT_CONFIG)


class _CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def write_labels_csv(path, labels: DetectionLabels) -> None:
    lines = ["index,label,stage"]
    for i in range(len(labels)):
        tag = "outlier" if labels.outlier[i] else "inlier"
        lines.append(f"{i},{tag},{labels.stage[i]}")
    write_text(path, "\n".join(lines) + "\n")


def read_labels_csv(path) -> DetectionLabels:
    """Labels of an ``index,label,stage`` file, each placed by its index.

    The n rows may come in any order but must carry the indexes 0..n-1,
    each once; any other row is refused with the file and row named.
    """
    with open(path, "r", encoding="utf-8") as fh:
        rows = [line.strip() for line in fh if line.strip()]
    if not rows or rows[0].lower() != "index,label,stage":
        raise ValueError(f"{path}: expected header index,label,stage")
    n = len(rows) - 1
    flags = np.zeros(n, dtype=bool)
    stages = np.full(n, None, dtype=object)
    for row, line in enumerate(rows[1:], start=1):
        where = f"{path}: row {row}"
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != 3:
            raise ValueError(f"{where}: expected 3 cells (index,label,stage), "
                             f"got {len(cells)}")
        idx, label, stage = cells
        if not idx:
            raise ValueError(f"{where}: missing index")
        try:
            i = int(idx)
        except ValueError:
            raise ValueError(f"{where}: index {idx!r} is not an integer") \
                from None
        if not 0 <= i < n:
            raise ValueError(f"{where}: index {i} is outside 0..{n - 1}")
        if stages[i] is not None:
            raise ValueError(f"{where}: index {i} is repeated")
        flags[i] = outlier_flag(label, where)
        stages[i] = stage
    return DetectionLabels(flags, stages)


def cmd_generate(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    data = make_dataset(cfg)
    write_dataset_csv(args.out, data.points, data.truth)
    print(f"wrote {data.n_points} points "
          f"({cfg.n_outliers} outliers) to {args.out}", file=sys.stderr)
    return EXIT_OK


def _eligibility_from_args(args) -> EligibilityConfig:
    return EligibilityConfig(
        eig_threshold=args.eig_threshold, hf_threshold=args.hf_threshold,
        gamma=args.gamma, bandwidth_rank=args.p, repeats=args.repeats)


def _dump_writer(args):
    """The writer of the requested ``--dump-*`` files, called with the
    spectrum and the eligibility report, or None when no dump is asked."""
    if not (args.dump_spectrum or args.dump_eligible):
        return None

    def dump(spectrum, report):
        if args.dump_spectrum:
            lines = ["index,eigenvalue"]
            lines += [f"{i},{float(lam)!r}"
                      for i, lam in enumerate(spectrum.eigenvalues)]
            write_text(args.dump_spectrum, "\n".join(lines) + "\n")
        if args.dump_eligible:
            lines = ["eigenvalue,hf_measure,flagged_count"]
            lines += [f"{lam!r},{hf!r},{int(flags.sum())}"
                      for _i, lam, hf, _trusted, flags in report]
            write_text(args.dump_eligible, "\n".join(lines) + "\n")
    return dump


def cmd_detect(args) -> int:
    """``detect``: read and check every input, write the ``--dump-*`` files,
    then run the stage and write the labels and the model.

    The dumps come from the spectrum and eligibility report that the
    proximity stage uses, made once by ``detect_points``, so stage "both"
    solves the spectrum beside the rescue start as it does without dumps,
    and a run that fails in the model stage still leaves them.  Stage
    "model" and ``--baseline ransac`` use no spectrum; one is solved for
    the dumps alone.
    """
    if args.k < 1:
        raise _CliError(f"error: --k must be >= 1, got {args.k}", EXIT_CONFIG)
    if args.seed < 0:
        raise _CliError(f"error: --seed must be >= 0, got {args.seed}",
                        EXIT_CONFIG)
    points, truth = read_dataset_csv(args.data)
    if points.shape[0] < MIN_POINTS:
        raise _CliError(
            f"error: dataset has {points.shape[0]} rows; need at least "
            f"{MIN_POINTS}", EXIT_CONFIG)
    eligibility = _eligibility_from_args(args)
    refine_cfg = RefineConfig(tau_scale=args.tau_scale)
    ransac_k = args.k if args.baseline == "ransac" else None
    if args.init_labels and (ransac_k is not None or args.stage != "model"):
        conflict = ("--baseline ransac" if ransac_k is not None
                    else f"--stage {args.stage}")
        raise _CliError(f"error: --init-labels starts --stage model and "
                        f"cannot be used with {conflict}", EXIT_CONFIG)

    # every input is read and checked before any dump is written
    init_labels = read_labels_csv(args.init_labels) if args.init_labels else None
    if init_labels is not None and len(init_labels) != points.shape[0]:
        raise _CliError(
            "error: initial labels do not match the dataset length",
            EXIT_CONFIG)

    dump = _dump_writer(args)
    uses_spectrum = ransac_k is None and args.stage != "model"
    if dump is not None and not uses_spectrum:
        spectrum = spectrum_of_points(points, eligibility)
        dump(spectrum, eigenvector_flag_report(spectrum, eligibility,
                                               args.seed, True)
             if args.dump_eligible else None)

    outcome = detect_points(points, args.stage, eligibility, refine_cfg,
                            seed=args.seed, init_labels=init_labels,
                            ransac_k=ransac_k,
                            on_report=dump if uses_spectrum else None,
                            detect_all=bool(args.dump_eligible))

    data_path = Path(args.data)
    labels_path = args.out_labels or data_path.with_suffix(".labels.csv")
    model_path = args.out_model or data_path.with_suffix(".model.json")
    write_labels_csv(labels_path, outcome.labels)
    params = model_params_from_coeffs(outcome.model)
    write_text(model_path, _json_text(params.to_json_dict()))

    summary = {
        "n_points": int(points.shape[0]),
        "n_outliers_detected": outcome.labels.n_outliers,
        "stage": args.stage if ransac_k is None else "ransac",
        "model_type": params.to_json_dict()["type"],
    }
    if truth is not None:
        summary.update(detection_metrics(outcome.labels.outlier, truth))
    sys.stdout.write(_json_text(summary))
    for key, ms in outcome.timings_ms.items():
        print(f"{key}: {ms:.1f}", file=sys.stderr)
    return EXIT_OK


def _p90_error(errs: np.ndarray) -> float:
    """numpy's type-7 90th percentile of trial errors, a failed trial's inf
    included: numpy reads nan where the upper neighbour is inf; this reads
    inf when that neighbour has weight and the lower neighbour when not."""
    ordered = np.sort(errs)
    pos = (len(ordered) - 1) * 0.9
    lo = int(pos)
    if np.isinf(ordered[min(lo + 1, len(ordered) - 1)]):
        return float("inf") if pos > lo else float(ordered[lo])
    return float(np.percentile(errs, 90))


def _curve_row(value: float, pipeline: str, runs: list[RunRecord]) -> str:
    """The curves CSV row of one pipeline's trials at one grid value."""
    errs = np.array([run.nonoverlap for run in runs])
    precs = np.array([run.precision for run in runs])
    recs = np.array([run.recall for run in runs])
    return ",".join([
        repr(float(value)), pipeline,
        repr(float(np.mean(errs))), repr(float(np.median(errs))),
        repr(_p90_error(errs)),
        repr(float(np.mean(precs))), repr(float(np.mean(recs))),
    ])


def cmd_sweep(args) -> int:
    with open(args.spec, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    try:
        base = spec["base"]
        vary = spec["vary"]
        grid = list(spec["grid"])
        pipelines = spec.get("pipelines", ["two_stage"])
        trials, master_seed, ransac_k = (
            typed_number(int, spec.get(key, default), key) for key, default
            in (("trials", 20), ("master_seed", 0), ("ransac_k", 1000)))
    except KeyError as exc:
        raise _CliError(f"error: malformed sweep spec: missing key "
                        f"{exc.args[0]!r}", EXIT_CONFIG) from None
    except (TypeError, ValueError) as exc:
        raise _CliError(f"error: malformed sweep spec: {exc}",
                        EXIT_CONFIG) from None
    try:
        base = ExperimentConfig.from_json_dict(base)
    except (TypeError, ValueError) as exc:
        raise _CliError(f"error: malformed sweep spec: base: {exc}",
                        EXIT_CONFIG) from None
    if not isinstance(pipelines, list):
        raise _CliError(f"error: malformed sweep spec: pipelines "
                        f"{pipelines!r} is not a list of pipeline names",
                        EXIT_CONFIG)
    for i, pipeline in enumerate(pipelines):
        if pipeline not in PIPELINES:
            raise _CliError(
                f"error: unknown pipeline {pipeline!r}", EXIT_CONFIG)
        if pipeline in pipelines[:i]:
            raise _CliError(
                f"error: pipeline {pipeline!r} is repeated", EXIT_CONFIG)
    if trials < 1:
        raise _CliError("error: trials must be >= 1", EXIT_CONFIG)
    if master_seed < 0:
        raise _CliError(f"error: master_seed must be >= 0, got {master_seed}",
                        EXIT_CONFIG)
    if ransac_k < 1:
        raise _CliError("error: ransac_k must be >= 1", EXIT_CONFIG)
    # every grid value's config is built before the first trial runs
    try:
        configs = sweep_configs(base, vary, grid)
    except ValueError as exc:
        raise _CliError(f"error: {args.spec}: {exc}", EXIT_CONFIG) from None

    rows = []
    for pi, cfg in enumerate(configs):
        for pipeline in sorted(pipelines):
            runs = [run_experiment(replace(cfg, seed=sweep_trial_seed(
                        master_seed, pi, ti)), pipeline, ransac_k)
                    for ti in range(trials)]
            rows.append(_curve_row(getattr(cfg, vary), pipeline, runs))
    header = ("param_value,pipeline,mean_error,median_error,p90_error,"
              "mean_precision,mean_recall")
    write_text(args.out, "\n".join([header] + rows) + "\n")
    print(f"wrote {len(rows)} sweep rows to {args.out}", file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conic-purge",
                     description="Two-stage outlier elimination for robust "
                                 "ellipse and ellipsoid fitting")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a dataset",
                         description="Generate a labeled synthetic dataset "
                                     "from a JSON scenario config.")
    gen.add_argument("--config", required=True, help="scenario JSON path")
    gen.add_argument("--out", required=True, help="output dataset CSV path")
    gen.set_defaults(func=cmd_generate)

    det = sub.add_parser("detect", help="run outlier detection on a CSV",
                         description="Detect outliers and fit the model; "
                                     "writes labels CSV and model JSON, "
                                     "prints metrics JSON to stdout.")
    det.add_argument("--data", required=True, help="dataset CSV (x,y[,z][,label])")
    det.add_argument("--stage", choices=["proximity", "model", "both"],
                     default="both")
    det.add_argument("--gamma", type=float, default=2.5,
                     help="quantile interval width multiplier")
    det.add_argument("--p", type=int, default=4,
                     help="bandwidth rank multiplier")
    det.add_argument("--eig-threshold", type=float, default=0.1)
    det.add_argument("--hf-threshold", type=float, default=0.9)
    det.add_argument("--tau-scale", type=float, default=3.0)
    det.add_argument("--seed", type=int, default=0)
    det.add_argument("--repeats", type=int, default=1,
                     help="detector runs per eigenvector (best-of)")
    det.add_argument("--baseline", choices=["ransac"], default=None,
                     help="replace the two-stage pipeline with a baseline")
    det.add_argument("--k", type=int, default=1000,
                     help="baseline consensus trials")
    det.add_argument("--init-labels", default=None,
                     help="labels CSV to start --stage model from")
    det.add_argument("--out-labels", default=None)
    det.add_argument("--out-model", default=None)
    det.add_argument("--dump-spectrum", default=None, metavar="CSV",
                     help="write index,eigenvalue rows")
    det.add_argument("--dump-eligible", default=None, metavar="CSV",
                     help="write eigenvalue,hf_measure,flagged_count rows")
    det.set_defaults(func=cmd_detect)

    swp = sub.add_parser("sweep", help="run a parameter sweep into a CSV",
                         description="Run pipelines over a parameter grid "
                                     "and write aggregated curves.")
    swp.add_argument("--spec", required=True, help="sweep spec JSON path")
    swp.add_argument("--out", required=True, help="output curves CSV path")
    swp.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    except ConicPurgeError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
