#!/usr/bin/env python3
"""Layered benchmark of the conic_purge pipeline.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload typical2d --seed 0 --seconds 20 \
        --trace 0
    python3 perfbench/run.py --smoke            # a few datasets per workload
    python3 perfbench/run.py --write-expected   # reference digests, here

One process and one client: each dataset starts after the previous one
finished (a closed loop).  With ``--trace 0`` the loop runs untraced for
``--seconds`` and reports the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` every dataset runs once untraced and once with spans
recorded around each layer, and the per-layer metrics are reported.  The
last line of stdout is the result JSON; run details go to stderr and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import warnings
from contextlib import nullcontext
from pathlib import Path

# Pinned before anything imports numpy: the eigensolver's run time depends
# heavily on the BLAS thread count.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

PREFIX = 4          # datasets always run first: digests and exact counts
MIN_TIMED = 11      # enough datasets for a tail with ten beyond it
SETUP_PROBES = 5    # fresh processes timed for setup_s; the median is kept
PEAK_ALLOC_DATASETS = 2
SMOKE_DATASETS = 2
REFERENCE_SEEDS = 32


def load_program():
    """Import the benchmark's workloads against the checkout's ``src/``."""
    if not (SRC / "conic_purge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'conic_purge'}; run from "
                 "a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import conic_purge
    if Path(conic_purge.__file__).resolve().parent != SRC / "conic_purge":
        sys.exit(f"perfbench: imported conic_purge from {conic_purge.__file__}"
                 f", not from {SRC}")
    # the proximity stage reports its decisions as RuntimeWarnings; they
    # would only add stderr output to every run
    warnings.simplefilter("ignore", RuntimeWarning)
    import workloads
    return workloads


def environment() -> dict:
    """What the timings depend on besides the code."""
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_pins": {key: os.environ.get(key) for key in THREAD_PINS},
    }
    env.update(_openblas_runtime(np))
    try:
        from conic_purge import eigh_backends
        env["eigensolver"] = getattr(eigh_backends, "DEFAULT_BACKEND", None)
    except ImportError:
        env["eigensolver"] = "numpy.linalg.eigh"
    return env


def _openblas_runtime(np) -> dict:
    """OpenBLAS core and thread count in use, when numpy bundles OpenBLAS."""
    import ctypes
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs")
                  .glob("*openblas*"))
    if not libs:
        return {}
    lib = ctypes.CDLL(str(libs[0]))
    found = {}
    for key, names, restype in (
            ("blas_core", ("scipy_openblas_get_corename64_",
                           "openblas_get_corename"), ctypes.c_char_p),
            ("blas_threads", ("scipy_openblas_get_num_threads64_",
                              "openblas_get_num_threads"), ctypes.c_int)):
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype, fn.argtypes = restype, []
                value = fn()
                found[key] = value.decode() if isinstance(value, bytes) \
                    else value
                break
    return found


def environment_key(env: dict) -> str:
    """Reference digests are valid only where these all match."""
    return " | ".join(str(env.get(key)) for key in (
        "python", "numpy", "blas", "blas_core", "machine"))


def run_dataset(wl, job, recorder=None, dataset=None):
    """Time one public call; returns (ms, Outcome)."""
    from workloads import Outcome
    with recorder.dataset(dataset) if recorder else nullcontext():
        start = time.perf_counter()
        try:
            raw, error = wl.call(job), None
        except Exception as exc:  # a failed dataset is counted, not fatal
            raw, error = None, exc
        ms = 1e3 * (time.perf_counter() - start)
    if error is not None:
        traceback.print_exception(error, file=sys.stderr)
        return ms, Outcome.raised(error)
    return ms, wl.inspect(job, raw)


def closed_loop(wl, seed, seconds, minimum, workdir, recorder=None,
                speed=None):
    """Datasets 0, 1, ... one after another until ``seconds`` have passed
    and at least ``minimum`` ran.  Traced runs pair each dataset with an
    untraced run of it, alternating which goes first.  With a speed probe,
    each untraced time comes with the factor that rescales it to nominal
    machine speed; without one the factor is 1."""
    untraced, traced = [], []
    kernel = speed.seconds() if speed else None
    start = time.perf_counter()
    i = 0
    while i < minimum or time.perf_counter() - start < seconds:
        job = wl.prepare(seed, i, workdir)
        sides = (False,) if recorder is None else \
            ((False, True) if i % 2 == 0 else (True, False))
        for side in sides:
            ms, outcome = run_dataset(wl, job, recorder if side else None, i)
            factor = 1.0
            if speed:
                after = speed.seconds()
                factor, kernel = speed.factor(kernel, after), after
            (traced if side else untraced).append((ms, outcome, factor))
        i += 1
    return untraced, traced


def setup_seconds(name, seed) -> tuple[float, float]:
    """Median over fresh processes of import plus one warm-up dataset,
    rescaled to nominal machine speed, and the median wall time."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--probe",
           "--workload", name, "--seed", str(seed)]
    scaled, wall = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=170, check=True)
        probe = json.loads(proc.stdout.splitlines()[-1])
        scaled.append(probe["setup_s"])
        wall.append(probe["wall_s"])
    return statistics.median(scaled), statistics.median(wall)


def probe(args) -> None:
    start = time.perf_counter()
    workloads = load_program()
    imported = time.perf_counter()
    wl = workloads.WORKLOADS[args.workload]
    job = wl.prepare(args.seed, 0, OUT / f"probe-{wl.name}")
    begin = time.perf_counter()
    wl.call(job)
    wall = (imported - start) + (time.perf_counter() - begin)
    import speed
    calibration = speed.SpeedProbe()
    kernel = statistics.median(calibration.seconds() for _ in range(3))
    print(json.dumps({"setup_s": wall * calibration.factor(kernel, kernel),
                      "wall_s": wall}))


def tail(latencies):
    """The highest percentile with at least ten datasets beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def reference_digests(env_key, workload, seed):
    if not EXPECTED.is_file():
        return None
    table = json.loads(EXPECTED.read_text())["digests"]
    return table.get(env_key, {}).get(workload, {}).get(str(seed))


def check_digests(outcomes, reference) -> list[str]:
    if reference is None:
        return []
    return [f"dataset {i}: digest {o.digest[:12]} != reference {r[:12]}"
            for i, (o, r) in enumerate(zip(outcomes, reference))
            if o.digest != r]


def untraced_run(wl, args, env, spec) -> tuple[dict, dict]:
    import speed
    workdir = OUT / f"run-{wl.name}"
    setup_s, setup_wall_s = setup_seconds(wl.name, args.seed)
    run_dataset(wl, wl.prepare(args.seed, 0, workdir))  # warm-up
    untraced, _ = closed_loop(wl, args.seed, args.seconds,
                              max(PREFIX, MIN_TIMED), workdir,
                              speed=speed.SpeedProbe())
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _, again = run_dataset(wl, wl.prepare(args.seed, 0, workdir))

    wall = [ms for ms, _, _ in untraced]
    latencies = [ms * factor for ms, _, factor in untraced]
    outcomes = [o for _, o, _ in untraced]
    good = [o for o in outcomes if not o.failed]
    tail_ms, tail_pct = tail(latencies)
    f1 = statistics.median(o.f1 for o in good) if good else math.nan
    nonoverlap = statistics.median(o.nonoverlap for o in good) \
        if good else math.nan
    problems = check_digests(outcomes,
                             reference_digests(environment_key(env), wl.name,
                                               args.seed))
    if again.digest != outcomes[0].digest:
        problems.append("dataset 0 gave another digest when run again")
    if not f1 >= wl.min_f1:
        problems.append(f"f1_median {f1} below {wl.min_f1}")
    if not nonoverlap <= wl.max_nonoverlap:
        problems.append(f"nonoverlap_median {nonoverlap} above "
                        f"{wl.max_nonoverlap}")
    values = {
        "setup_s": setup_s,
        "datasets_per_s": len(latencies) / (1e-3 * sum(latencies)),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_tail": tail_ms,
        "f1_median": f1,
        "peak_rss_mib": rss_mib,
    }
    failed = sum(o.failed for o in outcomes)
    details = {
        "datasets": len(latencies),
        "failed_fraction": failed / len(outcomes),
        "latency_ms_tail_percentile": tail_pct,
        "nonoverlap_median": nonoverlap,
        "wall": {"setup_s": setup_wall_s,
                 "datasets_per_s": len(wall) / (1e-3 * sum(wall)),
                 "latency_ms_p50": statistics.median(wall)},
        "speed_factor_median": statistics.median(f for _, _, f in untraced),
        "digests": [o.digest for o in outcomes[:PREFIX]],
        "problems": problems,
    }
    return _result(spec["end_to_end"], values, len(outcomes), failed,
                   problems), details


def traced_run(wl, args, env, spec, minimum=PREFIX, seconds=None):
    import spans
    workdir = OUT / f"trace-{wl.name}"
    run_dataset(wl, wl.prepare(args.seed, 0, workdir))  # warm-up
    recorder = spans.Recorder(wl.scenario.eligibility)
    untraced, traced = closed_loop(
        wl, args.seed, args.seconds if seconds is None else seconds,
        minimum, workdir, recorder)
    peaks: list = []
    with spans.peak_alloc(peaks):
        for i in range(PEAK_ALLOC_DATASETS):
            run_dataset(wl, wl.prepare(args.seed, i, workdir))

    prefix = min(PREFIX, minimum)
    stats = recorder.layer_stats(range(prefix))
    shares = recorder.layer_shares()
    rate = lambda runs: len(runs) / (1e-3 * sum(ms for ms, _, _ in runs))
    fits, detect = stats["modelfit.fit_direct"], stats["proximity.detect_1d"]
    special = {
        "trace_overhead_ratio": rate(traced) / rate(untraced),
        "proximity.proximity_stage.peak_alloc_mib":
            statistics.fmean(peaks) if peaks else 0.0,
        "modelfit.fit_direct.failed_ratio":
            fits["raised"] / fits["calls"] if fits["calls"] else 0.0,
        "proximity.detect_1d.trusted_ratio":
            detect["trusted"] / detect["calls"] if detect["calls"] else 0.0,
        "modelfit.refine.iterations": stats["modelfit.refine"]["iterations"],
        "geometry.nonoverlap_ratio.median": statistics.median(
            o.nonoverlap for _, o, _ in untraced if not o.failed),
    }
    values = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in special:
            values[name] = special[name]
        elif name.startswith("layer."):
            values[name] = shares[name.split(".")[1]]
        else:
            span, field = name.rsplit(".", 1)
            values[name] = stats[span][field] if span in stats else 0.0

    problems = [f"dataset {i}: traced digest differs from untraced"
                for i, ((_, u, _), (_, t, _)) in enumerate(zip(untraced,
                                                               traced))
                if u.digest != t.digest]
    problems += check_digests([o for _, o, _ in untraced],
                              reference_digests(environment_key(env), wl.name,
                                                args.seed))
    outcomes = [o for _, o, _ in untraced + traced]
    failed = sum(o.failed for o in outcomes)
    _write_spans(wl.name, args.seed, recorder, env)
    details = {
        "datasets": len(untraced),
        "failed_fraction": failed / len(outcomes),
        "absent": recorder.absent,
        "digests": [o.digest for _, o, _ in untraced[:prefix]],
        "problems": problems,
    }
    return _result(spec["per_layer"], values, len(outcomes), failed,
                   problems), details


def _write_spans(name, seed, recorder, env) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    t0 = recorder.spans[0][1] if recorder.spans else 0.0
    with open(OUT / f"spans-{name}-seed{seed}.jsonl", "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"fields": ["name", "start_s", "end_s", "parent",
                                        "dataset", "raised"],
                             "absent": recorder.absent, "env": env}) + "\n")
        for span in recorder.spans:
            fh.write(json.dumps([span[0], span[1] - t0, span[2] - t0,
                                 *span[3:]]) + "\n")


def _result(metrics, values, attempted, failed, problems) -> dict:
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }


def smoke(workloads, env, spec) -> int:
    """Each workload twice, traced, on a few datasets: counts and digests
    must repeat exactly, and traced output must equal untraced output."""
    args = argparse.Namespace(seed=0, seconds=0)
    ok = True
    for wl in workloads.WORKLOADS.values():
        runs = [traced_run(wl, args, env, spec, minimum=SMOKE_DATASETS,
                           seconds=0) for _ in range(2)]
        counts = [{k: v["value"] for k, v in result["metrics"].items()
                   if k.endswith((".calls", ".iterations", ".trusted_ratio",
                                  ".failed_ratio"))}
                  for result, _ in runs]
        problems = runs[0][1]["problems"] + runs[1][1]["problems"]
        if counts[0] != counts[1]:
            problems.append(f"counts differ between runs: {counts}")
        if runs[0][1]["digests"] != runs[1][1]["digests"]:
            problems.append("digests differ between runs")
        if runs[0][0]["failed"] or runs[1][0]["failed"]:
            problems.append("a dataset failed")
        ok = ok and not problems
        print(f"smoke {wl.name}: {'ok' if not problems else problems} "
              f"counts={counts[0]} absent={runs[0][1]['absent']}")
    return 0 if ok else 1


def write_expected(workloads, env) -> None:
    """Digests of the first PREFIX datasets of seeds 0..REFERENCE_SEEDS-1."""
    table = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() \
        else {"digests": {}}
    entry = table["digests"].setdefault(environment_key(env), {})
    for wl in workloads.WORKLOADS.values():
        per_seed = entry.setdefault(wl.name, {})
        for seed in range(REFERENCE_SEEDS):
            outcomes = [
                run_dataset(wl, wl.prepare(seed, i, OUT / "expected"))[1]
                for i in range(PREFIX)]
            if any(o.failed for o in outcomes):
                raise RuntimeError(f"{wl.name} seed {seed}: a dataset failed")
            per_seed[str(seed)] = [o.digest for o in outcomes]
            print(f"{wl.name} seed {seed} done", file=sys.stderr)
    EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="typical2d")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-expected", action="store_true")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        probe(args)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = load_program()
    env = environment()
    print(f"perfbench env: {json.dumps(env, sort_keys=True)}", file=sys.stderr)
    if args.smoke:
        return smoke(workloads, env, spec)
    if args.write_expected:
        write_expected(workloads, env)
        return 0
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload]
    run = traced_run if args.trace else untraced_run
    result, details = run(wl, args, env, spec)
    details.update(env=env, workload=wl.name, seed=args.seed,
                   trace=args.trace, result=result)
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1, sort_keys=True) + "\n")
    brief = {k: v for k, v in details.items()
             if k not in ("env", "result", "digests")}
    print(f"perfbench {wl.name}: {json.dumps(brief)}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
