#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --runs 10 --first-seed 0 [--out FILE]

Runs ``perfbench/run.py`` once per seed and workload, one after another,
and reports for each metric the median and the distance between the first
and third quartiles (``statistics.quantiles(values, n=4)``) as a share of
the median, next to the metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=0)
    parser.add_argument("--out", default=None,
                        help="write the table as JSON to this file")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    table, ok = {}, True
    for workload in args.workloads.split(","):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return 1
            result = json.loads(proc.stdout.splitlines()[-1])
            ok = ok and result["correct"] and result["failed"] == 0
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"wall={time.perf_counter() - start:.1f}s",
                  file=sys.stderr)
        table[workload] = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / statistics.median(values)
            table[workload][name] = {
                "median": statistics.median(values), "spread": spread,
                "bound": bound, "values": values}
            print(f"{workload:12s} {name:18s} median {median:12.6g} "
                  f"spread {spread:7.4f} bound {bound} "
                  f"{'ok' if spread < bound / 3 else 'WIDE'}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"run_seconds": spec["run_seconds"], "runs": args.runs,
             "first_seed": args.first_seed, "metrics": table},
            indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
