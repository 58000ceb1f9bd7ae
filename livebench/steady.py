"""Steadiness: repeat a workload and show each metric's spread against its bound.

    python3 livebench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Runs ``run.py`` once per seed (``first-seed`` … ``first-seed + runs - 1``)
from the checkout root, one run at a time, each as long as BENCHMARK.json's
``run_seconds``, and prints for every
end-to-end metric the median, the quartiles (``statistics.quantiles(n=4)``)
and the spread ``(q3 - q1) / median`` next to the metric's bound in
BENCHMARK.json, for calibrated and for raw seconds.  It also prints each
run's operation counts, and fails if any run fails or is incorrect.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds):
    """Run the benchmark once; returns (calibrated metrics, raw metrics, result)."""
    command = [sys.executable, os.path.join(HERE, "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed (seed {}):\n{}{}".format(
            seed, done.stdout, done.stderr))
    result = json.loads(lines[-1])
    raw = {}
    for line in lines[:-1]:
        if line.startswith("raw "):
            raw = json.loads(line[4:])
    calibrated = {name: entry["value"]
                  for name, entry in result["metrics"].items()}
    return calibrated, raw, result


def spread(values):
    """Median, quartiles and ``(q3 - q1) / median`` of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        bench = json.load(handle)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    cal, raw = {}, {}
    bad = 0
    for seed in range(args.first_seed, args.first_seed + args.runs):
        calibrated, raw_metrics, result = one_run(args.workload, seed, seconds)
        print("seed {}: attempted {} failed {} correct {}  {}".format(
            seed, result["attempted"], result["failed"], result["correct"],
            "  ".join("{}={:.5g}".format(k, v)
                      for k, v in sorted(calibrated.items()))), flush=True)
        bad += result["failed"] > 0 or not result["correct"]
        for name, value in calibrated.items():
            cal.setdefault(name, []).append(value)
            if name in raw_metrics:
                raw.setdefault(name, []).append(raw_metrics[name])
    print("\n{} x {} s on {}: spread = (q3 - q1) / median".format(
        args.runs, seconds, args.workload))
    print("{:<14} {:>6} | {:>11} {:>11} {:>11} {:>7} {:>6} | {:>11} {:>7}"
          .format("metric", "bound", "median", "q1", "q3", "spread",
                  "/bound", "raw median", "raw spr"))
    for name in sorted(cal):
        median, q1, q3, cal_spread = spread(cal[name])
        raw_median, _, _, raw_spread = spread(raw[name]) if name in raw \
            else (float("nan"),) * 4
        bound = bounds.get(name, float("nan"))
        print("{:<14} {:>6.3f} | {:>11.5g} {:>11.5g} {:>11.5g} {:>7.3f} "
              "{:>6.2f} | {:>11.5g} {:>7.3f}".format(
                  name, bound, median, q1, q3, cal_spread,
                  cal_spread / bound, raw_median, raw_spread))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
