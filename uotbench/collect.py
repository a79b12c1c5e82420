#!/usr/bin/env python3
"""Runs the benchmark over several seeds and reports each metric's spread.

    python3 uotbench/collect.py --out <dir> [--workloads a,b] [--seeds 1-10]
                                [--trace 0|1] [--seconds s]

Each run's stdout is saved as <dir>/<workload>.<trace>.<seed>.out, so the
directory is a result set for uotbench_compare:

    .bench_build/uotbench/uotbench_compare BENCHMARK.json <dir A> <dir B>

(keep result sets under .bench_build/, which git ignores).

The table lists, per workload and metric, the median over the runs and the
spread: the distance between the first and third quartile
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = (args.workloads.split(",") if args.workloads else
                 [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    os.makedirs(args.out, exist_ok=True)

    failed_runs = 0
    for workload in workloads:
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(ROOT, "uotbench", "run.py"),
                   "--workload", workload, "--seed", str(seed), "--seconds",
                   str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            path = os.path.join(args.out,
                                f"{workload}.{args.trace}.{seed}.out")
            with open(path, "w") as fh:
                fh.write(proc.stdout)
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = None
            if proc.returncode != 0 or result is None or \
                    not result["correct"]:
                failed_runs += 1
                print(f"{workload} seed {seed}: FAILED (exit "
                      f"{proc.returncode})\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "  OVER BOUND" if spread > bound else (
                    "  over bound/3" if spread > bound / 3 else "")
            print(f"{workload:16s} {name:34s} n={len(vals):2d} "
                  f"median={statistics.median(vals):12.5g} "
                  f"spread={100 * spread:6.2f}%"
                  + (f" bound={100 * bound:5.1f}%" if bound else "") + flag)
    return 1 if failed_runs else 0


if __name__ == "__main__":
    sys.exit(main())
