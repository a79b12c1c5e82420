#!/usr/bin/env python3
"""Builds the engine and the benchmark binary, then runs one workload.

    python3 uotbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 uotbench/run.py --smoke

Run from the repository root (or any checkout of it). The build goes to
.bench_build/uotbench (CMake, RelWithDebInfo); traced runs write their
Chrome trace to .bench_build/traces. Stdout carries the binary's metadata
line and, last, the result line; build output and progress go to stderr.

--smoke runs every workload of BENCHMARK.json at a tiny scale, traced and
untraced, and checks that each run is correct, fails nothing, and emits
every metric BENCHMARK.json names with its unit.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "uotbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
# Compiler and run temporaries stay inside the checkout too.
TMP_DIR = os.path.join(ROOT, ".bench_build", "tmp")
BINARY = os.path.join(BUILD_DIR, "uotbench")
RUN_TIMEOUT_S = 170
BUILD_TYPE = "RelWithDebInfo"

# Smoke scale: tiny inputs, one set-up, one second of measurement.
SMOKE_ARGS = ["--sf", "0.005", "--setup-reps", "1"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def env():
    os.makedirs(TMP_DIR, exist_ok=True)
    return dict(os.environ, TMPDIR=TMP_DIR)


def build():
    """Configures (once) and builds the binaries; False on failure."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or \
            not os.path.isdir(os.path.join(ROOT, "src")):
        log(f"engine sources not found under {ROOT}")
        return False
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "uotbench"), "-B",
                      BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j",
                  str(min(4, os.cpu_count() or 1)), "--target", "uotbench",
                  "uotbench_compare"])
    for cmd in steps:
        # Build chatter goes to stderr so stdout ends with the result.
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT, env=env(), check=False)
        if proc.returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def source_id():
    """The git commit when there is one, else a digest of the sources."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=True)
            return "git:" + sha.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "uotbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            digest.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                digest.update(fh.read())
    return "sha1:" + digest.hexdigest()


def run_binary(args, capture=False):
    """Runs the benchmark binary; returns (exit code, stdout text or None)."""
    os.makedirs(TRACE_DIR, exist_ok=True)
    cmd = [BINARY] + args + ["--source", source_id(), "--trace-dir",
                             TRACE_DIR]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env(), timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True, check=False)
    except subprocess.TimeoutExpired:
        log(f"benchmark binary exceeded {RUN_TIMEOUT_S} s and was stopped")
        return 124, None
    return proc.returncode, proc.stdout


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failures = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            rc, out = run_binary(
                ["--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)] + SMOKE_ARGS, capture=True)
            lines = (out or "").strip().splitlines()
            problems = []
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                result, problems = None, ["no result line"]
            if rc != 0:
                problems.append(f"exit code {rc}")
            if result is not None:
                if not result["correct"] or result["failed"] != 0:
                    problems.append(f"correct={result['correct']} "
                                    f"failed={result['failed']}")
                metrics = result["metrics"]
                for m in names:
                    got = metrics.get(m["name"])
                    if got is None:
                        problems.append(f"missing {m['name']}")
                    elif got["unit"] != m["unit"]:
                        problems.append(f"{m['name']} unit {got['unit']} "
                                        f"!= {m['unit']}")
                extra = set(metrics) - {m["name"] for m in names}
                if extra:
                    problems.append(f"unlisted metrics {sorted(extra)}")
                if trace == 1 and metrics.get("error_rate", {}).get("value"):
                    problems.append("error_rate is not 0")
            status = "ok" if not problems else "FAIL: " + "; ".join(problems)
            print(f"smoke {workload} trace={trace}: {status}")
            failures += bool(problems)
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and (args.workload is None or args.seed is None or
                           args.seconds is None):
        parser.error("--workload, --seed and --seconds are required")
    if not build():
        return 3
    if args.smoke:
        return smoke()
    rc, _ = run_binary(["--workload", args.workload, "--seed",
                        str(args.seed), "--seconds", str(args.seconds),
                        "--trace", str(args.trace)])
    return rc


if __name__ == "__main__":
    sys.exit(main())
