#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve_loopback, tune_websim, recall_history (see README.md).
The program is compiled from the checkout's sources into the build
directory named by CARGO_TARGET_DIR (default .bench_build), which also
holds the prepared inputs and, for traced runs, a Chrome trace-event file.
The last line of standard output is the JSON result; the exit status is
non-zero when the build, a run or an output check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_loopback", "tune_websim", "recall_history")


def log(msg):
    print("run.py: " + msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            # A half-configured tree would be reused next time; drop it.
            shutil.rmtree(build_dir, ignore_errors=True)
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR",
                                               ".bench_build"))
    binary = build(build_dir)
    if binary is None:
        log("build failed")
        return 1

    # Inputs are regenerated per run from the seed, in their own process.
    data = os.path.join(build_dir, "data", args.workload)
    shutil.rmtree(data, ignore_errors=True)
    seed = str(args.seed)
    prep = subprocess.run([binary, "prepare", "--workload", args.workload,
                           "--seed", seed, "--data", data],
                          stdout=sys.stderr)
    if prep.returncode != 0:
        log("input preparation failed")
        shutil.rmtree(data, ignore_errors=True)
        return 1

    cmd = [binary, "run", "--workload", args.workload, "--seed", seed,
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data", data]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(traces, "%s-seed%s.json" % (args.workload, seed))]
    result = subprocess.run(cmd)
    shutil.rmtree(data, ignore_errors=True)
    if result.returncode != 0:
        log("run failed with status %d" % result.returncode)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
