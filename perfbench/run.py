#!/usr/bin/env python3
"""Build and run the repo benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload infer_resnet18 --seed 1 --seconds 30 --trace 0

The first call configures and builds the library (../src) and the program
into $CARGO_TARGET_DIR (default .bench_build) with CMake; later calls
rebuild incrementally. Before measuring it runs the benchmark's own
statistics tests. The program prints a full JSON record and, as its last
line, {"correct", "attempted", "failed", "metrics"}. Spans of a traced run
and every record are written under the build directory.
"""

import argparse
import os
import shutil
import subprocess
import sys

WORKLOADS = ("infer_resnet18", "serve_mixed", "train_vgg16")
RUN_TIMEOUT_S = 170  # the measuring program; the build has its own budget
BUILD_TIMEOUT_S = 850


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, timeout):
    """Runs a build or test step with its output on stderr."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        fail(f"failed ({proc.returncode}): {' '.join(cmd)}")


def build(root, build_dir):
    src = os.path.join(root, "perfbench")
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found; run from the repo root")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quiet(["cmake", "-S", src, "-B", build_dir,
                   "-DCMAKE_BUILD_TYPE=Release", *gen], BUILD_TIMEOUT_S)
    jobs = str(os.cpu_count() or 1)
    run_quiet(["cmake", "--build", build_dir, "-j", jobs, "--target",
               "perfbench", "perfbench_stats_test"], BUILD_TIMEOUT_S)
    run_quiet([os.path.join(build_dir, "perfbench_stats_test"),
               "--gtest_brief=1"], 60)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0 or not 1 <= a.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in [1, 60]")

    root = os.getcwd()
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    build(root, build_dir)
    out_dir = os.path.join(build_dir, "runs")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench"), "--workload", a.workload,
           "--seed", str(a.seed), "--seconds", str(a.seconds),
           "--trace", str(a.trace), "--out-dir", out_dir]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{a.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
