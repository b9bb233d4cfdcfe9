#!/usr/bin/env python3
"""Builds and runs the serving request-path benchmark.

    python3 perfbench/run.py --workload ingest-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The benchmark is compiled from the
checkout's own sources (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR (default .bench_build) under the checkout; the first
run builds, later runs only check that the build is current. Build logs
go to stderr. The benchmark's report goes to stdout and its last line
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(and writes Chrome traces next to the build). The exit code is the
benchmark's: non-zero when a correctness check or the stationarity
guard fails, or when the sources are missing.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", cmake_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench_serve")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")

    if not os.path.isfile(os.path.join(ROOT, "src", "rpc", "server.h")):
        print("perfbench: library sources not found at %s/src" % ROOT,
              file=sys.stderr)
        return 2

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("perfbench: build failed: %s" % err, file=sys.stderr)
        return 2

    # Per-run scratch (WAL directories, Chrome traces). Emptied before
    # each run, so the traces of the last run stay for inspection.
    scratch = os.path.join(build_dir, "run")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = [binary, "--scratch", scratch]
    if args.self_test:
        cmd.append("--self-test")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
    sys.stdout.flush()
    try:
        code = subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        code = 3
    for name in os.listdir(scratch):
        path = os.path.join(scratch, name)
        if os.path.isdir(path):
            shutil.rmtree(path, ignore_errors=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
