#!/usr/bin/env python3
"""Builds and runs the end-to-end benchmark (see README.md).

    python3 perfbench/run.py --workload doc_fetch --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The first run configures and builds the
ssdb library and the benchmark program from source into the build directory
($CARGO_TARGET_DIR, default .bench_build); later runs rebuild only what
changed. Build output goes to standard error. The program's standard output
is passed through; its last line is the JSON result. Sockets and slice files
live in a per-run directory under the build directory and are removed when
the run ends; traced runs leave their span file in <build>/traces/.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.isfile(os.path.join(HERE, "..", "src", "shard", "router.h")):
        sys.exit("perfbench: ssdb sources not found next to the benchmark")
    cmake_dir = os.path.join(build_dir, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", cmake_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", cmake_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(cmake_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Relative paths keep the unix socket paths short.
    build_dir = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("perfbench: build failed: %s" % error)

    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work_dir, "--out-dir", trace_dir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    out = proc.stdout.decode()
    sys.stdout.write(out)
    sys.stdout.flush()
    if proc.returncode != 0:
        sys.exit(proc.returncode)
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.exit("perfbench: no JSON result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")


if __name__ == "__main__":
    main()
