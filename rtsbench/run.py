#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 rtsbench/run.py --workload ll-read --seed 1 --seconds 30 --trace 0

Run from the repository root. Configures an optimised build of rtsbench/
(which compiles ../src) under .bench_build/rtsbench, then runs the rtsbench program.
Build output goes to stderr; stdout carries the program's lines, the last of
which is the JSON result. Exits non-zero without a result when the build or
the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rtsbench")
WORKLOADS = ("ll-read", "bank-hot", "dht-write")
# Beyond --seconds: each episode's set-ups, warm-up and quiesce, and the
# traced run's isolated layer timings.
RUN_SLACK_S = 120


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("rtsbench: no src/ beside rtsbench/; run from a full checkout")
    configure = ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    jobs = str(min(4, os.cpu_count() or 1))
    for cmd in (configure, ["cmake", "--build", BUILD, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("rtsbench: build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    build()
    cmd = [os.path.join(BUILD, "rtsbench"), "--workload=" + args.workload,
           "--seed=%d" % args.seed, "--seconds=%d" % args.seconds,
           "--trace=%d" % args.trace]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        sys.exit("rtsbench: run timed out")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
