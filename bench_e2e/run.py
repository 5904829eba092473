#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark.

Run from the repository root:

    python3 bench_e2e/run.py --workload query_zipf --seed 1 --seconds 10 --trace 0
    python3 bench_e2e/run.py --selftest      # unit tests of the benchmark helpers

The first run configures and builds the library and the benchmark under
.bench_build/bench_e2e (Release); later runs rebuild incrementally.  Build
output goes to stderr, so the last line of stdout is the benchmark's result
object.  Exits non-zero on a build failure, a failed or wrong operation, or
when the repository sources are not beside this directory.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("ingest_replay", "query_zipf", "live_mix")


def run_checked(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        print(f"bench_e2e: build step failed: {' '.join(cmd)}", file=sys.stderr)
        sys.exit(result.returncode or 1)


def build(root, targets):
    build_dir = os.path.join(root, ".bench_build", "bench_e2e")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, os.cpu_count() or 1))
    for target in targets:
        run_checked(["cmake", "--build", build_dir, "-j", jobs, "--target", target])
    return build_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the helper unit tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        print("bench_e2e: run from the repository root (src/ not found)",
              file=sys.stderr)
        return 2

    if args.selftest:
        build_dir = build(root, ["bench_e2e_util_test"])
        return subprocess.run([os.path.join(build_dir, "bench_e2e_util_test")]).returncode

    build_dir = build(root, ["bench_e2e"])
    workdir = os.path.join(".bench_build", "bench_e2e_work")
    cmd = [os.path.join(build_dir, "bench_e2e"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--workdir", workdir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
