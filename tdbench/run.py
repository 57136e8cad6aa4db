#!/usr/bin/env python3
"""Builds tdlib and the tdbench executable, then runs one workload.

Usage (from the repository root):

    python3 tdbench/run.py --workload sweep_cold --seed 1 --seconds 10 --trace 0
    python3 tdbench/run.py --self-test

The build goes to .bench_build/tdbench through tdbench/CMakeLists.txt, which
pulls in the repository's own CMake configuration. Build output goes to
stderr; the last line of stdout is the benchmark's JSON result. The exit
code is the benchmark's, or 2 when the source tree or the build is missing.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("sweep_cold", "renamed_repeat", "cluster_small")


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "tdbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "tdbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "tdbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every correctness check can fail")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required unless --self-test is given")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(root, "src"))):
        print("tdbench: no tdlib source tree at " + root, file=sys.stderr)
        return 2
    try:
        binary = build(root, os.path.join(root, ".bench_build", "tdbench"))
    except (subprocess.CalledProcessError, OSError) as err:
        print("tdbench: build failed: %s" % err, file=sys.stderr)
        return 2

    if args.self_test:
        command = [binary, "--self-test"]
    else:
        trace_dir = os.path.join(root, ".bench_build", "traces")
        os.makedirs(trace_dir, exist_ok=True)
        command = [binary, "--workload=" + args.workload,
                   "--seed=%d" % args.seed, "--seconds=%g" % args.seconds,
                   "--trace=%d" % args.trace,
                   "--trace-file=" + os.path.join(
                       trace_dir, "%s-seed%d.json" % (args.workload, args.seed))]
    sys.stdout.flush()
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main())
