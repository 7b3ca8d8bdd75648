#!/usr/bin/env python3
"""Builds the e2e_bench program from source and runs one workload.

Usage (from the repository root):

    python3 e2ebench/run.py --workload solve-cold --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench)
under the repository root; the first run configures and compiles the solver
libraries, later runs only re-link what changed. Build output goes to
stderr, so the last line of stdout is the benchmark's result line.
"""

import argparse
import fcntl
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "e2ebench")


def build(directory):
    os.makedirs(directory, exist_ok=True)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    with open(os.path.join(directory, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(directory, "CMakeCache.txt")):
            subprocess.run(
                ["cmake", "-S", HERE, "-B", directory,
                 "-DCMAKE_BUILD_TYPE=Release"],
                stdout=sys.stderr, check=True)
        subprocess.run(
            ["cmake", "--build", directory, "--target", "e2e_bench",
             "-j", jobs],
            stdout=sys.stderr, check=True)
    return os.path.join(directory, "e2e_bench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default="",
                        help="also write the result envelope to this file")
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("e2ebench: no solver sources under %s" % ROOT)
    directory = build_dir()
    try:
        binary = build(directory)
    except (OSError, subprocess.CalledProcessError) as error:
        sys.exit("e2ebench: build failed: %s" % error)

    command = [binary,
               "--workload", args.workload,
               "--seed", str(args.seed),
               "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--root", ROOT,
               "--trace-file", os.path.join(
                   directory, "trace-%s.json" % args.workload)]
    if args.record:
        command += ["--record", args.record]
    sys.exit(subprocess.run(command).returncode)


if __name__ == "__main__":
    main()
