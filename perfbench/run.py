#!/usr/bin/env python3
"""Build perfbench_driver from this checkout and run one workload.

    python3 perfbench/run.py --workload profile-hot|analyze-cold|table4 \
        --seed N --seconds S --trace 0|1

perfbench_driver is built from the repository's sources (../src) with CMake
into .bench_build/perfbench (RelWithDebInfo); an up-to-date build costs a
second or two. Build output goes to stderr. Its stdout is passed through:
notes, the host-probe line, then the result as the last line. The exit
code is perfbench_driver's, or non-zero when there is nothing to build.
"""
import argparse
import os
import subprocess
import sys

WORKLOADS = ("profile-hot", "analyze-cold", "table4")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in 1..600")

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    repo = os.path.dirname(bench_dir)
    if not os.path.isfile(os.path.join(repo, "src", "CMakeLists.txt")):
        print("perfbench: no repository sources in %s/src; run from a full "
              "checkout" % repo, file=sys.stderr)
        return 2

    build = os.path.join(repo, ".bench_build", "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(build, "CMakeCache.txt")):
        steps.append(["cmake", "-S", bench_dir, "-B", build,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build, "-j", jobs,
                  "--target", "perfbench_driver"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, cwd=repo).returncode != 0:
            print("perfbench: build failed: %s" % " ".join(step),
                  file=sys.stderr)
            return 3

    cmd = [os.path.join(build, "perfbench_driver"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace,
              "--oracles", os.path.join("perfbench", "oracles"),
              "--work-dir", ".bench_build"]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=repo).returncode


if __name__ == "__main__":
    sys.exit(main())
