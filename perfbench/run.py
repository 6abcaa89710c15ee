#!/usr/bin/env python3
"""Builds the Asdf benchmark program from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_eval --seed 1 --seconds 20 --trace 0

The benchmark is a C++ program (perfbench/src) linked against the repository's
own asdf_core library. It is configured and built with CMake into
.bench_build/perfbench on first use; later runs only re-check the build.
Build output goes to stderr, so the last line of stdout is always the
program's JSON result. The exit code is the program's: nonzero when an output
check fails, and nonzero without a result when the sources are missing.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("paper_eval", "sim_run", "daemon_mix")

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")


def build():
    """Configures (once) and builds the program; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")):
        print("perfbench: no CMakeLists.txt at the repository root; "
              "cannot build the program under test", file=sys.stderr)
        return None
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return None
    exe = os.path.join(BUILD, "perfbench")
    return exe if os.access(exe, os.X_OK) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    if exe is None:
        return 2
    # The program's scratch files (unix socket, trace export) live under the
    # build directory, addressed relative to the repository root.
    return subprocess.call(
        [exe, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--scratch", os.path.relpath(BUILD, ROOT)],
        cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
