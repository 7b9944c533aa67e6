#!/usr/bin/env python3
"""Build and run the zTX benchmark.

    python3 ztxbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Configures ztxbench/ (which builds the library from ../src) as a
Release + LTO CMake tree under .bench_build/ztxbench at the root of
the checkout, brings it up to date, and runs the ztxbench executable
with the given arguments. Build output goes to stderr, so the benchmark's last
stdout line stays the JSON result. Exits non-zero, printing no
result, if the sources are missing or the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ztxbench")


def build():
    """Configure (once) and build ztxbench; return its path."""
    jobs = str(len(os.sched_getaffinity(0)))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release",
             "-DCMAKE_INTERPROCEDURAL_OPTIMIZATION=ON"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD, "--target", "ztxbench", "-j", jobs],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD, "ztxbench")


def main():
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"ztxbench: build failed: {err}", file=sys.stderr)
        return 2
    sys.stdout.flush()
    return subprocess.run([exe] + sys.argv[1:], cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
