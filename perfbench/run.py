#!/usr/bin/env python3
"""Builds the benchmark from source, then runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload large-models --seed 1 \\
        --seconds 20 --trace 0

Every argument is passed to the `perfbench` executable (see README.md).
The build tree is $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset; the first run configures and compiles the
library and the benchmark there, later runs only check that the build is
up to date. Build output goes to standard error, so the last line of
standard output is always the benchmark's result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(root), "perfbench")
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        generator = []  # an existing tree keeps its generator
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        + generator,
        stdout=sys.stderr,
        check=True,
    )
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(
        ["cmake", "--build", build_dir, "-j", jobs],
        stdout=sys.stderr,
        check=True,
    )
    return os.path.join(build_dir, "perfbench")


def main():
    try:
        exe = build()
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    return subprocess.run([exe] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
