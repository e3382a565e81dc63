#!/usr/bin/env python3
"""Builds the rsbench binary from source and runs one benchmark workload.

Usage (from the repository root):

    python3 rsbench/run.py --workload serve-maxweight --seed 1 \
        --seconds 10 --trace 0

The raysched library and the binary are compiled with CMake into
$CARGO_TARGET_DIR/rsbench (default .bench_build/rsbench under the repository
root); later runs rebuild incrementally. Build output goes to stderr. The
binary's output is passed through unchanged: human-readable metric lines,
then one JSON result object as the last line of stdout. The exit code is the
binary's, or 1 when the build fails. See rsbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "rsbench")


def build(out):
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "--target", "rsbench", "-j", jobs],
    ]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    return True


def main():
    out = build_dir()
    if not build(out):
        print("rsbench: build failed", file=sys.stderr)
        return 1
    scratch = os.path.join(out, "scratch")
    os.makedirs(scratch, exist_ok=True)
    cmd = [os.path.join(out, "rsbench"), *sys.argv[1:], "--scratch", scratch]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"rsbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
