#!/usr/bin/env python3
"""Builds the pibench executable from source and runs one benchmark run.

Usage (from the repository root):

    python3 pibench/run.py --workload read_patch --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/pibench (default .bench_build/pibench)
and is incremental, so only the first run in a checkout compiles the
engine. Build output goes to stderr; the benchmark's own stdout is passed
through unchanged, its last line being the JSON result. A failed build
exits non-zero without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "pibench")


def build(build_dir):
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(configure, stdout=sys.stderr) != 0:
            return False
    compile_cmd = ["cmake", "--build", build_dir, "--target", "pibench",
                   "-j", jobs]
    return subprocess.call(compile_cmd, stdout=sys.stderr) == 0


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    out_dir = os.path.join(ROOT, target)
    build_dir = os.path.join(out_dir, "pibench")
    if not build(build_dir):
        print("pibench: build failed", file=sys.stderr)
        return 2
    binary = os.path.join(build_dir, "pibench")
    work_dir = os.path.join(out_dir, "pibench-work")
    cmd = [binary, "--work-dir", work_dir] + sys.argv[1:]
    return subprocess.call(cmd, cwd=ROOT)


if __name__ == "__main__":
    sys.exit(main())
