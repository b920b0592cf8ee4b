#!/usr/bin/env python3
"""Builds the simulator benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload incast_bfc --seed 42 \\
        --seconds 50 --trace 0

The build (CMake, Release) goes to $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench under the checkout root; later runs rebuild only
what changed. Build output goes to stderr, so the last line of standard
output is the benchmark's JSON result. With --trace 1 the Chrome-trace
spans are written next to the binary as trace_<workload>_<seed>.json.
"""
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")


def arg_value(argv, flag, default):
    for i, a in enumerate(argv[:-1]):
        if a == flag:
            return argv[i + 1]
    return default


def build(build_dir):
    subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                    "-DCMAKE_BUILD_TYPE=Release"],
                   stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    try:
        exe = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 3
    argv = sys.argv[1:]
    trace_out = os.path.join(build_dir, "trace_{}_{}.json".format(
        arg_value(argv, "--workload", "none"), arg_value(argv, "--seed", "42")))
    try:
        # The benchmark bounds its own run time; the timeout only guards
        # against a hang, and subprocess kills and reaps the child on it.
        proc = subprocess.run([exe] + argv + ["--trace-out", trace_out],
                              cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired:
        print("perfbench: timed out", file=sys.stderr)
        return 4
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
