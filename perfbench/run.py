#!/usr/bin/env python3
"""Builds and runs the repo benchmark; see perfbench/README.md.

Run from the root of a checkout:

  python3 perfbench/run.py --workload paper-daemon --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --record-digests   # re-record perfbench/digests.txt
  python3 perfbench/run.py --selftest         # the benchmark's own unit tests

The simulator libraries and the driver are built from source with
CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench);
build output goes to stderr, so the last line of stdout is the driver's
JSON result. Exits non-zero without a result when the build or the run
fails.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["paper-daemon", "service-grid", "rtrc-replay", "coherence-mix"]


def build(target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(build_root, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", target],
                   stdout=sys.stderr, check=True)
    return build_dir


def child_env():
    # REPRO_* variables change what the simulator does (fast-forward,
    # analysis, fault plans); the benchmark runs the defaults.
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--record-digests", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    os.chdir(ROOT)
    try:
        if args.selftest:
            build_dir = build("perfbench_tests")
            return subprocess.run([os.path.join(build_dir, "perfbench_tests")],
                                  env=child_env()).returncode
        build_dir = build("perfbench")
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    binary = os.path.join(build_dir, "perfbench")
    if args.record_digests:
        command = [binary, "--record-digests", os.path.join(HERE, "digests.txt")]
    else:
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        command = [binary, "--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--digests", os.path.join(HERE, "digests.txt"),
                   # Relative, so the daemon's socket path stays short.
                   "--work-dir", os.path.relpath(os.path.join(build_dir, "work"))]
    return subprocess.run(command, env=child_env()).returncode


if __name__ == "__main__":
    sys.exit(main())
