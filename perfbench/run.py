#!/usr/bin/env python3
"""Build the prpart benchmark from source and run one workload.

    python3 perfbench/run.py --workload sweep|serve_mix --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR when it
is set (relative paths are taken from the repository root), otherwise to
.bench_build. Build output and self-test output go to stderr; the
benchmark's report goes to stdout, ending with one JSON result line.
Exits non-zero, without a result line, when the sources, the build, the
self-tests or any correctness check fail.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "serve_mix")


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    """Configures (once) and builds the benchmark and its self-tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("perfbench: prpart sources not found next to perfbench/",
              file=sys.stderr)
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "perfbench_selftest", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run only the self-tests")
    args = ap.parse_args()
    if not args.selftest and (args.workload is None or args.seed is None
                              or args.seconds is None):
        ap.error("--workload, --seed and --seconds are required")

    out = build_dir()
    if not build(out):
        return 2
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=sys.stderr, stderr=sys.stderr)
    if selftest.returncode or args.selftest:
        return selftest.returncode

    run_dir = os.path.join(out, "runs")
    os.makedirs(run_dir, exist_ok=True)
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", run_dir]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
