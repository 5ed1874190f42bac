#!/usr/bin/env python3
"""Build and run the dinfomap benchmark.

Run from the repository root:

    python3 dinfomap_bench/run.py --workload rmat-webbase --seed 1 \
        --seconds 20 --trace 0

Configures and builds the library, dinfomap_cli and the dinfomap_bench
binary (Release) from this checkout's sources into $CARGO_TARGET_DIR, or
.bench_build when that is unset, then runs dinfomap_bench. Build output goes
to stderr; its last stdout line is the result object:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, with --trace 1 the per-layer ones. Workloads:
lfr-youtube, rmat-webbase, rmat-uk-socket (see bench.cpp for why each).
"""

import argparse
import os
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
# dinfomap_bench stops after --seconds of rounds plus set-up and warm-up;
# this only guards against a hung socket worker.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"dinfomap_bench: {message}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")) or not os.path.isfile(
        os.path.join("examples", "dinfomap_cli.cpp")
    ):
        fail("run from the root of a dinfomap checkout (src/ and examples/ not found)")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "-j", jobs, "--target", "dinfomap_bench", "dinfomap_cli"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def commit_id():
    # Look for .git only inside the checkout, never above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(os.getcwd()))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], env=env, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build(build_dir)
    cmd = [
        os.path.join(build_dir, "dinfomap_bench"),
        "--workload", args.workload,
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--cli", os.path.join(build_dir, "dinfomap_cli"),
        "--work-dir", os.path.join(build_dir, "work", args.workload),
        "--commit", commit_id(),
    ]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    sys.stdout.flush()
    # Own process group, so a timeout also stops the socket workers.
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"dinfomap_bench did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(code)


if __name__ == "__main__":
    main()
