#!/usr/bin/env python3
"""Build the simulator's wall-clock benchmark and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve_sweep --seed 1 \
        --seconds 50 --trace 0

The first call configures and builds perfbench/ (the simulator
libraries from src/ plus perfbench.cc) as a Release
build under $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset; later calls only rebuild what changed. Build
output goes to stderr. The binary's report goes to stdout, and its
last line is the JSON result {correct, attempted, failed, metrics}.
If the binary traps mid-run, this script prints a result with
"correct": false itself and exits 1.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve_sweep", "disagg", "pipe_faults", "cc_restart")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configure once, then build incrementally; returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no simulator sources under {ROOT}/src: run from a "
            "checkout of the repository")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(ROOT, target, "perfbench")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", bdir, "-j", jobs])
    for cmd in steps:
        try:
            subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           check=True, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.SubprocessError) as e:
            die(f"build failed: {e}")
    return os.path.join(bdir, "perfbench"), os.path.join(ROOT, target)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "min"), default="full",
                    help="min: two requests per device (smoke test)")
    args = ap.parse_args()
    if args.seed < 0:
        die("--seed must be >= 0")

    exe, out_dir = build()
    cmd = [exe, "--root", ROOT, "--out", out_dir,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--size", args.size, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"perfbench did not finish within {RUN_TIMEOUT_S} s")
    sys.stdout.write(proc.stdout)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 and lines:
        try:
            json.loads(lines[-1])
            return 0
        except ValueError:
            pass
    # The simulator aborts on a broken invariant: count the pass that
    # was running as attempted and the point that trapped as failed.
    points = next((int(l.split(": ")[1].split()[0]) for l in lines
                   if l.startswith("workload ")), 1)
    passes = sum(1 for l in lines if l.startswith("pass "))
    attempted = points * (passes + 1)
    failed = sum(1 for l in lines if l.startswith("FAIL ")) + 1
    print(f"perfbench: binary exited with status {proc.returncode}",
          file=sys.stderr)
    print(json.dumps({"correct": False, "attempted": attempted,
                      "failed": failed, "metrics": {}}))
    return 1


if __name__ == "__main__":
    sys.exit(main())
