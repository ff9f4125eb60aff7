#!/usr/bin/env python3
"""Smoke self-test of the benchmark.

Runs every workload at minimum size (two requests per device, one
second), plain and traced, through perfbench/run.py, and fails if a
run is not correct or if any metric BENCHMARK.json names is missing,
extra, or printed without its unit. Run from the repository root:

    python3 perfbench/smoke_test.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Workloads perfbench supports but BENCHMARK.json leaves out (their
# wall time swings several-fold from seed to seed; see README.md).
MANUAL_WORKLOADS = ("pipe_faults", "cc_restart")


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", "0", "--seconds", "1",
           "--trace", str(trace), "--size", "min"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, [f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    return json.loads(lines[-1]), []


def check(result, expected):
    problems = []
    if not result["correct"] or result["failed"] != 0:
        problems.append(f"incorrect: {result['failed']} of "
                        f"{result['attempted']} points failed")
    if result["attempted"] < 1:
        problems.append("nothing attempted")
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append(f"missing metric {name}")
        elif not got[name].get("unit"):
            problems.append(f"{name} has no unit")
        elif got[name]["unit"] != unit:
            problems.append(f"{name} unit {got[name]['unit']!r}, "
                            f"BENCHMARK.json says {unit!r}")
    for name in got:
        if name not in expected:
            problems.append(f"metric {name} is not in BENCHMARK.json")
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    workloads = [w["name"] for w in bench["workloads"]]
    workloads += list(MANUAL_WORKLOADS)
    failures = 0
    for workload in workloads:
        for trace in (0, 1):
            result, problems = run(workload, trace)
            if result is not None:
                problems = check(result, expected[trace])
            status = "ok" if not problems else "FAIL"
            print(f"{workload:12s} trace={trace}  {status}")
            for p in problems:
                print(f"    {p}")
            failures += bool(problems)
    print(f"{failures} failing run(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
