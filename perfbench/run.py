#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fleet_balanced --seed 7 --seconds 10 --trace 0

Builds the measuring program (perfbench/CMakeLists.txt: perfbench/src/
linked against the root project's library target, Release) into
.bench_build/, runs one
workload in its own process, checks that the program reported exactly the
metrics BENCHMARK.json names, and prints its result as the last line of
stdout: {"correct", "attempted", "failed", "metrics"}.  Exits nonzero when
the build, the run or any correctness check fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DATA = os.path.join(HERE, "data")
WORKLOADS = ("fleet_balanced", "fig7_reference", "fig7_replay")


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "api", "engine.h")):
        log("library sources (src/) not found next to perfbench/; nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log("build step failed:", e)
            return None
        if done.returncode != 0:
            log("build step failed:", " ".join(cmd))
            return None
    return os.path.join(BUILD, "perfbench")


def expected_metrics(trace):
    """Metric name -> unit that BENCHMARK.json declares for this mode."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    with open(path) as f:
        spec = json.load(f)
    rows = spec["per_layer" if trace else "end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()

    exe = build()
    if exe is None:
        return 2
    os.makedirs(DATA, exist_ok=True)
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--data-dir", DATA]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=175)
    except subprocess.TimeoutExpired:
        log("the workload did not finish within 175 s")
        return 2
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result line from", exe, "(exit code %d)" % done.returncode)
        return 2

    ok = done.returncode == 0 and result.get("correct") is True
    expect = expected_metrics(args.trace == "1")
    got = result.get("metrics", {})
    if set(got) != set(expect):
        log("metric names differ from BENCHMARK.json: missing",
            sorted(set(expect) - set(got)), "unexpected", sorted(set(got) - set(expect)))
        ok = False
    for name, unit in expect.items():
        m = got.get(name)
        if m is None:
            continue
        value = m.get("value")
        if m.get("unit") != unit or not isinstance(value, (int, float)) or not math.isfinite(value):
            log("metric", name, "has a bad value or unit:", m)
            ok = False
    result["correct"] = ok
    print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
