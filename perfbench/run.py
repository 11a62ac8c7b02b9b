#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the library and the perfbench driver from the sources of this
checkout into .bench_build (configured once, then incremental), runs one
measurement, checks that the driver reported exactly the metrics
BENCHMARK.json names, and prints the driver's provenance record followed by
the result line {"correct", "attempted", "failed", "metrics"}. Scratch files,
records and Chrome traces go to .bench_out. Exits non-zero, printing no
result, when the sources are missing or the build or run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
OUT = ROOT / ".bench_out"
BUILD_TIMEOUT_S = 850
# The driver measures for --seconds, then spends a bounded time on set-up,
# checks and (traced run) replays; this keeps one invocation under 180 s.
RUN_SLACK_S = 110


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources next to perfbench/ in {ROOT}")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out")
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return BUILD / "perfbench"


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(line, trace):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"result keys are {sorted(result)}")
    want = expected_metrics(trace)
    got = result["metrics"]
    if set(got) != set(want):
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, metric in got.items():
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"metric {name} is not a finite number: {value!r}")
        if metric["unit"] != want[name]:
            fail(f"metric {name} has unit {metric['unit']}, expected {want[name]}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    OUT.mkdir(exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", str(OUT)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=args.seconds + RUN_SLACK_S, check=False)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    if done.returncode != 0:
        fail(f"benchmark exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result")
    check_result(lines[-1], args.trace)
    print(lines[-2])
    print(lines[-1])


if __name__ == "__main__":
    main()
