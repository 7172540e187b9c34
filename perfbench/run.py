#!/usr/bin/env python3
"""Runs one workload of the goalrec benchmark.

    python3 perfbench/run.py --workload reload_delta --seed 1 --seconds 20 --trace 0

Run it from the root of a checkout. The first run configures and builds
perfbench/ (the benchmark binary plus the library sources under src/ that
it links) into $CARGO_TARGET_DIR, or .bench_build when that is unset;
later runs reuse the build. The binary's stdout is passed through. Its last
line is the result object, which is checked here against the metric names
and units in BENCHMARK.json. Scratch files (the delta log of reload_delta)
live in a per-process directory under the build root and are removed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
TARGET = "goalrec_bench"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    """Configures (once) and builds the benchmark binary; returns its path."""
    jobs = str(os.cpu_count() or 1)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", source_dir, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr,
                          timeout=BUILD_TIMEOUT_S).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    step = ["cmake", "--build", build_dir, "--target", TARGET, "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return os.path.join(build_dir, TARGET)


def check_result(line, spec, trace):
    """Returns a list of problems with the result line (empty when valid)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"last line is not JSON: {error}"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    declared = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in declared}:
        problems.append("metric names differ from BENCHMARK.json: " +
                        str(sorted(set(metrics) ^ {m["name"] for m in declared})))
    for m in declared:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            problems.append(f"{m['name']}: unit {got.get('unit')} != {m['unit']}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{m['name']}: value {value!r}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result.get("failed"), int):
        problems.append("failed must be a whole number")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot read BENCHMARK.json in {os.getcwd()}: {error}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_root = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                 ".bench_build")
    binary = build(source_dir, os.path.join(build_root, "perfbench"))

    workdir = os.path.join(build_root, f"work-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    try:
        # On timeout, run() kills the child and waits for it.
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = proc.stdout.rstrip("\n").split("\n")
    problems = check_result(lines[-1], spec, args.trace == 1)
    if problems:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        for problem in problems:
            print(f"perfbench: {problem}", file=sys.stderr)
        fail(f"{args.workload} exited {proc.returncode} without a valid "
             "result line")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    # A failed correctness gate prints its result and exits 1.
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
