#!/usr/bin/env python3
"""Runs one workload of the lwsnap benchmark and prints its result line.

Usage, from the root of a source tree:

    python3 perfbench/run.py --workload queens --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-test

Builds the library and the perfbench binary from source into .bench_build/
(CMake, RelWithDebInfo) and runs the binary, each time in a fresh directory
under .bench_tmp/ that holds the daemon socket and spill segments and is
removed afterwards. An untraced run splits --seconds over REPEATS processes,
each with its own input stream derived from --seed, and reports each
metric's median over them, attempts and failures summed: a process's numbers
move with where the host places it and with its input stream (peak RSS
differs by up to a fifth between streams), and the median of three damps
both. A traced run is one process; its spans go to .bench_out/. Every result
the binary prints is checked against BENCHMARK.json. Exits non-zero without
a result line when the build, a run or that check fails.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170
REPEATS = 3


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(target):
    if not os.path.exists(os.path.join(ROOT, "src", "core", "session.h")):
        fail("no lwsnap sources under src/; nothing to benchmark")
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, cwd=ROOT, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", BUILD_DIR, "--target", target, "-j", jobs]
    if subprocess.run(compile_cmd, cwd=ROOT, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def check_result(line, spec, trace):
    try:
        result = json.loads(line)
    except ValueError:
        fail("last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys differ from the contract")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        fail("attempted must be a whole number of at least 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        fail("failed must be a whole number")
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(expected)))
    for name, metric in metrics.items():
        value = metric.get("value")
        if metric.get("unit") != expected[name]:
            fail("unit of %s differs from BENCHMARK.json" % name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            fail("%s is not a finite number" % name)
    return result


def run_binary(args, stream, seconds, spans):
    """Runs the binary once on input stream `stream` of the seed; returns its
    result line and its log lines."""
    os.makedirs(os.path.join(ROOT, ".bench_tmp"), exist_ok=True)
    # Relative, so the daemon's socket path stays within sun_path's limit
    # however deep the tree sits.
    tmpdir = os.path.relpath(
        tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_tmp")), ROOT)
    command = [os.path.join(BUILD_DIR, "perfbench"), "--workload", args.workload,
               "--seed", str((args.seed * REPEATS + stream) % 2**64),
               "--seconds", repr(seconds),
               "--trace", str(args.trace), "--tmpdir", tmpdir]
    if spans:
        command += ["--spans", spans]
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(os.path.join(ROOT, tmpdir), ignore_errors=True)
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail("perfbench exited with code %d" % run.returncode)
    return lines[-1], lines[:-1]


def merge(results):
    """Median of each metric over the processes; counts summed."""
    metrics = {}
    for name, metric in results[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in results]
        metrics[name] = {"value": statistics.median_low(values), "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def self_test():
    build("perfbench_stats_test")
    sys.exit(subprocess.run(["ctest", "--test-dir", BUILD_DIR, "--output-on-failure"],
                            cwd=ROOT).returncode)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's statistics tests")
    args = parser.parse_args()
    if args.self_test:
        self_test()

    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(spec_path):
        fail("BENCHMARK.json not found")
    with open(spec_path) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail("unknown workload %r" % args.workload)
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be non-negative and --seconds at least 1")

    build("perfbench")
    if args.trace:
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        spans = os.path.join(".bench_out",
                             "spans-%s-seed%d.jsonl" % (args.workload, args.seed))
        line, logs = run_binary(args, 0, float(args.seconds), spans)
        result = check_result(line, spec, args.trace)
    else:
        results = []
        logs = []
        for stream in range(REPEATS):
            line, lines = run_binary(args, stream, args.seconds / REPEATS, None)
            results.append(check_result(line, spec, args.trace))
            logs += lines
        result = merge(results)
    for line in logs:
        print(line)
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
