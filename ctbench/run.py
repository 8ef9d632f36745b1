#!/usr/bin/env python3
"""ctbench entry point: builds the benchmark from source, runs one workload.

    python3 ctbench/run.py --workload <ct_submit|ct_monitor|paper_pipeline> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first run configures and builds
ctbench/ (and the ctwatch modules it links) into .bench_build/ctbench;
later runs only re-check the build. Build output and the benchmark's
diagnostics go to stderr. The last stdout line is the result object,
printed only after its metric names and units were checked against
BENCHMARK.json. Exit status: 0 when every output was correct, 1 when a
check failed, 3 when the build failed.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "ctbench")
WORK_DIR = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def log(message):
    print("[run.py] " + message, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the ctbench binary; False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "ctbench"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log("build step failed: " + " ".join(step))
            return False
    return True


def declared_metrics(trace):
    """name -> unit of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, declared):
    """Problems with a result object's shape; empty when it is well formed."""
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys are not exactly correct/attempted/failed/metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool) or result[key] < 0:
            problems.append(key + " is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted is below 1")
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    if set(metrics) != set(declared):
        missing = sorted(set(declared) - set(metrics))
        extra = sorted(set(metrics) - set(declared))
        problems.append("metric names differ from BENCHMARK.json: missing %s, extra %s"
                        % (missing, extra))
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or set(metric) != {"value", "unit"}:
            problems.append(name + ": not a {value, unit} object")
            continue
        value = metric["value"]
        if not isinstance(value, (int, float)) or isinstance(value, bool) or not math.isfinite(value):
            problems.append(name + ": value is not a finite number")
        if name in declared and metric["unit"] != declared[name]:
            problems.append("%s: unit %r, BENCHMARK.json says %r" % (name, metric["unit"], declared[name]))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ct_submit", "ct_monitor", "paper_pipeline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not build():
        return 3
    os.makedirs(WORK_DIR, exist_ok=True)
    command = [os.path.join(BUILD_DIR, "ctbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--work-dir", WORK_DIR]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("ctbench exceeded %d s and was killed" % RUN_TIMEOUT_S)
        return 1
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    if not lines:
        log("ctbench printed no result (exit %d)" % proc.returncode)
        return 1
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log("ctbench's last line is not JSON: " + lines[-1][:200])
        return 1
    problems = check_result(result, declared_metrics(bool(args.trace)))
    if problems:
        for problem in problems:
            log("malformed result: " + problem)
        return 1
    print(lines[-1], flush=True)
    if proc.returncode != 0 or not result["correct"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
