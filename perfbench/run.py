#!/usr/bin/env python3
"""Builds centsim's end-to-end benchmark in Release and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build goes to $CARGO_TARGET_DIR
(default .bench_build) under the root, run outputs (traces, checkpoint
scratch) to .bench_out. Build output goes to standard error; standard output
carries the benchmark's report, whose last line is one JSON object with the
keys correct, attempted, failed and metrics. The metric names are checked
against BENCHMARK.json before the line is printed.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and builds; returns the benchmark binary's path.

    Configure runs on every call, not only when the cache is missing: the
    build provenance (BuildInfo's git SHA) is read at configure time, and a
    build tree reused across commits would otherwise name the first one.
    """
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no centsim sources under {ROOT}/src: run from a full checkout")
    build_root = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    build_dir = os.path.join(build_root, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr, env=env).returncode != 0:
            fail("cmake configure failed")
        command = ["cmake", "--build", build_dir, "-j", BUILD_JOBS]
        if subprocess.run(command, stdout=sys.stderr, env=env).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "centsim_perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose one of {', '.join(workloads)}")
    expected = [m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]]

    binary = build()
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--out-dir", os.path.join(ROOT, ".bench_out")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]), flush=True)
    if proc.returncode != 0:
        print(lines[-1], file=sys.stderr)
        fail(f"{args.workload} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark's last line is not JSON")
    if list(result.get("metrics", {})) != expected:
        fail(f"metrics {list(result.get('metrics', {}))} do not match BENCHMARK.json {expected}")
    print(lines[-1], flush=True)


if __name__ == "__main__":
    main()
