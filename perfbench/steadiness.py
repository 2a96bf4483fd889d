#!/usr/bin/env python3
"""Runs each workload repeatedly, spread over time, and reports how steady
its end-to-end metrics are.

    python3 perfbench/steadiness.py [--runs 10] [--seconds s] [--first-seed n]

Runs go round-robin over the workloads (run i of every workload before run
i+1 of any), each with its own seed, so each workload's runs are spread over
the whole sitting rather than bunched together. For every workload and
metric it prints the median, the quartiles (statistics.quantiles, n=4), and
the spread: the distance between the quartiles as a share of the median.
A spread is marked ok when it is below a third of the metric's bound in
BENCHMARK.json; setup_s is reported but not held to that. The raw results
are appended to .bench_out/steadiness.jsonl.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, cwd=ROOT)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed with code {proc.returncode}")
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log_path = os.path.join(ROOT, ".bench_out", "steadiness.jsonl")
    values = {w: {m: [] for m in bounds} for w in workloads}
    failed_share = {w: set() for w in workloads}
    with open(log_path, "a") as log:
        for i in range(args.runs):
            for w in workloads:
                seed = args.first_seed + i
                started = time.time()
                result = run_once(w, seed, args.seconds)
                if not result["correct"]:
                    raise SystemExit(f"{w} seed {seed}: incorrect output")
                failed_share[w].add(result["failed"] / result["attempted"])
                for m, v in result["metrics"].items():
                    values[w][m].append(v["value"])
                log.write(json.dumps({"workload": w, "seed": seed, "started": started,
                                      "wall_s": time.time() - started, **result}) + "\n")
                log.flush()
                print(f"run {i + 1}/{args.runs} {w} seed {seed}: " +
                      ", ".join(f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
                      flush=True)

    print(f"\n{'workload':16} {'metric':20} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for w in workloads:
        for m, vs in values[w].items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            verdict = "" if m == "setup_s" else ("ok" if spread < bounds[m] / 3 else "WIDE")
            print(f"{w:16} {m:20} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{bounds[m]:6.3f} {verdict}")
        print(f"{w:16} failed share {sorted(failed_share[w])}")


if __name__ == "__main__":
    main()
