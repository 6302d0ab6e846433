#!/usr/bin/env python3
"""Runs one workload on several seeds and prints each end-to-end metric's spread.

    python3 perfbench/spread.py --workload paging [--seeds 1-10]

Every run is untraced and measures BENCHMARK.json's run_seconds, the length the
bounds are set for. For every metric it prints the median of the runs and the spread
the acceptance rule uses: (third quartile - first quartile) / median, quartiles as
Python's statistics.quantiles(values, n=4) gives them. Runs are sequential, one
process at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    a = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        seconds = json.load(f)["run_seconds"]
    results = []
    for seed in seeds(a.seeds):
        r = run(a.workload, seed, seconds)
        results.append(r)
        ok = r["correct"] and r["failed"] == 0
        print(f"seed {seed}: {'ok' if ok else 'FAILED'} attempted={r['attempted']} " +
              " ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items()), flush=True)
    print(f"{'metric':28} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}")
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print(f"{name:28} {statistics.median(values):14.6g} {q1:14.6g} {q3:14.6g} "
              f"{spread:8.4f}")


if __name__ == "__main__":
    main()
