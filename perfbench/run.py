#!/usr/bin/env python3
"""Builds the perfbench program from source and runs one workload.

    python3 perfbench/run.py --workload <paging|consolidation|wan|app_traffic> \
        --seed <n> --seconds <s> --trace <0|1>

The program runs in the repository root. The first run configures and builds the
simulator libraries plus perfbench/*.cc into .bench_build/ (RelWithDebInfo, asserts
on); later runs only rebuild what changed. Build output goes to stderr. The program
prints each metric as a bare name and value; this script checks the names against
BENCHMARK.json (end_to_end untraced, per_layer traced), fills a per-layer metric the
workload cannot reach with 0, attaches the units, and prints the result as the last
line of stdout. Traced runs write their spans to .bench_build/traces/. Exits non-zero
without a result when the simulator sources are missing, the build fails, or the
program's metrics do not match BENCHMARK.json.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no simulator sources under src/ next to perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def with_units(values, traced):
    """Maps name -> value to name -> {value, unit}, in BENCHMARK.json's order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        specs = json.load(f)["per_layer" if traced else "end_to_end"]
    listed = {m["name"] for m in specs}
    unlisted = sorted(set(values) - listed)
    if unlisted:
        sys.exit("perfbench: metrics not in BENCHMARK.json: " + ", ".join(unlisted))
    missing = sorted(listed - set(values))
    if missing and not traced:
        sys.exit("perfbench: end-to-end metrics not measured: " + ", ".join(missing))
    # A per-layer metric the workload does not reach through public counters reads 0.
    return {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in specs}


def main():
    build()
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    proc = subprocess.run([BINARY] + args, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    result["metrics"] = with_units(result["metrics"], traced)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
