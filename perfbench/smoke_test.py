#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at minimal length.

    python3 perfbench/smoke_test.py

Checks that perfbench/layers.json maps every per_layer metric, then, for every
workload named in BENCHMARK.json:
  * untraced runs print every end_to_end metric, and traced runs every per_layer
    metric, with the unit BENCHMARK.json gives and nothing else; end-to-end values
    are positive;
  * every step passes its output check (failed == 0, so fail_ratio is 0) and the run
    is correct: at --seed 1 the pinned report digests match, and in the traced run
    the rebuilt paging trial and protocol replays match the library's own runs;
  * another seed changes the inputs (the first steps' report digests differ) but not
    the metric names.
Then checks that the command fails without printing a result in a directory that
holds only BENCHMARK.json and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MINIMAL_SECONDS = "0.1"  # every workload still runs one whole round of inputs


def run(workload, seed, trace, cwd=ROOT):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", MINIMAL_SECONDS, "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def digests(stdout):
    for line in stdout.splitlines():
        if line.startswith("# report digests"):
            return line.split(":", 1)[1].split()
    return None


def check_result(proc, specs, positive, label, errors):
    if proc.returncode != 0:
        errors.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        errors.append(f"{label}: correct={result['correct']} attempted={result['attempted']}"
                      f" failed={result['failed']}: {proc.stderr.strip()[-300:]}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in specs}
    if set(metrics) != set(want):
        errors.append(f"{label}: metrics differ from BENCHMARK.json: "
                      f"missing {sorted(set(want) - set(metrics))}, "
                      f"extra {sorted(set(metrics) - set(want))}")
    for name, m in metrics.items():
        if name in want and m.get("unit") != want[name]:
            errors.append(f"{label}: {name} unit {m.get('unit')!r}, expected {want[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} value {m.get('value')!r} is not a number")
        elif positive and not m["value"] > 0:
            errors.append(f"{label}: {name} is {m['value']}, expected > 0")
    return result


def check_bare_directory(errors):
    bare = tempfile.mkdtemp(prefix="perfbench-bare-")
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            for path in json.load(f)["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
        proc = run("paging", 1, 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip().startswith("{"):
            errors.append("bare directory: the command succeeded or printed a result")
    finally:
        shutil.rmtree(bare)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    errors = []
    with open(os.path.join(ROOT, "perfbench", "layers.json")) as f:
        mapped = [m["name"] for m in json.load(f)["metrics"]]
    if mapped != [m["name"] for m in bench["per_layer"]]:
        errors.append("perfbench/layers.json does not map exactly the per_layer metrics")
    for w in bench["workloads"]:
        name = w["name"]
        first = run(name, 1, 0)
        r1 = check_result(first, bench["end_to_end"], True, f"{name} seed 1", errors)
        second = run(name, 2, 0)
        r2 = check_result(second, bench["end_to_end"], True, f"{name} seed 2", errors)
        if r1 and r2:
            if digests(first.stdout) == digests(second.stdout):
                errors.append(f"{name}: seeds 1 and 2 produced the same inputs")
            if set(r1["metrics"]) != set(r2["metrics"]):
                errors.append(f"{name}: metric names changed with the seed")
        traced = run(name, 1, 1)
        check_result(traced, bench["per_layer"], False, f"{name} traced", errors)
        print(f"{name}: checked", flush=True)
    check_bare_directory(errors)
    for e in errors:
        print("FAIL", e)
    print("smoke test:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
