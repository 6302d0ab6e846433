#!/usr/bin/env python3
"""tools/bench_compare.py reads each entry's metric in the right direction and says why
it skipped the others.

Usage: bench_compare_test.py PATH_TO_BENCH_COMPARE

A bytes_per_second entry without a counter compares the result's bytes_per_second,
higher is better, so a slowdown is a regression. The Markdown summary counts skipped
entries per reason: a non-scalar baseline is not "missing from the results".
"""

import json
import os
import subprocess
import sys
import tempfile


def main():
    tool = sys.argv[1]
    baseline = {"benchmarks": {
        "BM_Codec": {"bench_name": "BM_Codec/256", "unit": "bytes_per_second",
                     "current": 1.0e9},
        "BM_Gone": {"unit": "items_per_second", "current": 5.0},
        "SuiteWall": {"unit": "s", "current": [3.0, 2.9]},
        "SuiteMemory": {"unit": "MiB", "current": {"median": 8.5}},
    }}
    # Half the bytes per second. Read as real_time with higher-is-better, the doubled
    # time would count as "improved".
    results = {"benchmarks": [
        {"name": "BM_Codec/256", "run_name": "BM_Codec/256", "real_time": 2.0e9,
         "time_unit": "ns", "bytes_per_second": 0.5e9},
    ]}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, doc in (("baseline", baseline), ("results", results)):
            paths[name] = os.path.join(tmp, name + ".json")
            with open(paths[name], "w") as f:
                json.dump(doc, f)
        summary = os.path.join(tmp, "summary.md")
        proc = subprocess.run(
            [sys.executable, tool, paths["results"], "--baseline", paths["baseline"],
             "--summary-md", summary], capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"bench_compare exited {proc.returncode}\n{proc.stderr}")
        row = next((l for l in proc.stdout.splitlines() if l.startswith("BM_Codec")), "")
        if row.split()[2:3] != ["5e+08"] or not row.endswith("REGRESSION"):
            sys.exit(f"bytes_per_second halved should be a regression, got: {row!r}")
        with open(summary) as f:
            md = f.read()
        want = "Skipped: 1 not in this run's results; 2 non-scalar baseline."
        if want not in md:
            sys.exit(f"summary lacks {want!r}:\n{md}")
    print("bench_compare: bytes_per_second direction and skip reasons ok")


if __name__ == "__main__":
    main()
