#!/usr/bin/env python3
"""tools/bench_compare.py reads each entry's metric in the right direction and says why
it skipped the others.

Usage: bench_compare_test.py PATH_TO_BENCH_COMPARE

A bytes_per_second entry without a counter compares the result's bytes_per_second,
higher is better, so a slowdown is a regression. Of several entries naming one
benchmark only the newest is compared (latest date; undated is oldest; a tie goes to
the later entry), and the rest are skipped as superseded by it. The Markdown summary
counts skipped entries per reason: a non-scalar baseline is not "missing from the
results".
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
        # Four entries for one benchmark. Against the measured 305 MB/s the oldest would
        # read as a regression, the 200 MB/s one as improved and the undated one as a
        # regression; the newest, the later of two on the same date, reads ok.
        "BM_Lz": {"bench_name": "BM_Lz/4096", "unit": "bytes_per_second",
                  "current": 3.89e8, "date": "2026-10-17"},
        "BM_LzFirst": {"bench_name": "BM_Lz/4096", "unit": "bytes_per_second",
                       "current": 2.0e8, "date": "2026-10-18"},
        "BM_LzRerun": {"bench_name": "BM_Lz/4096", "unit": "bytes_per_second",
                       "current": 3.0e8, "date": "2026-10-18"},
        "BM_LzUndated": {"bench_name": "BM_Lz/4096", "unit": "bytes_per_second",
                         "current": 9.0e8},
    }}
    # Half the bytes per second. Read as real_time with higher-is-better, the doubled
    # time would count as "improved".
    results = {"benchmarks": [
        {"name": "BM_Codec/256", "run_name": "BM_Codec/256", "real_time": 2.0e9,
         "time_unit": "ns", "bytes_per_second": 0.5e9},
        {"name": "BM_Lz/4096", "run_name": "BM_Lz/4096", "real_time": 1.3e4,
         "time_unit": "ns", "bytes_per_second": 3.05e8},
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
        lz_rows = [l.split() for l in proc.stdout.splitlines() if l.startswith("BM_Lz")]
        # An ok row has no status column after the direction.
        if [r[0] for r in lz_rows] != ["BM_LzRerun"] or lz_rows[0][5:]:
            sys.exit(f"only the newest BM_Lz entry should compare, and read ok: {lz_rows}")
        for key in ("BM_Lz", "BM_LzFirst", "BM_LzUndated"):
            if f"skipped {key}: superseded by BM_LzRerun" not in proc.stderr:
                sys.exit(f"{key} should be skipped as superseded:\n{proc.stderr}")
        with open(summary) as f:
            md = f.read()
        want = ("Skipped: 1 not in this run's results; 2 non-scalar baseline; "
                "3 superseded.")
        if want not in md:
            sys.exit(f"summary lacks {want!r}:\n{md}")
    print("bench_compare: bytes_per_second direction, newest entries and skip reasons ok")


if __name__ == "__main__":
    main()
