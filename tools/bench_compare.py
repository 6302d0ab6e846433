#!/usr/bin/env python3
"""Compare a google-benchmark JSON results file against BENCH_BASELINE.json.

Usage:
  bench_compare.py results.json [--baseline BENCH_BASELINE.json]
                   [--threshold 0.10] [--strict] [--summary-md PATH]

For every benchmark entry in the baseline whose gbench name appears in the results
file, the tool extracts the tracked metric (a named counter, or real_time), compares
it against the recorded "current" value, and prints a table of deltas. When several
entries name the same benchmark, only the newest is compared: the one with the latest
"date" (undated entries count as older than dated ones; on a tie the entry later in
the file wins). The others are reported as skipped, superseded by it. A change past
--threshold in the losing direction is a REGRESSION; --strict turns any regression
into a nonzero exit for gating. Without --strict the exit code is always 0 (the CI
bench-smoke job records trends, it does not gate: 1-repetition CI runners are noisy).

Baseline entry fields the tool understands (all optional except unit/current):
  "bench_name": exact gbench benchmark name (e.g. "BM_SimulateConsolidatedUsers/512");
                defaults to the entry's key.
  "counter":    counter to read from the result (e.g. "items_per_second",
                "wall_s_per_sim_s"); defaults from the unit, else real_time is used.
  "better":     "higher" or "lower"; defaults from the unit.
  "current":    the tracked scalar. Entries whose current is not a scalar are skipped.
  "date":       when the entry was recorded (ISO YYYY-MM-DD), to pick the newest.

With --benchmark_repetitions, aggregate rows are emitted per benchmark; the tool
prefers the "_median" aggregate and otherwise uses the plain (non-aggregate) row.
--summary-md appends the comparison as a GitHub-flavored-Markdown table to PATH
(append, so several invocations can share one $GITHUB_STEP_SUMMARY file).
Stdlib only — no pip dependencies.
"""

import argparse
import json
import sys
from collections import Counter

# unit -> (counter name or None for real_time, better direction)
UNIT_DEFAULTS = {
    "items_per_second": ("items_per_second", "higher"),
    "bytes_per_second": ("bytes_per_second", "higher"),
    "wall_s_per_sim_s": ("wall_s_per_sim_s", "lower"),
    "ns_per_simulated_second": (None, "lower"),
}


def load_results(path):
    with open(path) as f:
        data = json.load(f)
    if "benchmarks" not in data:
        raise SystemExit(f"{path}: not a google-benchmark JSON file (no 'benchmarks')")
    by_name = {}
    for row in data["benchmarks"]:
        name = row.get("name", "")
        base = row.get("run_name", name)
        agg = row.get("aggregate_name")
        # Prefer median aggregates; fall back to the raw (non-aggregate) row.
        if agg == "median":
            by_name[base] = row
        elif agg is None and base not in by_name:
            by_name[base] = row
    return data, by_name


def metric_of(row, counter):
    if counter is None:
        if "real_time" not in row:
            raise KeyError(f"no 'real_time' in result row '{row.get('name')}'")
        return float(row["real_time"]), row.get("time_unit", "ns")
    if counter in row:
        return float(row[counter]), counter
    raise KeyError(f"counter '{counter}' not in result row '{row.get('name')}'")


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("results", help="google-benchmark --benchmark_out JSON file")
    ap.add_argument("--baseline", default="BENCH_BASELINE.json")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="relative change flagged as regression (default 0.10)")
    ap.add_argument("--strict", action="store_true",
                    help="exit 1 if any regression exceeds the threshold")
    ap.add_argument("--summary-md", metavar="PATH",
                    help="append the comparison as a Markdown table to PATH "
                         "(e.g. $GITHUB_STEP_SUMMARY)")
    args = ap.parse_args()

    with open(args.baseline) as f:
        baseline = json.load(f)
    _, results = load_results(args.results)

    entries = baseline.get("benchmarks", {})
    # The newest comparable entry per benchmark name, ranked by (dated, date, position).
    newest = {}
    for position, (key, entry) in enumerate(entries.items()):
        if not isinstance(entry, dict) or not isinstance(entry.get("current"), (int, float)):
            continue
        date = entry.get("date")
        rank = (isinstance(date, str), date if isinstance(date, str) else "", position)
        bench_name = entry.get("bench_name", key)
        if bench_name not in newest or rank > newest[bench_name][0]:
            newest[bench_name] = (rank, key)

    rows = []
    regressions = []
    # (key, reason, detail): the reason is counted in the Markdown summary, the detail
    # names the entry on stderr.
    skipped = []
    compared_names = set()
    for key, entry in entries.items():
        # A baseline entry that is not an object (hand-edited shorthand, merge damage)
        # is a skip, not a crash: the other entries still compare.
        if not isinstance(entry, dict):
            skipped.append((key, "not an object",
                            f"baseline entry is {type(entry).__name__}, not an object"))
            continue
        current = entry.get("current")
        if not isinstance(current, (int, float)):
            skipped.append((key, "non-scalar baseline", "non-scalar baseline"))
            continue
        unit = entry.get("unit", "")
        default_counter, default_better = UNIT_DEFAULTS.get(unit, (None, "higher"))
        counter = entry.get("counter", default_counter)
        better = entry.get("better", default_better)
        bench_name = entry.get("bench_name", key)
        compared_names.add(bench_name)
        if newest[bench_name][1] != key:
            skipped.append((key, "superseded", f"superseded by {newest[bench_name][1]}"))
            continue
        row = results.get(bench_name)
        if row is None:
            skipped.append((key, "not in this run's results", f"'{bench_name}' not in results"))
            continue
        try:
            measured, _ = metric_of(row, counter)
        except KeyError as e:
            skipped.append((key, "metric missing from its result row", str(e)))
            continue
        delta = (measured - current) / current if current else float("inf")
        worse = -delta if better == "higher" else delta
        flag = ""
        if worse > args.threshold:
            flag = "REGRESSION"
            regressions.append(key)
        elif -worse > args.threshold:
            flag = "improved"
        rows.append((key, current, measured, delta, better, flag))

    # Benchmarks measured this run that no baseline entry claims: a new benchmark landing
    # before its baseline entry must surface as "no baseline key", never as a KeyError.
    unbaselined = sorted(name for name in results if name not in compared_names)

    if rows:
        name_w = max(len(r[0]) for r in rows)
        print(f"{'benchmark':<{name_w}}  {'baseline':>14}  {'measured':>14}  "
              f"{'delta':>8}  {'better':>6}  status")
        for key, cur, meas, delta, better, flag in rows:
            print(f"{key:<{name_w}}  {cur:>14.6g}  {meas:>14.6g}  "
                  f"{delta:>+7.1%}  {better:>6}  {flag}")
    for key, _, detail in skipped:
        print(f"skipped {key}: {detail}", file=sys.stderr)
    for name in unbaselined:
        print(f"no baseline key for {name}: measured but not compared", file=sys.stderr)
    if not rows:
        print("no comparable benchmarks found", file=sys.stderr)
        return 1

    if args.summary_md:
        status_md = {"REGRESSION": ":red_circle: regression",
                     "improved": ":green_circle: improved", "": "ok"}
        with open(args.summary_md, "a") as f:
            f.write("### Benchmark trend vs BENCH_BASELINE\n\n")
            f.write("| benchmark | baseline | measured | delta | better | status |\n")
            f.write("|---|---:|---:|---:|---|---|\n")
            for key, cur, meas, delta, better, flag in rows:
                f.write(f"| `{key}` | {cur:.6g} | {meas:.6g} | {delta:+.1%} "
                        f"| {better} | {status_md[flag]} |\n")
            reasons = Counter(reason for _, reason, _ in skipped)
            if reasons:
                f.write("\nSkipped: " + "; ".join(
                    f"{count} {reason}" for reason, count in reasons.items()) + ".\n")
            f.write("\n")

    if regressions:
        print(f"\n{len(regressions)} regression(s) past {args.threshold:.0%}: "
              + ", ".join(regressions), file=sys.stderr)
        if args.strict:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
