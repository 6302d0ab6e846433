#!/usr/bin/env bash
# Re-bless (or verify) the golden corpus: the report JSON in tests/golden/, the SLO
# postmortem bundles in tests/golden/postmortem/, and the stdout of the paper artifacts
# (tests/golden/paper/, each from `tcsctl paper <artifact>`), of `tcsctl replay` over
# tests/golden/replay/demo_session.trace (tests/golden/replay/) and of the examples
# (tests/golden/examples/), the SHA-256 digests of `tcsctl trace paging --runs=1`'s
# outputs and of a rewound `tcsctl postmortem chaos` run's trace and bundle
# (tests/golden/trace/), and the stdout and --report-out files of the tcsctl sweeps, of
# `tcsctl traffic` and of one short run of each single-run command (tests/golden/cli/).
#
# Default mode builds golden_report_test, tcsctl and the examples and reruns the corpus
# tests with TCS_REGEN_GOLDEN=1, which makes each case rewrite its golden file instead of
# comparing against it. Run this after an intentional change to simulation behavior or report
# formatting, then review the diff under tests/golden/ before committing.
#
# --check regenerates into the working tree and then fails (exit 1) if any golden file
# changed — i.e. the committed corpus no longer matches what the build produces. CI's
# golden-no-rebless job runs this; it catches both behavior drift and a re-bless that
# was run but not committed. wall_ms (the one nondeterministic report field) is
# neutralized before comparing, and in-sync files are restored so a passing check
# leaves the working tree clean.
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
fi

BUILD_DIR="${BUILD_DIR:-build}"
cmake -B "$BUILD_DIR" -S . >/dev/null
cmake --build "$BUILD_DIR" --target golden_report_test tcsctl quickstart capacity_planning \
  protocol_shootout scheduler_playground trace_replay -j >/dev/null

mkdir -p tests/golden
# This also runs the GoldenReportGuard test, which has no regen path: it checks the
# guard's own key-set diff on synthetic documents and a fresh render, so it passes or
# fails the same way whether or not the corpus is being re-blessed.
TCS_REGEN_GOLDEN=1 "$BUILD_DIR/tests/golden_report_test"
TCS_REGEN_GOLDEN=1 ctest --test-dir "$BUILD_DIR" -R '^(paper|replay|example|trace|cli)_' \
  -j "$(nproc)" --output-on-failure
goldens=(tests/golden/*.json tests/golden/*/*.json tests/golden/*/*.txt
         tests/golden/trace/*.sha256)

if [[ "$CHECK" == 1 ]]; then
  # Compare each regenerated file against HEAD with wall_ms zeroed on both sides
  # (same normalization golden_report_test applies): wall time is nondeterministic
  # by contract and must not fail the check.
  drifted=0
  for f in "${goldens[@]}"; do
    if ! diff -u \
        <(git show "HEAD:$f" | sed -E 's/"wall_ms":[-+0-9.eE]+/"wall_ms":0/g') \
        <(sed -E 's/"wall_ms":[-+0-9.eE]+/"wall_ms":0/g' "$f") \
        --label "HEAD:$f" --label "$f"; then
      drifted=1
    else
      git checkout --quiet -- "$f"  # in sync: drop the regenerated wall_ms churn
    fi
  done
  if [[ "$drifted" == 1 ]]; then
    echo "golden corpus drifted: regenerating produced the diff above." >&2
    echo "If the change is intentional, commit the regenerated files." >&2
    exit 1
  fi
  echo "golden corpus is in sync (${#goldens[@]} files)."
else
  echo "Regenerated ${#goldens[@]} golden files:"
  git -c core.pager=cat diff --stat -- tests/golden || true
fi
