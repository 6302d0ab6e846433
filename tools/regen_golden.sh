#!/usr/bin/env bash
# Re-bless (or verify) the golden corpus: the report JSON in tests/golden/, the SLO
# postmortem bundles in tests/golden/postmortem/, and the paper artifacts' stdout in
# tests/golden/paper/.
#
# Default mode builds golden_report_test and tcsctl and reruns the corpus tests with
# TCS_REGEN_GOLDEN=1, which makes each case rewrite its golden file instead of comparing
# against it. Run this after an intentional change to simulation behavior or report
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
cmake --build "$BUILD_DIR" --target golden_report_test tcsctl -j >/dev/null

mkdir -p tests/golden
# This also runs the GoldenReportGuard tests, which have no regen path: the
# checkpointed-run guard compares a fork-from-snapshot replay against the committed
# corpus even while the corpus is being re-blessed, so a checkpoint-layer drift aborts
# both a plain regen and --check. There is deliberately nothing to re-bless for it.
TCS_REGEN_GOLDEN=1 "$BUILD_DIR/tests/golden_report_test"
TCS_REGEN_GOLDEN=1 ctest --test-dir "$BUILD_DIR" -R '^paper_' -j "$(nproc)" --output-on-failure
goldens=(tests/golden/*.json tests/golden/postmortem/*.json tests/golden/paper/*.txt)

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
