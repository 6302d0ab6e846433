#!/usr/bin/env bash
# Lists the tcs:: functions in the src libraries that no shipped program links: tcsctl,
# bench_micro, the five examples and perfbench.
#
# The programs are built in Debug (no inlining) with every function in its own section
# and every inline function emitted, then linked with --gc-sections, so a function is
# in a program's symbol table only if something the program runs refers to it. The
# script prints, one per line and sorted, each demangled tcs:: text symbol of the
# libtcs_*.a libraries that appears in none of the eight programs. Lambdas, operators,
# constructors, destructors and anonymous-namespace helpers are left out: they follow
# from the functions and types that own them.
#
# --check compares the list with tools/unreached.allow (one name per line; `#` comments
# and blank lines ignored) and fails (exit 1) on a name missing from either side: a new
# unreached function, or an allowlist entry whose function is gone or now reached.
#
# The builds go to build-unreached/ (the repository's CMakeLists.txt) and
# build-unreached-perfbench/ (perfbench/CMakeLists.txt, which builds ../src itself);
# both are configured from the command line, so no CMakeLists.txt is changed.
set -euo pipefail

cd "$(dirname "$0")/.."

CHECK=0
if [[ "${1:-}" == "--check" ]]; then
  CHECK=1
elif [[ $# -gt 0 ]]; then
  echo "usage: tools/unreached.sh [--check]" >&2
  exit 2
fi

MAIN_DIR=build-unreached
PERF_DIR=build-unreached-perfbench
SCAN_FLAGS=(
  -DCMAKE_BUILD_TYPE=Debug
  "-DCMAKE_CXX_FLAGS=-ffunction-sections -fkeep-inline-functions"
  "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections"
)
EXAMPLES=(quickstart capacity_planning protocol_shootout scheduler_playground trace_replay)

cmake -B "$MAIN_DIR" -S . "${SCAN_FLAGS[@]}" >/dev/null
cmake --build "$MAIN_DIR" -j "$(nproc)" --target tcsctl bench_micro "${EXAMPLES[@]}" >/dev/null
cmake -B "$PERF_DIR" -S perfbench "${SCAN_FLAGS[@]}" >/dev/null
cmake --build "$PERF_DIR" -j "$(nproc)" --target perfbench >/dev/null

PROGRAMS=("$MAIN_DIR/tools/tcsctl" "$MAIN_DIR/bench/bench_micro" "$PERF_DIR/perfbench")
for example in "${EXAMPLES[@]}"; do
  PROGRAMS+=("$MAIN_DIR/examples/$example")
done

# Demangled tcs:: text symbols of the given objects, one per line, sorted, without the
# kinds of symbol the header names.
function_names() {
  nm -C --defined-only "$@" |
    awk '$2 ~ /^[TtWw]$/ { sub(/^[^ ]+ [^ ]+ /, ""); print }' |
    grep -v -e '{lambda(' -e '::operator' -e '(anonymous namespace)' |
    awk '{
      # The qualified name without its parameters, template arguments and a function
      # template'"'"'s return type. It must be in tcs (not a std:: instantiation), and a
      # constructor or destructor repeats its scope name (`tcs::A::A`, `tcs::A::~A`).
      name = $0
      sub(/\(.*/, "", name)
      while (gsub(/<[^<>]*>/, "", name) > 0) {}
      sub(/.* /, "", name)
      if (name !~ /^tcs::/) next
      n = split(name, part, "::")
      if (part[n] == part[n - 1] || part[n] == "~" part[n - 1]) next
      print
    }' |
    LC_ALL=C sort -u
}

LIBS=("$MAIN_DIR"/src/*/libtcs_*.a)
UNREACHED=$(LC_ALL=C comm -23 <(function_names "${LIBS[@]}") \
  <(function_names "${PROGRAMS[@]}"))

if [[ $CHECK -eq 0 ]]; then
  if [[ -n "$UNREACHED" ]]; then
    printf '%s\n' "$UNREACHED"
  fi
  exit 0
fi

ALLOWED=$(grep -v -e '^#' -e '^[[:space:]]*$' tools/unreached.allow | LC_ALL=C sort -u)
NEW=$(LC_ALL=C comm -23 <(printf '%s\n' "$UNREACHED" | sed '/^$/d') \
  <(printf '%s\n' "$ALLOWED" | sed '/^$/d'))
STALE=$(LC_ALL=C comm -13 <(printf '%s\n' "$UNREACHED" | sed '/^$/d') \
  <(printf '%s\n' "$ALLOWED" | sed '/^$/d'))
STATUS=0
if [[ -n "$NEW" ]]; then
  echo "unreached functions not in tools/unreached.allow (delete them, or allow them with a reason):"
  sed 's/^/  /' <<<"$NEW"
  STATUS=1
fi
if [[ -n "$STALE" ]]; then
  echo "tools/unreached.allow entries that are no longer unreached (remove them):"
  sed 's/^/  /' <<<"$STALE"
  STATUS=1
fi
if [[ $STATUS -eq 0 ]]; then
  echo "unreached: $(printf '%s\n' "$UNREACHED" | sed '/^$/d' | wc -l) functions, all allowed"
fi
exit $STATUS
