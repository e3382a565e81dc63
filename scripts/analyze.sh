#!/usr/bin/env bash
# analyze: one-shot local runner for every static gate, with a summary
# table. This is the pre-PR command (CONTRIBUTING "Static analysis
# gates"): run it from the repo root and fix anything that is not PASS
# before opening a PR.
#
# Gates, in run order:
#   format   scripts/format.sh --check        (clang-format drift)
#   tidy     scripts/tidy.sh                  (clang-tidy wall)
#   check    tools/raysched_check             (every RS-* rule, one pass)
#
# Gates whose external tool is missing (clang-format / clang-tidy on a
# minimal container) report SKIP and do not fail the run — CI still
# enforces them — but any FAIL exits nonzero.
#
# Usage: scripts/analyze.sh [--fast]
#   --fast  skip the two clang-based gates (format, tidy); the
#           python gate runs in about a second and needs no toolchain.
set -u
cd "$(dirname "$0")/.."

FAST=0
if [ "${1:-}" = "--fast" ]; then
  FAST=1
elif [ -n "${1:-}" ]; then
  echo "usage: scripts/analyze.sh [--fast]" >&2
  exit 2
fi

GATES=()
RESULTS=()
FAILED=0

record() { # name result
  GATES+=("$1")
  RESULTS+=("$2")
  if [ "$2" = "FAIL" ]; then
    FAILED=1
  fi
}

run_gate() { # name command...
  local name="$1"
  shift
  echo "== analyze: ${name}: $*"
  if "$@"; then
    record "$name" "PASS"
  else
    record "$name" "FAIL"
  fi
}

if [ "$FAST" = "0" ]; then
  if command -v "${CLANG_FORMAT:-clang-format}" >/dev/null 2>&1; then
    run_gate format scripts/format.sh --check
  else
    echo "== analyze: format: clang-format not found, skipping"
    record format "SKIP"
  fi
  if command -v "${CLANG_TIDY:-clang-tidy}" >/dev/null 2>&1; then
    run_gate tidy scripts/tidy.sh
  else
    echo "== analyze: tidy: clang-tidy not found, skipping"
    record tidy "SKIP"
  fi
else
  record format "SKIP"
  record tidy "SKIP"
fi

run_gate check python3 tools/raysched_check --root .

echo
echo "analyze: summary"
echo "  gate     result"
echo "  -------  ------"
for i in "${!GATES[@]}"; do
  printf '  %-7s  %s\n' "${GATES[$i]}" "${RESULTS[$i]}"
done

if [ "$FAILED" = "1" ]; then
  echo "analyze: FAILED — fix the gates above before opening a PR"
  exit 1
fi
echo "analyze: all run gates passed"
