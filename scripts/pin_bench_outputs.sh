#!/usr/bin/env bash
# Re-pins the bench and example goldens: runs every line of
# bench/expected/runs.txt from a built tree and writes its stdout to
# bench/expected/<golden name>.txt. Review the result as a diff
# (`git diff bench/expected`) and say in CHANGES.md why each moved line
# moved; CONTRIBUTING.md has the protocol.
#
# Usage: scripts/pin_bench_outputs.sh [build-dir]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
EXPECTED=bench/expected

grep -v '^#' "$EXPECTED/runs.txt" | while read -r name target args; do
  [ -n "$name" ] || continue
  exe=""
  for dir in bench examples tools; do
    if [ -x "$BUILD/$dir/$target" ]; then exe="$BUILD/$dir/$target"; fi
  done
  if [ -z "$exe" ]; then
    echo "pin_bench_outputs: $target not built in $BUILD" >&2
    exit 1
  fi
  # shellcheck disable=SC2086  # args is a word list by design
  "$exe" $args > "$EXPECTED/$name.txt"
  echo "pinned $EXPECTED/$name.txt"
done
