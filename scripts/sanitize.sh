#!/usr/bin/env bash
# Sanitizer matrix: builds the library + tests under the selected sanitizer
# preset and runs the suites most likely to trip it. Benches and examples
# are skipped: the fault paths (exception unwinding through the thread
# pool, checkpoint I/O, injected NaNs, the drain-after-first-exception
# logic) are what sanitizers catch, and a full sanitized build doubles CI
# time.
#
# Usage: scripts/sanitize.sh [address|thread|undefined|all] [build-dir-prefix]
#   address    ASan + UBSan (default)   -> <prefix>-address
#   thread     ThreadSanitizer          -> <prefix>-thread
#   undefined  UBSan + float-divide-by-zero and float-cast-overflow, the
#              float traps a bad dB<->linear crossing or unit mix-up would
#              spring; sweeps the numeric suites -> <prefix>-undefined
#   all        every preset in sequence
# Default prefix: build-sanitize
set -euo pipefail
cd "$(dirname "$0")/.."

MODE="${1:-address}"
PREFIX="${2:-build-sanitize}"

# halt_on_error keeps failures loud; detect_leaks needs ptrace, which some
# CI containers forbid — all *_OPTIONS can be overridden from the outside.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1:second_deadlock_stack=1}"

# ccache cuts the rebuild to near-noop when the compiler + flags are
# unchanged (CI keys its cache on exactly those); harmless to omit locally.
LAUNCHER_ARGS=()
if command -v ccache >/dev/null 2>&1; then
  LAUNCHER_ARGS=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
fi

run_preset() {
  local preset="$1"
  local build_dir="${PREFIX}-${preset}"
  echo "== sanitize: preset=${preset} dir=${build_dir}"
  cmake -B "$build_dir" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSANITIZE="$preset" \
    -DRAYSCHED_CONTRACTS=ON \
    -DRAYSCHED_BUILD_BENCH=OFF \
    -DRAYSCHED_BUILD_EXAMPLES=OFF \
    "${LAUNCHER_ARGS[@]}"
  cmake --build "$build_dir" -j "$(nproc)"

  # HotPathAllocs runs under ASan and TSan on purpose: its counting
  # operator new forwards to malloc (which the sanitizers intercept), so
  # it proves the zero-alloc slot loop *and* that the counting hook
  # itself is sanitizer-clean.
  # RayleighSuccess pins the up-front id validation that keeps the
  # Rayleigh kernels from reading the gain matrix out of bounds.
  # RecordIo and FormatGolden cover the token codec every state file goes
  # through; FaultScriptSpec feeds hostile specs to its number parse.
  # StatGate drives the Rayleigh and arrival samplers through the
  # statistical gate's tallies.
  local filter='FaultInjection|Engine|ThreadPool|Checkpoint|NetworkIo|cli_sweep|SuccessBatch|ServeSnapshot|ServeFaults|HotPathAllocs|RayleighSuccess|RecordIo|FormatGolden|FaultScriptSpec|StatGate'
  if [ "$preset" = "thread" ]; then
    # TSan cares about the concurrent paths only; add the parallel_for and
    # stress suites (the serve agent hands results across pool threads),
    # drop the serial I/O-heavy ones for speed.
    filter='ThreadPool|ParallelFor|DefaultPool|Engine|Checkpoint|FaultInjection|cli_sweep|ServeAgent|ServeFaults|HotPathAllocs'
  elif [ "$preset" = "undefined" ]; then
    # UBSan+float mode is cheap enough to sweep the numeric core, where a
    # division by a zero gain or an overflowing dB cast would hide.
    # RayleighSuccess covers the threshold kernel, whose product-form Q_i
    # divides by products that can overflow at extreme gains and beta.
    # StatGate computes Theorem 1 and divides by exact variances.
    # Rayleigh. runs the value functions, which divide by the same product;
    # Exact. and WeightedBnB drive the one branch-and-bound search.
    # CoordinateAscent's flip gains divide by the factors 1 + a.
    filter='Units|Theorem1|Lemma1|ExpectedSuccesses|NonFading|Latency|Simulation|Transfer|Nakagami|Shadowing|NetworkIo|Affectance|SuccessBatch|RayleighSuccess|RecordIo|FaultScriptSpec|StatGate|Rayleigh\.|Exact\.|WeightedBnB|CoordinateAscent'
  fi
  ctest --test-dir "$build_dir" --output-on-failure -j "$(nproc)" -R "$filter"
  echo "sanitize: ${preset}: all selected tests passed"
}

case "$MODE" in
  address|thread|undefined)
    run_preset "$MODE"
    ;;
  all)
    run_preset address
    run_preset thread
    run_preset undefined
    ;;
  *)
    echo "usage: scripts/sanitize.sh [address|thread|undefined|all] [build-dir-prefix]" >&2
    exit 2
    ;;
esac
