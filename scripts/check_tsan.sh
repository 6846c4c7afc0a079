#!/usr/bin/env bash
# Builds the tree with ThreadSanitizer and runs the engine + driver test
# binaries — the ones that exercise the morsel-parallel executor, the
# shared executor pool and the multi-stream driver. Intended for CI and
# pre-merge checks of anything touching src/engine/executor.cc or the
# thread pool.
#
#   scripts/check_tsan.sh [build-dir]
#
# Pass TPCDS_SANITIZE=address via the environment to run the same set
# under AddressSanitizer instead.
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"
SANITIZER="${TPCDS_SANITIZE:-thread}"

# engine_value_test and util_test cover Value's own heap buffers and the
# CRC-32 tables; planner_test runs index joins, whose hash indexes are
# built lazily by whichever statement probes first.
TESTS=(
  engine_parallel_test engine_exec_test engine_smoke_test
  engine_differential_test driver_test governance_test robustness_test
  batch_kernel_test column_storage_test agg_sort_parallel_test recovery_test
  data_facade_test service_test chaos_test executor_pool_test
  engine_value_test util_test planner_test
)

cmake -B "$BUILD_DIR" -S . -DTPCDS_SANITIZE="$SANITIZER" >/dev/null
cmake --build "$BUILD_DIR" -j "$(nproc)" --target "${TESTS[@]}"

# halt_on_error makes a race fail the script, not just print a report.
export TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
export ASAN_OPTIONS="halt_on_error=1 ${ASAN_OPTIONS:-}"

for test in "${TESTS[@]}"; do
  echo "== $SANITIZER: $test"
  "$BUILD_DIR/tests/$test"
done
echo "== $SANITIZER clean"
