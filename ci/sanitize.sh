#!/usr/bin/env bash
# Sanitizer CI for the concurrency and robustness surfaces.
#
# Two legs, both building with the repo's SD_SANITIZE CMake option:
#   1. ThreadSanitizer over the parallel/robustness suites — the thread
#      pool, run_suite_parallel, the fault-injection substrate and the
#      shared journal writer are the racy surfaces.
#   2. AddressSanitizer+UBSan over the full tier-1 ctest suite — the fuzz
#      sweeps only prove "no crash" if UB actually traps.
#
# Usage: ci/sanitize.sh [tsan|asan|all]   (default: all)
set -euo pipefail
cd "$(dirname "$0")/.."

leg="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 4)"

run_tsan() {
  echo "=== ThreadSanitizer: test_parallel + test_faults + test_shard + test_workstealing + test_substrate + test_model_cache + test_detectors + test_serve + test_incremental ==="
  cmake -B build-tsan -S . -DSD_SANITIZE=thread \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-tsan -j "$jobs" \
        --target test_parallel test_faults test_shard test_workstealing \
        test_substrate test_model_cache test_detectors test_serve \
        test_incremental
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_parallel
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_faults
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_shard
  # Concurrent agents racing one work directory: rename-atomic claiming,
  # the heartbeat thread, and the shared journal writer under one roof.
  # Pooled lease resolution and its index-claiming helper race too:
  # WorkStealSuite.FailingResolveRethrowsFirstItemInLeaseOrder (jobs 4),
  # the StealingEqualsSingleProcess matrix (jobs 2 and 8 resolve each
  # lease on a pool) and ParallelFor.* (first error in index order).
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_workstealing
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_substrate
  # Concurrent shard writers racing one cache directory, and parallel
  # warm-ups racing one repository's per-level image/substrate once-guards
  # over a filled cache (ModelCacheImage.ConcurrentWarmUpsRaceOneRepository).
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_model_cache
  # SEM/SDC detectors' parallel differential: detectors-on vs detectors-off
  # suites at jobs {1,2,8} share analyzers across the worker fan-out.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_detectors
  # The vetting daemon: admission queue, worker pool, result cache and the
  # response fan-out racing client threads — plus the soak at 2x capacity.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_serve
  # Parallel suites racing one shared incremental cache directory
  # (ChainSuite.ConcurrentSuitesShareOneCacheDirectory): rename-atomic
  # entry stores against concurrent try_loads across worker threads.
  TSAN_OPTIONS="halt_on_error=1" ./build-tsan/tests/test_incremental
}

run_asan() {
  echo "=== AddressSanitizer+UBSan: full tier-1 suite ==="
  cmake -B build-asan -S . -DSD_SANITIZE=address,undefined \
        -DCMAKE_BUILD_TYPE=RelWithDebInfo > /dev/null
  cmake --build build-asan -j "$jobs"
  ASAN_OPTIONS="detect_leaks=0" UBSAN_OPTIONS="halt_on_error=1" \
    ctest --test-dir build-asan --output-on-failure -j "$jobs"
}

case "$leg" in
  tsan) run_tsan ;;
  asan) run_asan ;;
  all)  run_tsan; run_asan ;;
  *)    echo "usage: ci/sanitize.sh [tsan|asan|all]" >&2; exit 2 ;;
esac
echo "sanitize: OK ($leg)"
