#!/usr/bin/env bash
# Tier-1 verification gate: the exact configure/build/ctest sequence CI
# runs on every commit, the benchmark's build (vetbench/), plus the
# ThreadSanitizer leg over the concurrency suites (ci/sanitize.sh tsan).
# Run before pushing; a clean exit here is what "tier-1 green" means in
# ROADMAP.md.
#
# Usage: ci/verify.sh [--no-tsan]
set -euo pipefail
cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"
tsan=1
[[ "${1:-}" == "--no-tsan" ]] && tsan=0

echo "=== tier-1: configure + build + ctest ==="
cmake -B build -S . > /dev/null
cmake --build build -j "$jobs"
ctest --test-dir build --output-on-failure -j "$jobs"

echo "=== incremental equivalence gate: test_incremental ==="
# Also part of the ctest pass above; run standalone so the incremental ≡
# from-scratch proof fails loudly under its own name.
./build/tests/test_incremental

echo "=== doc-drift lint: docs/*.md + README.md flags vs saintdroid --help ==="
# Also registered with ctest (doc_drift); run standalone to fail by name.
tools/check_doc_drift.sh ./build/tools/saintdroid docs README.md

echo "=== benchmark build: vetbench's sdbench, sdtrace and the CLI ==="
# vetbench/src calls product internals directly (sdtrace replays the
# facade, the CLVM and the dist planner), so a product refactor can break
# the benchmark's build without failing a test. Configure and build it
# here, in its own tree; nothing under vetbench/ is written.
cmake -S vetbench -B build/vetbench -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build build/vetbench -j "$jobs" --target sdbench sdtrace saintdroid_cli

echo "=== serve smoke: daemon up, one vetted request, clean SIGTERM ==="
smoke="$(mktemp -d)"
trap 'rm -rf "$smoke"' EXIT
./build/tools/apkgen demo "$smoke/app.apk" > /dev/null
./build/tools/saintdroid serve "$smoke/state" --jobs 2 \
  2> "$smoke/serve.log" &
serve_pid=$!
response="$(./build/tools/saintdroid submit "$smoke/state" "$smoke/app.apk" \
  --wait 30)"
echo "$response"
case "$response" in
  *'"status":"done"'*) ;;
  *) echo "serve smoke: expected a done response" >&2; exit 1 ;;
esac
kill -TERM "$serve_pid"
rc=0; wait "$serve_pid" || rc=$?
if [[ "$rc" != 4 ]]; then
  echo "serve smoke: expected graceful-shutdown exit 4, got $rc" >&2
  cat "$smoke/serve.log" >&2
  exit 1
fi

if [[ "$tsan" == 1 ]]; then
  ci/sanitize.sh tsan
fi

echo "verify: OK"
