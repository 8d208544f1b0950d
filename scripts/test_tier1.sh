#!/usr/bin/env bash
# Fast tier-1 subset runner: the unit/property suites every change must
# keep green (see README "Test tiers"). Uses the ctest label wired in
# tests/CMakeLists.txt, so a suite added there with LABELS "tier1" is
# picked up automatically.
#
#   scripts/test_tier1.sh [build-dir]      # default: build
#
# Builds only the test binaries (not the benches), then runs
# `ctest -L tier1`. The soak/check/lint labels are deliberately
# excluded here — see scripts/lint.sh and the `flake-guard` CI job for
# those tiers.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"

if [[ ! -f "${BUILD_DIR}/CMakeCache.txt" ]]; then
  cmake -B "${BUILD_DIR}" -S .
fi

# Test binaries all end in _tests; building just those keeps the loop
# fast when bench/ or examples/ are mid-edit. sim_core_bench is the one
# bench a tier1 test runs (sim_core_bench_rejects_unknown_arg).
mapfile -t TARGETS < <(
  cmake --build "${BUILD_DIR}" --target help 2>/dev/null \
    | sed -n 's/^\.\.\. \([A-Za-z0-9_]*_tests\)$/\1/p'
)
if [[ "${#TARGETS[@]}" -gt 0 ]]; then
  cmake --build "${BUILD_DIR}" -j "$(nproc)" \
    --target "${TARGETS[@]}" sim_core_bench
else
  cmake --build "${BUILD_DIR}" -j "$(nproc)"
fi

exec ctest --test-dir "${BUILD_DIR}" -L tier1 --output-on-failure -j "$(nproc)"
