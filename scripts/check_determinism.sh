#!/usr/bin/env bash
# Double-run determinism check: regenerates a representative slice of
# the paper CSVs (fig5 RC bandwidth, fig9 MPI threshold, the RC-window
# ablation, the SDR, N-site incast, single-replica KV and replicated-KV
# serving extensions) twice for each of two seeds and byte-compares the runs.
# Any diff means a nondeterminism bug escaped ibwan-lint — the CSVs the
# repo publishes could silently depend on hash order, addresses, or
# wall clock.
#
#   scripts/check_determinism.sh [build-dir]
#
# The second seed exercises the IBWAN_SEED override (bench::init), so
# the check also proves seed plumbing reaches every Testbed.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${IBWAN_BUILD_DIR:-build}}"
BENCHES=(fig5_rc_bandwidth fig9_mpi_threshold ablation_rc_window ext_sdr_fec
         ext_incast ext_kv_datacenter ext_kv_serving)
SEEDS=(42 1337)

for b in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$b" ]]; then
    echo "building $b..."
    cmake --build "$BUILD_DIR" -j --target "$b" >/dev/null
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
fail=0

for seed in "${SEEDS[@]}"; do
  for run in 1 2; do
    dir="$tmp/seed$seed-run$run"
    mkdir -p "$dir"
    for b in "${BENCHES[@]}"; do
      (cd "$dir" && IBWAN_SEED="$seed" \
        "$OLDPWD/$BUILD_DIR/bench/$b" >/dev/null)
    done
  done
  for csv in "$tmp/seed$seed-run1"/*.csv; do
    name="$(basename "$csv")"
    if ! cmp -s "$csv" "$tmp/seed$seed-run2/$name"; then
      echo "NONDETERMINISM: $name differs between identical runs (seed $seed)"
      diff "$csv" "$tmp/seed$seed-run2/$name" | head -10
      fail=1
    else
      echo "ok: $name identical across runs (seed $seed)"
    fi
  done
done

# Different seeds must not produce identical files by accident either —
# that would mean the seed is not reaching the workload at all. The
# delay-grid sweep shapes are seed-insensitive by design for some
# figures, so only warn.
for csv in "$tmp/seed${SEEDS[0]}-run1"/*.csv; do
  name="$(basename "$csv")"
  if cmp -s "$csv" "$tmp/seed${SEEDS[1]}-run1/$name"; then
    echo "note: $name is seed-invariant (identical for seeds ${SEEDS[0]} and ${SEEDS[1]})"
  fi
done

if [[ "$fail" == "0" ]]; then
  echo "check_determinism: all regenerated CSVs byte-identical across runs"
fi
exit "$fail"
