#!/usr/bin/env bash
# PDES differential oracle: regenerates every bench CSV twice — once on
# the sequential engine (IBWAN_THREADS=1, the exact path the committed
# CSVs were generated with) and once site-parallel (IBWAN_PAR_SITES=2,
# multi-threaded) — and byte-compares the outputs. Site-parallel
# execution is a pure wall-clock optimization (DESIGN.md §13): any diff
# here is a determinism bug in the conservative-PDES engine, not a
# tolerance question, so the comparison is cmp, not numdiff.
#
#   scripts/check_pdes.sh [build-dir]
#
# Benches that cannot partition (back-to-back) fall back to
# the sequential engine internally; they still run here so the fallback
# itself is covered. Any IBWAN_PAR_SITES > 1 requests the full per-site
# partition (one LP per topology site — the only split that preserves
# byte-identity), so the same "2" covers the N-site ext_incast graphs.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-${IBWAN_BUILD_DIR:-build}}"
BENCHES=(
  fig3_verbs_latency
  fig4_ud_bandwidth
  fig5_rc_bandwidth
  fig6_ipoib_ud
  fig7_ipoib_rc
  fig8_mpi_bandwidth
  fig9_mpi_threshold
  fig10_message_rate
  fig11_bcast
  fig12_nas
  fig13_nfs
  table1_delay_distance
  ablation_rc_window
  ablation_coalescing
  ablation_adaptive_threshold
  ablation_bcast_algos
  ablation_nfs_chunk
  ablation_tcp_sack
  ext_sdp_sockets
  ext_kv_datacenter
  ext_pfs_striping
  ext_sdr_fec
  ext_incast
  ext_kv_serving
)

for b in "${BENCHES[@]}"; do
  if [[ ! -x "$BUILD_DIR/bench/$b" ]]; then
    echo "building $b..."
    cmake --build "$BUILD_DIR" -j --target "$b" >/dev/null
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/seq" "$tmp/pdes"
fail=0

for b in "${BENCHES[@]}"; do
  (cd "$tmp/seq" && IBWAN_THREADS=1 \
    "$OLDPWD/$BUILD_DIR/bench/$b" >/dev/null)
  (cd "$tmp/pdes" && IBWAN_PAR_SITES=2 IBWAN_THREADS="${IBWAN_THREADS:-4}" \
    "$OLDPWD/$BUILD_DIR/bench/$b" --metrics "$b.metrics.json" >/dev/null)
  # Metrics export must also be byte-stable; regenerate the sequential
  # copy for the same bench and compare both artifact kinds.
  (cd "$tmp/seq" && IBWAN_THREADS=1 \
    "$OLDPWD/$BUILD_DIR/bench/$b" --metrics "$b.metrics.json" >/dev/null)
done

count=0
for f in "$tmp/seq"/*.csv "$tmp/seq"/*.metrics.json; do
  name="$(basename "$f")"
  if ! cmp -s "$f" "$tmp/pdes/$name"; then
    echo "PDES DIVERGENCE: $name differs between sequential and site-parallel"
    diff "$f" "$tmp/pdes/$name" | head -10
    fail=1
  else
    count=$((count + 1))
  fi
done

if [[ "$fail" == "0" ]]; then
  echo "check_pdes: $count artifacts byte-identical (sequential vs site-parallel)"
fi
exit "$fail"
