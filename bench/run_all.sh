#!/usr/bin/env bash
# Run the full bench suite and collect one BENCH_results.json.
#
# Usage: bench/run_all.sh [build-dir]           (default: build)
#   ETHERGRID_BENCH_REPORT   override the report path (default ./BENCH_results.json)
#   ETHERGRID_BENCH_QUICK=1  skip the slow micro suites (fig benches only)
set -euo pipefail

build="${1:-build}"
report="${ETHERGRID_BENCH_REPORT:-BENCH_results.json}"
export ETHERGRID_BENCH_REPORT="$report"

if [[ ! -d "$build/bench" ]]; then
  echo "error: $build/bench not found; build first (cmake -B $build -S . && cmake --build $build -j)" >&2
  exit 1
fi

rm -f "$report"
start=$SECONDS

figs=(
  fig1_submit_scale
  fig2_aloha_timeline
  fig3_ethernet_timeline
  fig4_buffer_throughput
  fig5_buffer_collisions
  fig6_aloha_reader
  fig7_ethernet_reader
  fig8_bulk_transfer
  ablation_jitter
  ablation_backoff_cap
  ablation_carrier_threshold
  ablation_limited_allocation
  ablation_forall_governor
  fidelity_script_vs_api
)

for bin in "${figs[@]}"; do
  echo "=== $bin ==="
  "$build/bench/$bin" > /dev/null
done

if [[ -z "${ETHERGRID_BENCH_QUICK:-}" ]]; then
  echo "=== micro_sim ==="
  "$build/bench/micro_sim" --benchmark_min_time=0.1
  echo "=== micro_shell ==="
  "$build/bench/micro_shell" --benchmark_min_time=0.1 > /dev/null
fi

echo
echo "bench suite wall-clock: $((SECONDS - start)) s"
echo "report: $report"
