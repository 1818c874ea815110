#!/usr/bin/env bash
# One command for the host-performance benchmark. Builds bench/host_perf as a
# Release project under build/host_perf, then runs workloads, each in its
# own process.
#
#   bench/host_perf/run.sh [--seed S] [--repeat N] [--seconds T] [--trace]
#       Every workload, N runs each with seeds S .. S+N-1, every metric
#       printed by name and unit. With N > 1 it also prints each metric's
#       median and quartiles and flags a host metric whose quartile spread
#       exceeds its bound in BENCHMARK.json. --trace adds one traced run per
#       workload: per-layer metrics, a self-time table and a Chrome trace in
#       build/host_perf/trace_<workload>.json. Exits non-zero if any
#       operation failed.
#
#   bench/host_perf/run.sh --workload W --seed S [--seconds T] [--trace 0|1]
#       One run of one workload; the last line of standard output is the
#       result object (see BENCHMARK.json).
#
# Results go to build/host_perf/<workload>_s<seed>[_trace].json.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
out="$root/build/host_perf"
bin="$out/host_perf"

seed=1
repeat=1
seconds=20
trace=""
workload=""
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) seed="$2"; shift 2 ;;
    --repeat) repeat="$2"; shift 2 ;;
    --seconds) seconds="$2"; shift 2 ;;
    --workload) workload="$2"; shift 2 ;;
    --trace)
      if [[ "${2:-}" == 0 || "${2:-}" == 1 ]]; then trace="$2"; shift 2; else trace=1; shift; fi ;;
    *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
  esac
done
[[ "$seed" =~ ^[0-9]+$ && "$repeat" =~ ^[1-9][0-9]*$ ]] ||
  { echo "run.sh: --seed and --repeat need whole numbers" >&2; exit 2; }

# Build quietly: standard output carries only results.
mkdir -p "$out"
if ! { { [[ -f "$out/CMakeCache.txt" ]] ||
         cmake -S "$here" -B "$out" -DCMAKE_BUILD_TYPE=Release; } &&
       cmake --build "$out" -j "$(nproc)"; } >"$out/build.log" 2>&1; then
  tail -n 30 "$out/build.log" >&2
  echo "run.sh: build failed; full log in $out/build.log" >&2
  exit 1
fi

run_one() {  # workload seed trace(0|1)
  if [[ "$3" == 1 ]]; then
    "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace 1 \
      --json "$out/$1_s$2_trace.json" --trace-out "$out/trace_$1.json"
  else
    "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace 0 \
      --json "$out/$1_s$2.json"
  fi
}

if [[ -n "$workload" && "$repeat" == 1 ]]; then
  run_one "$workload" "$seed" "${trace:-0}"
  exit
fi

workloads=(device_grid paper_sweep control_plane functional)
[[ -n "$workload" ]] && workloads=("$workload")
status=0
results=()
for w in "${workloads[@]}"; do
  for ((r = 0; r < repeat; r++)); do
    s=$((seed + r))
    run_one "$w" "$s" 0 || status=1
    results+=("$out/${w}_s$s.json")
  done
  if [[ "$trace" == 1 ]]; then
    run_one "$w" "$seed" 1 || status=1
  fi
done
if ((repeat > 1)); then
  "$bin" --summarize "$root/BENCHMARK.json" "${results[@]}" || status=1
fi
exit "$status"
