#!/usr/bin/env bash
# Full local gate: tier-1 build + tests, then an ASan/UBSan build of the same
# tests (-DTC_SANITIZE=ON) to catch memory and UB bugs the release build
# hides. Each ctest run covers every labeled suite once (`ctest
# --print-labels` lists them); the gates between the two runs add the CLI
# passes and recorded-fixture cmps that no test runs.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 only, skip the sanitizer build
#
# CI's gates are this script: the tier1 job runs --fast (then builds and
# smoke-tests bench/host_perf), the sanitizers job runs all of it.
set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="$(nproc 2>/dev/null || echo 4)"
FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

echo "== tier-1: release build + ctest =="
cmake -B build -S . >/dev/null
cmake --build build -j "$JOBS"
ctest --test-dir build --output-on-failure -j "$JOBS"

echo "== schedule checks: kernel hazard scan =="
./build/examples/tcgemm_cli check

echo "== timed-device determinism gate: two processes per spec + recorded results =="
# The perf JSON holds only simulated results, so any byte difference between
# two runs of one launch is nondeterminism. Separate processes catch what the
# in-process repeatability test cannot, such as ordering by host pointer
# under ASLR. The recorded fixture catches a change that moves both runs
# alike (rtx2070: 43,855 device cycles). The perf --profile report and its
# JSON are recorded too, so a counter or attribution change shows here. So is
# a cold serve run (tuning, pass costs and the metrics document).
for dev in rtx2070 t4; do
  for run in 1 2; do
    ./build/examples/tcgemm_cli perf --device "$dev" --m 1024 --n 1024 --k 256 \
      --engine device --json "build/determinism_${dev}_${run}.json" >/dev/null
  done
  cmp "build/determinism_${dev}_1.json" "build/determinism_${dev}_2.json"
  cmp "build/determinism_${dev}_1.json" "tests/golden/perf_device_${dev}.json"
  ./build/examples/tcgemm_cli perf --device "$dev" --m 1024 --n 1024 --k 256 \
    --profile >"build/perf_profile_${dev}.txt"
  ./build/examples/tcgemm_cli perf --device "$dev" --m 1024 --n 1024 --k 256 \
    --profile --json "build/perf_profile_${dev}.json" >/dev/null
  cmp "build/perf_profile_${dev}.txt" "tests/golden/perf_profile_${dev}.txt"
  cmp "build/perf_profile_${dev}.json" "tests/golden/perf_profile_${dev}.json"
  ./build/examples/tcgemm_cli serve --device "$dev" --requests 30 --budget 2 \
    --json "build/serve_${dev}.json" >/dev/null
  cmp "build/serve_${dev}.json" "tests/golden/serve_${dev}.json"
done

echo "== jit gate: compiled-engine CLI smoke =="
# The CLI passes drive the compiled engine end to end: run --engine jit must
# match the reference bitwise in both numerics modes, and fuzz --engine jit
# must report zero divergences.
./build/examples/tcgemm_cli run --m 64 --n 64 --k 64 --engine jit --check >/dev/null
./build/examples/tcgemm_cli run --m 64 --n 64 --k 64 --engine jit \
  --numerics bitaccurate --check >/dev/null
./build/examples/tcgemm_cli fuzz --engine jit --programs 200 >/dev/null

echo "== numerics gate: executor-vs-engine check =="
# The CLI passes drive the executor against the engine in bit-accurate mode
# and emit the error-vs-k curves end to end.
# The idealized sum is one emitted copy (docs/numerics.md): a clone such as
# GCC's constant-propagated `idealized_sum [clone .constprop.0]` may return
# other NaN payloads than the original.
[[ "$(nm -C build/src/numerics/libtc_numerics.a | grep -c idealized_sum)" == 1 ]] ||
  { echo "idealized_sum is not exactly one emitted copy"; exit 1; }
./build/examples/tcgemm_cli run --m 64 --n 64 --k 64 --numerics bitaccurate --check >/dev/null
# m, n and k off multiples of 8: the references' edge tiles and k tail.
for mode in idealized bitaccurate; do
  ./build/examples/tcgemm_cli run --m 100 --n 72 --k 37 --numerics "$mode" --check >/dev/null
done
./build/examples/tcgemm_cli numerics --k 256 >/dev/null

echo "== tuner smoke: ranked search on both specs =="
# Small-budget end-to-end search on each device: every evaluated kernel is
# hard-gated through sass::validate + check::find_hazards inside the tuner,
# so a non-zero exit means the search or a generated kernel regressed.
for dev in rtx2070 t4; do
  ./build/examples/tcgemm_cli tune --device "$dev" --budget 6 >/dev/null
done

echo "== serve smoke: seeded traffic + persistent cache on both specs =="
# The CLI pass drives the serving stack end to end on each device: a cold run
# populates a fresh persistent cache, the warm rerun must answer every bucket
# from it. The cold run saves the cache once per tuned bucket, each time by
# renaming a temporary file over it, so nothing but the cache may match its
# name after.
for dev in rtx2070 t4; do
  cache="build/serve_cache_${dev}.json"
  rm -f "$cache"*
  ./build/examples/tcgemm_cli serve --device "$dev" --requests 30 --budget 2 \
    --cache "$cache" >/dev/null
  ./build/examples/tcgemm_cli serve --device "$dev" --requests 30 --budget 2 \
    --cache "$cache" | grep -q "0 tune evals" \
    || { echo "warm serve re-tuned on $dev"; exit 1; }
  for f in "$cache"*; do
    [[ "$f" == "$cache" ]] || { echo "serve left $f beside its cache on $dev"; exit 1; }
  done
  rm -f "$cache"
done

echo "== op smoke: CLI bitwise plan check =="
# The CLI pass lowers a batched split-K bias+GELU op end to end and verifies
# the multi-kernel plan's output bitwise against gemm_op_ref.
./build/examples/tcgemm_cli op --m 96 --n 80 --k 200 --batch 2 --split-k 4 \
  --alpha 1.25 --beta 0.5 --bias --act gelu --check >/dev/null

echo "== scheduler gate: virtual emission -> schedule -> hazard oracle =="
# `schedule` re-schedules each kernel from its virtual (latency-agnostic)
# form and hard-verifies the result through check::find_hazards — a non-zero
# exit means the automatic scheduler regressed. The full config-ablation
# sweep (layouts, interleave, prefetch, warp tiles) runs in tier-1 as the
# SchedKernelGen.* tests; this exercises the headline kernels on both device
# timing models.
for dev in rtx2070 t4; do
  ./build/examples/tcgemm_cli schedule --device "$dev" >/dev/null
  ./build/examples/tcgemm_cli schedule --baseline --device "$dev" >/dev/null
  ./build/examples/tcgemm_cli schedule --wmma --device "$dev" >/dev/null
done

if [[ "$FAST" == 1 ]]; then
  echo "== done (fast mode: sanitizer build skipped) =="
  exit 0
fi

echo "== sanitizers: ASan+UBSan build + ctest =="
cmake -B build-asan -S . -DTC_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j "$JOBS"
# halt_on_error so UBSan findings fail the run instead of scrolling past.
UBSAN_OPTIONS=halt_on_error=1 ASAN_OPTIONS=detect_leaks=0 \
  ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "== all checks passed =="
