#!/usr/bin/env bash
# CI simd job (DESIGN.md §3.8): the batched SIMD Monte Carlo engine must
#   1. hold every lane's trace bit-identical to the scalar Simulator under
#      the native ISA build (-DECSIM_SIMD=avx2, or sse2 when the host lacks
#      AVX2) — pack kernels, BatchedSim suites, lane-RNG and MC invariance
#      properties, and the golden trace-digest table (every driver of the
#      shared hybrid-event loop, lanes at W=1 and W=8 included);
#   2. hold the EXP-P8 perf guard (batched >= 2x scalar trials/s on
#      chains_200, digests identical), run via `ctest -C bench` on the ISA
#      build — BENCH_p8.json lands in the build dir;
#   3. pass the same identity suites and the golden table on the portable
#      scalar build (the intrinsics and the fallback must agree bit for bit);
#   4. pass them again under ASan+UBSan on the scalar build (the masked
#      queue, arena and spill paths are pointer-heavy).
#
# Usage: scripts/run_simd_guard.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
isa_dir="${repo_root}/build-simd-isa"
scalar_dir="${repo_root}/build-simd-scalar"
asan_dir="${repo_root}/build-simd-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

# Individual gtest cases are registered with ctest under their suite names.
lane_suites='^(PackTest|BatchedSimTest|SimdLaneProperty|Rng|SimMonteCarlo)\.'
targets=(test_simd test_properties test_par test_mathlib test_sim_golden)
golden='^Inputs/SimGolden\.'

isa=avx2
if ! grep -qw avx2 /proc/cpuinfo 2>/dev/null; then
  isa=sse2
  echo "run_simd_guard: host has no AVX2, falling back to ECSIM_SIMD=sse2"
fi

# 1. Native-ISA build: lane identity suites.
cmake -S "${repo_root}" -B "${isa_dir}" -DCMAKE_BUILD_TYPE=Release \
  -DECSIM_SIMD="${isa}"
cmake --build "${isa_dir}" -j "${JOBS}" \
  --target "${targets[@]}" bench_p8_simd_mc
ctest --test-dir "${isa_dir}" --output-on-failure -R "${lane_suites}"
ctest --test-dir "${isa_dir}" --output-on-failure -j "${JOBS}" -R "${golden}"

# 2. EXP-P8 perf guard on the ISA build (writes BENCH_p8.json there).
ctest --test-dir "${isa_dir}" -C bench -R bench_p8_simd_mc_guard \
  --output-on-failure

# 3. Portable scalar build: the fallback must produce the same bits.
cmake -S "${repo_root}" -B "${scalar_dir}" -DCMAKE_BUILD_TYPE=Release \
  -DECSIM_SIMD=scalar
cmake --build "${scalar_dir}" -j "${JOBS}" --target "${targets[@]}"
ctest --test-dir "${scalar_dir}" --output-on-failure -R "${lane_suites}"
ctest --test-dir "${scalar_dir}" --output-on-failure -j "${JOBS}" -R "${golden}"

# 4. Scalar build under ASan+UBSan.
cmake -S "${repo_root}" -B "${asan_dir}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DECSIM_SIMD=scalar -DECSIM_SANITIZE=ON
cmake --build "${asan_dir}" -j "${JOBS}" --target "${targets[@]}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "${asan_dir}" --output-on-failure -R "${lane_suites}"

echo "run_simd_guard: OK (isa=${isa})"
