#!/usr/bin/env bash
# CI codegen job (DESIGN.md §3.6): the native code-generation backend must
#   1. pass the IR determinism suite (round-trip, hash stability, committed
#      golden), the interp-vs-native bit-identity property suite and the
#      golden trace-digest table of the shared hybrid-event loop;
#   2. byte-reproduce the committed golden IR through the CLI;
#   3. hold the EXP-P6 perf guard (native >= 1.5x interpreter events/s on
#      chains_200, traces identical), run via `ctest -C bench`;
#   4. survive with the generated .so compiled and dlopen()ed under
#      ASan+UBSan (the module inherits the build's sanitizer flags through
#      ECSIM_NATIVE_FLAGS — see src/CMakeLists.txt).
#
# Usage: scripts/run_codegen_guard.sh
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
build_dir="${repo_root}/build-codegen"
asan_dir="${repo_root}/build-codegen-asan"
JOBS="$(nproc 2>/dev/null || echo 2)"

cmake -S "${repo_root}" -B "${build_dir}" -DCMAKE_BUILD_TYPE=Release
cmake --build "${build_dir}" -j "${JOBS}" \
  --target test_ir test_backend test_sim_golden bench_p6_codegen ecsim_flow

# 1. IR determinism, backend bit-identity and golden trace-digest suites.
ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}" \
  -R "IrRoundtrip|IrHash|IrGolden|NativeBackend|CosimBackend|SimGolden"

# 2. The CLI reproduces the committed golden byte for byte.
"${build_dir}/tools/ecsim_flow" ir dump --example=servo |
  diff - "${repo_root}/tests/ir/golden_servo.ir"
echo "golden IR: CLI output is byte-identical"

# 3. EXP-P6 perf guard (writes BENCH_p6.json into the build dir).
ctest --test-dir "${build_dir}" -C bench -R bench_p6_codegen_guard \
  --output-on-failure

# 4. Generated modules under ASan+UBSan.
cmake -S "${repo_root}" -B "${asan_dir}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DECSIM_SANITIZE=ON
cmake --build "${asan_dir}" -j "${JOBS}" --target test_ir test_backend
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"
ctest --test-dir "${asan_dir}" --output-on-failure \
  -R "IrRoundtrip|IrHash|IrGolden|NativeBackend|CosimBackend"

echo "run_codegen_guard: OK"
