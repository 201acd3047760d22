#!/usr/bin/env bash
# CI lifecycle-smoke job: run every workload of the design-lifecycle
# benchmark (lifecycle_bench/, BENCHMARK.json) once, briefly, and fail
# unless its output checks hold ("correct": true on the last JSON line).
# Correctness only: timings are printed but never judged, and the job does
# not edit lifecycle_bench/. Per-op failures (e.g. WCET conformance
# violated on a CAN spec) are counted by the benchmark, not by this job.
#
# Usage: scripts/run_lifecycle_smoke.sh [seed]   (default seed 2)
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
seed="${1:-2}"
cd "${repo_root}"

status=0
for workload in design_cycle explore montecarlo service; do
  out="$(python3 lifecycle_bench/run.py --workload "${workload}" \
           --seed "${seed}" --seconds 1)"
  last="$(printf '%s\n' "${out}" | tail -n 1)"
  if printf '%s' "${last}" | python3 -c \
      'import json, sys; sys.exit(0 if json.load(sys.stdin).get("correct") is True else 1)'; then
    echo "lifecycle-smoke: ${workload} seed ${seed}: correct"
  else
    echo "lifecycle-smoke: ${workload} seed ${seed}: NOT correct"
    printf '%s\n' "${out}" | tail -n 20
    status=1
  fi
done
exit "${status}"
