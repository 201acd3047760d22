#!/usr/bin/env bash
# Flag-handling smoke test of the ecsim_flow CLI:
#   1. an explicit --trials=200 on `fault montecarlo` runs 200 trials (the
#      command's own default is 32, so 200 must not read as "no flag");
#   2. a non-numeric number flag prints the usage text and exits 2 instead of
#      aborting on an uncaught exception.
#
# Usage: scripts/cli_flags_smoke.sh <ecsim_flow-binary>
set -uo pipefail

FLOW="${1:?usage: cli_flags_smoke.sh <ecsim_flow-binary>}"

out="$("$FLOW" fault montecarlo --trials=200 --loss=0.2 --seed=7)"
rc=$?
if [[ ${rc} -ne 0 ]] || ! grep -q "200 trials" <<<"${out}"; then
  echo "FAIL: fault montecarlo --trials=200 (exit ${rc}):"
  echo "${out}" | head -3
  exit 1
fi

err="$("$FLOW" sweep timing --threads=abc 2>&1 >/dev/null)"
rc=$?
if [[ ${rc} -ne 2 ]] || ! grep -q "^usage: ecsim_flow" <<<"${err}"; then
  echo "FAIL: sweep timing --threads=abc exited ${rc}, expected usage + 2:"
  echo "${err}" | head -3
  exit 1
fi
echo "cli_flags_smoke: OK"
