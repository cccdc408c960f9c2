#!/usr/bin/env bash
# Run the invariant check suite and all five experiment scenarios.
# Usage: scripts/run_all.sh [OUT_DIR]   (default OUT_DIR = results)
set -euo pipefail

# run from the checkout's own sources, installed or not
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="${repo}/src${PYTHONPATH:+:${PYTHONPATH}}"

out="${1:-results}"
status=0

echo "== check =="
python3 -m diracbox.cli check || status=$?

for scenario in baseline gauge-heisenberg gauge-schrodinger energy-heisenberg equivalence; do
    echo "== ${scenario} =="
    python3 -m diracbox.cli "${scenario}" --out-dir "${out}/${scenario}" || status=$?
done

echo
echo "outputs under ${out}/ (exit ${status})"
exit "${status}"
