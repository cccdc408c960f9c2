#!/usr/bin/env bash
# Byte-identity check for a change that must not move any output: run
# scripts/run_all.sh (check suite plus the five default scenarios) and the
# gate runs of scripts/gate_runs.py (each a scenario with a config file) on
# git revision REV and on the working tree, each with one BLAS thread, then
# `diff -r` the two output directories.  Both trees run the working tree's
# list of gate runs.
# The console logs of both runs are part of the outputs.  When they differ,
# scripts/compare_numbers.py then prints how far each number in the differing
# CSV/JSON files moved; given FLOOR_JSON (from `scripts/relabel_floor.py N
# --json FLOOR_JSON`, run on REV), it prints each moved number against its
# relabelling floor.
# Usage: scripts/compare_outputs.sh REV [FLOOR_JSON]   (REV e.g. HEAD~ or a commit SHA)
# Exit status: diff's (0 = byte-identical outputs).
set -euo pipefail

rev="${1:?usage: scripts/compare_outputs.sh REV [FLOOR_JSON]}"
floor="${2:+$(realpath "$2")}"
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "${tmp}"' EXIT
export OMP_NUM_THREADS=1 OPENBLAS_NUM_THREADS=1 MKL_NUM_THREADS=1

mkdir "${tmp}/rev"
git -C "${repo}" archive "${rev}" | tar -x -C "${tmp}/rev"
python3 "${repo}/scripts/gate_runs.py" "${tmp}/configs" > "${tmp}/gate_runs.txt"

# run_tree TREE OUT: outputs of TREE's sources under OUT, with paths relative to OUT
run_tree() {
    mkdir -p "$2"
    (
        cd "$2"
        "$1/scripts/run_all.sh" results > run_all.log 2>&1 || true
        while read -r name scenario; do
            PYTHONPATH="$1/src" python3 -m diracbox.cli "${scenario}" --config "${tmp}/configs/${name}.cfg" \
                --out-dir "${name}" > "${name}.log" 2>&1 < /dev/null || true
        done < "${tmp}/gate_runs.txt"
    )
}

run_tree "${tmp}/rev" "${tmp}/out-rev"
run_tree "${repo}" "${tmp}/out-tree"
status=0
diff -r "${tmp}/out-rev" "${tmp}/out-tree" || status=$?
if [ "${status}" -ne 0 ]; then
    echo
    echo "== how far the numbers moved (${rev} -> working tree) =="
    python3 "${repo}/scripts/compare_numbers.py" "${tmp}/out-rev" "${tmp}/out-tree" \
        ${floor:+--floor "${floor}"} || true
fi
exit "${status}"
