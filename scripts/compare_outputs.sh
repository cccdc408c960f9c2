#!/usr/bin/env bash
# Byte-identity check for a change that must not move any output: run
# scripts/run_all.sh (check suite plus the five default scenarios),
# `baseline --backend both`, `baseline` at d = 3 (n_max = 1, 200 steps,
# the path of the benchmark's d3-field-sampling workload), `gauge-heisenberg`
# at chi_amplitude = 0 (a family whose blocks are all zero) and
# `gauge-schrodinger` on the mirrored subsets -1 0, -1 0 1 with mode2 = -1:+
# (the benchmark's seeded variant) and `energy-heisenberg` at d = 3
# (n_max = 1, 1000 steps: a driven family whose mode groups come in two
# sizes, 6 and 12) on git revision REV and on the working tree, each with
# one BLAS thread, then `diff -r` the two output directories.
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
printf 'd = 3\nn_max = 1\nn_steps = 200\n' > "${tmp}/d3.cfg"
printf 'chi_amplitude = 0\n' > "${tmp}/chi0.cfg"
printf 'mode2 = -1:+\nscan_subsets = -1 0, -1 0 1\n' > "${tmp}/mirrored.cfg"
printf 'd = 3\nn_max = 1\nn_steps = 1000\n' > "${tmp}/energy-d3.cfg"

# run_tree TREE OUT: outputs of TREE's sources under OUT, with paths relative to OUT
run_tree() {
    mkdir -p "$2"
    (
        cd "$2"
        "$1/scripts/run_all.sh" results > run_all.log 2>&1 || true
        PYTHONPATH="$1/src" python3 -m diracbox.cli baseline --backend both \
            --out-dir baseline-both > baseline-both.log 2>&1 || true
        PYTHONPATH="$1/src" python3 -m diracbox.cli baseline --config "${tmp}/d3.cfg" \
            --out-dir baseline-d3 > baseline-d3.log 2>&1 || true
        PYTHONPATH="$1/src" python3 -m diracbox.cli gauge-heisenberg --config "${tmp}/chi0.cfg" \
            --out-dir gauge-heisenberg-chi0 > gauge-heisenberg-chi0.log 2>&1 || true
        PYTHONPATH="$1/src" python3 -m diracbox.cli gauge-schrodinger --config "${tmp}/mirrored.cfg" \
            --out-dir gauge-schrodinger-mirrored > gauge-schrodinger-mirrored.log 2>&1 || true
        PYTHONPATH="$1/src" python3 -m diracbox.cli energy-heisenberg --config "${tmp}/energy-d3.cfg" \
            --out-dir energy-heisenberg-d3 > energy-heisenberg-d3.log 2>&1 || true
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
