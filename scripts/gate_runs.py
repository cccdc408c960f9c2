#!/usr/bin/env python3
"""The gate runs beyond scripts/run_all.sh: the one list compare_outputs.sh and relabel_floor.py read.

Each run is a scenario with a config file, keyed by its output directory
(and console log, `<name>.log`, in compare_outputs.sh):
- `baseline-both`: both backends, and their comparison on one catalog;
- `baseline-d3`: d = 3, n_max = 1, 200 steps, the path of the benchmark's
  d3-field-sampling workload; `baseline-d3-n2`: n_max = 2, 20 steps,
  t_final = 0.1 (M = 500); `baseline-d3-n3`: n_max = 3, 4 steps,
  t_final = 0.02 (M = 1 372);
- `gauge-heisenberg-chi0`: chi_amplitude = 0, a family whose blocks are
  all zero;
- `gauge-heisenberg-n5`: cutoffs 2, 3, 4, 5, whose deviations reach the
  roundoff floor (the run exits 1 on `j_dev_decreasing`; its outputs are
  still written and compared);
- `gauge-schrodinger-mirrored`: the mirrored subsets -1 0, -1 0 1 with
  mode2 = -1:+ (the benchmark's seeded variant);
- `energy-heisenberg-d3`: d = 3, n_max = 1, 1000 steps, a driven family
  whose mode groups come in two sizes, 6 and 12.

Usage: scripts/gate_runs.py DIR   writes DIR/<name>.cfg for every run and
prints one "<name> <scenario>" line per run, in list order.
"""

from __future__ import annotations

import sys
from pathlib import Path

# output directory -> (scenario, config text)
GATE_RUNS = {
    "baseline-both": ("baseline", "backend = both\n"),
    "baseline-d3": ("baseline", "d = 3\nn_max = 1\nn_steps = 200\n"),
    "baseline-d3-n2": ("baseline", "d = 3\nn_max = 2\nn_steps = 20\nt_final = 0.1\n"),
    "baseline-d3-n3": ("baseline", "d = 3\nn_max = 3\nn_steps = 4\nt_final = 0.02\n"),
    "gauge-heisenberg-chi0": ("gauge-heisenberg", "chi_amplitude = 0\n"),
    "gauge-heisenberg-n5": ("gauge-heisenberg", "cutoffs = 2, 3, 4, 5\n"),
    "gauge-schrodinger-mirrored": ("gauge-schrodinger", "mode2 = -1:+\nscan_subsets = -1 0, -1 0 1\n"),
    "energy-heisenberg-d3": ("energy-heisenberg", "d = 3\nn_max = 1\nn_steps = 1000\n"),
}


def write_configs(directory: Path) -> dict[str, list[str]]:
    """Write `directory`/<name>.cfg for every gate run; the CLI arguments of each run, by output directory."""
    runs = {}
    for name, (scenario, text) in GATE_RUNS.items():
        config = directory / f"{name}.cfg"
        config.write_text(text)
        runs[name] = [scenario, "--config", str(config)]
    return runs


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: scripts/gate_runs.py DIR")
    target = Path(sys.argv[1])
    target.mkdir(parents=True, exist_ok=True)
    for name, (scenario, *_) in write_configs(target).items():
        print(name, scenario)
