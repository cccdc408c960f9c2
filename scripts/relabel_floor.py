#!/usr/bin/env python3
"""The relabelling floor: how far each output number moves when only the mode order does.

Runs the scenario outputs of scripts/compare_outputs.sh (the five default
scenarios and the gate runs of scripts/gate_runs.py) once as built and once
for each seed 1..N with the modes of every catalog reordered by a seeded
numpy permutation.  All runs take place in this process, from this
checkout's sources, with one BLAS thread.  The check suite is left out: it
writes no numbers.

A permutation of the modes changes no physics, only the order in which the
mode sums are taken.  So the largest move of a number from the unpermuted
run measures its roundoff floor: a change that reorders the arithmetic
can move that number by about as much without being wrong.

The permutation is applied from this script, by rebinding
diracbox.modes._assemble (which every catalog goes through) for the length
of a run; the library has no hook for it.

For each CSV column and JSON number this prints the largest absolute and
relative move over the N permuted runs, and each non-numeric value that
changed (a check verdict, say).  With --json PATH it also saves the floor of
every number (moved or not) as {"permutations": N, "floor": {file: {key:
{"abs": .., "rel": ..}}}}, the files by their path in the output layout of
compare_outputs.sh; `compare_numbers.py --floor PATH` then prints each moved
number's move against its floor.

Usage: scripts/relabel_floor.py N [--json PATH]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads its BLAS

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO / "scripts"))

import numpy as np  # noqa: E402

from compare_numbers import columns, deviation  # noqa: E402
from diracbox import cli, modes  # noqa: E402
from gate_runs import write_configs  # noqa: E402

SCENARIOS = ("baseline", "gauge-heisenberg", "gauge-schrodinger", "energy-heisenberg", "equivalence")

@contextlib.contextmanager
def permuted_modes(seed: int):
    """Every catalog built in the block lists its modes in a seeded random order."""
    assemble = modes._assemble
    rng = np.random.default_rng(seed)

    def permuted(grid, m, labels):
        catalog = assemble(grid, m, labels)
        order = tuple(catalog.modes[i] for i in rng.permutation(catalog.size))
        index = {mode.label: i for i, mode in enumerate(order)}
        return modes.BasisCatalog(grid, m, order, index)

    modes._assemble = permuted
    try:
        yield
    finally:
        modes._assemble = assemble


def run_set(out: Path, configs: Path) -> dict[str, int]:
    """Write the scenario outputs under `out` (config files under `configs`); the exit status of each run by directory."""
    runs = {f"results/{name}": [name] for name in SCENARIOS} | write_configs(configs)  # compare_outputs.sh's layout
    status = {}
    for name, argv in runs.items():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            status[name] = cli.main([*argv, "--out-dir", str(out / name)])
    return status


def main(argv: list[str]) -> int:
    json_path = None
    if len(argv) == 3 and argv[1] == "--json":
        argv, json_path = argv[:1], Path(argv[2])
    if len(argv) != 1 or not argv[0].isdigit() or int(argv[0]) < 1:
        print("usage: scripts/relabel_floor.py N [--json PATH]   (N >= 1 permutations)", file=sys.stderr)
        return 2
    n = int(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        ref_status = run_set(tmp / "ref", tmp)
        files = sorted(p.relative_to(tmp / "ref") for p in (tmp / "ref").rglob("*") if p.suffix in (".csv", ".json"))
        ref = {rel: columns(tmp / "ref" / rel) for rel in files}
        floor: dict[tuple[Path, str], list] = {}  # (file, key) -> [abs, rel, changes]
        for seed in range(1, n + 1):
            shutil.rmtree(tmp / "run", ignore_errors=True)  # a run that fails writes nothing
            with permuted_modes(seed):
                status = run_set(tmp / "run", tmp)
            for name, code in status.items():
                if code != ref_status[name]:
                    print(f"seed {seed}: {name} exit {ref_status[name]} -> {code}")
            for rel in files:
                cols = columns(tmp / "run" / rel) if (tmp / "run" / rel).is_file() else {}
                for key, values in ref[rel].items():
                    worst = floor.setdefault((rel, key), [0.0, 0.0, []])
                    if len(cols.get(key, ())) != len(values):
                        worst[2].append(f"seed {seed}: {len(values)} -> {len(cols.get(key, ()))} values")
                        continue
                    dev_abs, dev_rel, changed = deviation(values, cols[key])
                    worst[0], worst[1] = max(worst[0], dev_abs), max(worst[1], dev_rel)
                    worst[2] += [f"seed {seed}: {c}" for c in changed]
    print(f"largest move over {n} permutations of the catalog modes")
    moved = {k: v for k, v in floor.items() if v[0] > 0.0 or v[2]}
    width = max((len(key) for _, key in moved), default=0)
    for rel in files:
        print(f"{rel} ({sum(path == rel for path, _ in floor)} keys; those not listed did not move)")
        for (path, key), (dev_abs, dev_rel, changed) in moved.items():
            if path != rel:
                continue
            print(f"  {key:<{width}}  abs {dev_abs:.3e}  rel {dev_rel:.3e}")
            for line in changed[:3]:
                print(f"  {'':<{width}}  changed {line}")
    if json_path is not None:
        table: dict[str, dict] = {}
        for (rel, key), (dev_abs, dev_rel, _) in floor.items():
            table.setdefault(rel.as_posix(), {})[key] = {"abs": dev_abs, "rel": dev_rel}
        json_path.write_text(json.dumps({"permutations": n, "floor": table}, indent=1, sort_keys=True) + "\n")
        print(f"floor of every number written to {json_path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
