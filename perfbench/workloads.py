"""The benchmark's workloads and the inputs it generates from a seed.

Each workload is one scenario driver, chosen because a different layer
dominates its time (see README.md for the layer map).  The driver receives
only the ScenarioConfig built here; the seed never reaches the program.

Import this module only after the thread environment is pinned and the
checkout's ``src`` directory is on ``sys.path`` (run.py does both).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

from diracbox.experiments import (
    Report,
    ScenarioConfig,
    run_free_baseline,
    run_heisenberg_gauge,
    run_schrodinger_gauge_scan,
)
from diracbox.modes import label


@dataclass(frozen=True)
class SeededInput:
    """One of four inputs of equal cost.

    Both wavepacket modes share the spin s; mode 2 sits at momentum index
    n = +1 or -1 next to mode 1 at n = 0.  For n = -1 the Fock momentum
    subsets are mirrored so that they still hold both modes.
    """

    spin: float
    direction: int

    @classmethod
    def from_seed(cls, seed: int) -> "SeededInput":
        variant = seed % 4
        return cls(spin=(0.5, -0.5)[variant % 2], direction=(+1, -1)[variant // 2])

    def describe(self) -> str:
        return f"spin={'+' if self.spin > 0 else '-'}1/2 mode2_n={self.direction:+d}"

    def config(self, seed: int) -> ScenarioConfig:
        d = self.direction
        return ScenarioConfig(
            mode1=label(+1, self.spin, 0),
            mode2=label(+1, self.spin, d),
            scan_subsets=((0, 1), (-1, 0, 1)) if d > 0 else ((-1, 0), (-1, 0, 1)),
            seed=seed,
        )


@dataclass(frozen=True)
class Workload:
    name: str
    driver: Callable[[ScenarioConfig], Report]
    overrides: dict = field(default_factory=dict)

    def config(self, seed: int) -> ScenarioConfig:
        return replace(SeededInput.from_seed(seed).config(seed), **self.overrides)


# Why each workload: see README.md (layer map).  Each is a scaled-down
# scenario (one driver call takes about 1 s) with the same layer mix as the
# full-size one, so that a run holds enough repetitions, each followed by a
# calibration sample, to follow a machine whose speed drifts.
WORKLOADS = {
    w.name: w
    for w in (
        # cutoffs 2/3/4 at 1/10 of the default steps: 4 800 midpoint steps
        Workload("heisenberg-cutoff-scan", run_heisenberg_gauge, {"n_steps": 800}),
        # both subsets, all 8 values of f, 20 steps each: 320 Fock steps
        Workload("fock-energy-scan", run_schrodinger_gauge_scan, {"n_steps": 20}),
        # the first tenth of the d = 3 baseline at the full-size step: 21 frames
        Workload("d3-field-sampling", run_free_baseline, {"d": 3, "n_max": 1, "n_steps": 20, "t_final": 0.1}),
    )
}

# The d = 3 baseline with 40x fewer steps: propagate's step-norm guard must
# trip, and the benchmark must count that as one failed run.
NEGATIVE_CONTROL = Workload("negative-control", run_free_baseline, {"d": 3, "n_max": 1, "n_steps": 5})
