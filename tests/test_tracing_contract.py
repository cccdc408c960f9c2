"""The benchmark's traced route writes the same outputs as a plain run.

`perfbench/tracing.py` rebinds diracbox entry points by name (and wraps the
Hamiltonian factories in plain callables) for a traced repetition.  A
refactor that renames or inlines one of those names, or breaks a stepper's
per-step callable route, changes what a traced run computes; these cheap
runs catch it without the benchmark's own self-test.
"""

import importlib.util
from pathlib import Path

import pytest

from diracbox.experiments import (
    ScenarioConfig,
    run_free_baseline,
    run_heisenberg_energy_scan,
    run_heisenberg_gauge,
    run_picture_equivalence,
    run_schrodinger_gauge_scan,
)

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "driver, cfg",
    [
        (run_picture_equivalence, ScenarioConfig(n_drives=1, n_steps=20)),
        (run_free_baseline, ScenarioConfig(backend="both", n_steps=50)),
        (run_heisenberg_gauge, ScenarioConfig(cutoffs=(2,), n_steps=200)),
        (run_schrodinger_gauge_scan, ScenarioConfig(n_steps=20)),
        (run_heisenberg_energy_scan, ScenarioConfig(n_steps=400)),
    ],
    ids=["equivalence", "baseline-both", "gauge-heisenberg", "gauge-schrodinger", "energy-heisenberg"],
)
def test_traced_run_writes_the_plain_run_outputs(driver, cfg):
    tracing = load_tracing()
    plain = driver(cfg)
    rec = tracing.Recorder(0)
    with tracing.instrument(rec):
        traced = driver(cfg)
    assert rec.spans, "the traced run recorded no spans"
    assert traced.to_json() == plain.to_json()
    assert traced.series_csv() == plain.series_csv()
