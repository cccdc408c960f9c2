"""The benchmark's traced route computes what a plain run computes.

For a traced repetition `perfbench/tracing.py` rebinds diracbox entry points
by name to timing wrappers and counts operator constructions through the
operators' `__post_init__`.  A refactor that renames or inlines one of those
names, or a traced run that steps another route than the plain one (and so
builds other operators), changes what a traced run computes or counts; these
cheap runs catch it without the benchmark's own self-test.
"""

import functools
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
from diracbox.fock import ManyBodyOperator
from diracbox.onebody import OneBodyOperator

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

RUNS = {
    "equivalence": (run_picture_equivalence, ScenarioConfig(n_drives=1, n_steps=20)),
    "baseline-both": (run_free_baseline, ScenarioConfig(backend="both", n_steps=50)),
    "gauge-heisenberg": (run_heisenberg_gauge, ScenarioConfig(cutoffs=(2,), n_steps=200)),
    "gauge-schrodinger": (run_schrodinger_gauge_scan, ScenarioConfig(n_steps=20)),
    "energy-heisenberg": (run_heisenberg_energy_scan, ScenarioConfig(n_steps=400)),
}
# the operator types whose constructions a traced run counts, by the counter's name
COUNTED = {"onebody.operator_checks": OneBodyOperator, "fock.operator_checks": ManyBodyOperator}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counted_run(driver, cfg):
    """The driver's report and the operators of each `COUNTED` type it built."""
    built = dict.fromkeys(COUNTED, 0)
    originals = {name: cls.__post_init__ for name, cls in COUNTED.items()}

    def counting(name):
        def post_init(self):
            built[name] += 1
            originals[name](self)

        return post_init

    try:
        for name, cls in COUNTED.items():
            cls.__post_init__ = counting(name)
        report = driver(cfg)
    finally:
        for name, cls in COUNTED.items():
            cls.__post_init__ = originals[name]
    return report, built


@functools.cache
def plain_and_traced(run_id):
    """(plain report, its operator counts, traced report, the traced run's recorder), run once per id."""
    driver, cfg = RUNS[run_id]
    plain, built = counted_run(driver, cfg)
    tracing = load_tracing()
    rec = tracing.Recorder(0)
    with tracing.instrument(rec):
        traced = driver(cfg)
    return plain, built, traced, rec


@pytest.mark.parametrize("run_id", list(RUNS))
def test_traced_run_writes_the_plain_run_outputs(run_id):
    plain, _, traced, rec = plain_and_traced(run_id)
    assert rec.spans, "the traced run recorded no spans"
    assert traced.to_json() == plain.to_json()
    assert traced.series_csv() == plain.series_csv()


@pytest.mark.parametrize("run_id", list(RUNS))
def test_traced_run_builds_the_plain_run_operators(run_id):
    """One route: a traced run steps the family a plain run steps, and builds no more operators."""
    _, built, _, rec = plain_and_traced(run_id)
    assert {name: rec.counts.get(name, 0) for name in COUNTED} == built
