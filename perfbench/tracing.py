"""Span recorder and the wrappers that time calls into each diracbox layer.

Spans are recorded from the benchmark's side: for one traced repetition the
public entry points of each module are rebound to timing wrappers, in the
defining module and in every module that imported them by name
(``experiments`` does ``from .onebody import propagate``), and restored
afterwards.  Spans stay in memory until the benchmark writes them out.

A span's self time is its duration minus that of its child spans, so the
self times of one repetition add up to its root spans' duration.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

from diracbox import experiments, fock, gaussian, modes, observables, onebody


class Recorder:
    """In-memory spans [name, start, end, parent index, run id] and counters."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.run_id])
        self._open.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int = 1):
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: int):
        self.maxima[name] = max(self.maxima.get(name, 0), int(value))

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        children = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                children[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _, _), child in zip(self.spans, children):
            out[name] = out.get(name, 0.0) + (end - start) - child
        return out

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for name, *_ in self.spans:
            out[name] = out.get(name, 0) + 1
        return out

    def inclusive(self, name: str) -> float:
        """Duration of the `name` spans not nested inside another `name` span."""
        total = 0.0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent >= 0 and self.spans[parent][0] != name:
                parent = self.spans[parent][3]
            if parent < 0:
                total += span[2] - span[1]
        return total


def _arg(args, kwargs, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _timed(rec: Recorder, name: str, fn, after=None):
    """Wrap fn in a span; `after(args, kwargs, result)` updates counters."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if after is not None:
            after(args, kwargs, out)
        return out

    return wrapper


def _rebind(original, replacement, patches: list):
    """Point every name in a loaded diracbox module bound to `original` at `replacement`."""
    for modname, module in list(sys.modules.items()):
        if modname != "diracbox" and not modname.startswith("diracbox."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                patches.append((module, attr, original))
                setattr(module, attr, replacement)


def _wrapped_factory(rec: Recorder, name: str, factory):
    """The factory's returned per-step callable is timed as `name`."""

    @functools.wraps(factory)
    def build(*args, **kwargs):
        return _timed(rec, name, factory(*args, **kwargs))

    return build


@contextmanager
def instrument(rec: Recorder):
    """Rebind the layer entry points to timing wrappers for the block's length."""

    def propagate_done(args, kwargs, out):
        rec.count("onebody.steps", _arg(args, kwargs, 2, "n_steps"))
        rec.maximum("onebody.m_max", out.matrices.shape[-1])

    def evolve_done(args, kwargs, out):
        rec.count("fock.steps", _arg(args, kwargs, 3, "n_steps"))
        rec.maximum("fock.dim_max", _arg(args, kwargs, 0, "state").basis.dim)

    def expm_done(args, kwargs, out):
        rec.maximum("fock.h_nnz_max", _arg(args, kwargs, 0, "A").nnz)

    def series_done(args, kwargs, out):
        rec.count("observables.frames", len(out.times))
        rec.maximum("observables.points", out.spatial.n_points)

    spans = [
        ("modes.catalog", modes.build_catalog, None),
        ("modes.catalog", modes.restrict_catalog, None),
        ("onebody.propagate", onebody.propagate, propagate_done),
        ("onebody.coupling", onebody._coupling_matrix, None),
        ("onebody.gauge_phase", onebody.gauge_phase, None),
        ("fock.ladders", fock.build_ladders, None),
        ("fock.quantize", fock.quantize, None),
        ("fock.evolve", fock.evolve_schrodinger, evolve_done),
        ("fock.expm", fock.expm_multiply, expm_done),
        ("fock.readout", fock.correlation_from_state, None),
        ("fock.readout", fock.expectation, None),
        ("gaussian.evolve", gaussian.evolve_correlation, None),
        ("gaussian.bilinear", gaussian.bilinear_expectation, None),
        ("observables.field_series", observables.field_series, series_done),
        ("observables.density", observables.charge_density, None),
        ("observables.density", observables.current_density, None),
        ("observables.fourier", observables.field_fourier, None),
        ("observables.fourier", observables.spectral_divergence, None),
        ("observables.fourier", observables.continuity_residual, None),
        ("observables.energy", observables.free_energy_schrodinger, None),
        ("observables.energy", observables.free_energy_heisenberg, None),
        ("observables.oracle", observables.drho_dt_oracle, None),
        ("observables.oracle", observables.div_current_oracle, None),
    ]
    factories = [
        ("onebody.ham_build", experiments._onebody_hamiltonian),
        ("fock.ham_build", experiments._manybody_hamiltonian),
    ]

    # constructor validations; each runs as fn(self, original __post_init__)
    def count_onebody(self, original):
        rec.count("onebody.operator_checks")
        original(self)

    def count_manybody(self, original):
        rec.count("fock.operator_checks")
        original(self)

    def time_correlation(self, original):
        with rec.span("gaussian.validate"):
            original(self)

    validations = [
        (onebody.OneBodyOperator, count_onebody),
        (fock.ManyBodyOperator, count_manybody),
        (gaussian.CorrelationMatrix, time_correlation),
    ]

    patches: list = []
    try:
        for name, fn, after in spans:
            _rebind(fn, _timed(rec, name, fn, after), patches)
        for name, factory in factories:
            _rebind(factory, _wrapped_factory(rec, name, factory), patches)
        for cls, fn in validations:
            original = cls.__post_init__
            patches.append((cls, "__post_init__", original))
            cls.__post_init__ = functools.partialmethod(fn, original)
        yield rec
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced repetition (the `_s` ones are self times)."""
    selfs = rec.self_times()
    calls = rec.calls()
    counts = rec.counts
    maxima = rec.maxima
    ob_steps = counts.get("onebody.steps", 0)
    fk_steps = counts.get("fock.steps", 0)

    def per_step_us(span: str, steps: int) -> float:
        return rec.inclusive(span) / steps * 1e6 if steps else 0.0

    return {
        "modes.catalog_s": selfs.get("modes.catalog", 0.0),
        "modes.catalogs": calls.get("modes.catalog", 0),
        "onebody.propagate_self_s": selfs.get("onebody.propagate", 0.0),
        "onebody.ham_build_s": selfs.get("onebody.ham_build", 0.0),
        "onebody.steps": ob_steps,
        "onebody.step_us": per_step_us("onebody.propagate", ob_steps),
        "onebody.m_max": maxima.get("onebody.m_max", 0),
        "onebody.operator_checks": counts.get("onebody.operator_checks", 0),
        "onebody.coupling_s": selfs.get("onebody.coupling", 0.0),
        "onebody.gauge_phase_s": selfs.get("onebody.gauge_phase", 0.0),
        "fock.ladders_s": selfs.get("fock.ladders", 0.0),
        "fock.quantize_s": selfs.get("fock.quantize", 0.0),
        "fock.quantize_calls": calls.get("fock.quantize", 0),
        "fock.evolve_self_s": selfs.get("fock.evolve", 0.0),
        "fock.ham_build_s": selfs.get("fock.ham_build", 0.0),
        "fock.expm_s": selfs.get("fock.expm", 0.0),
        "fock.expm_calls": calls.get("fock.expm", 0),
        "fock.steps": fk_steps,
        "fock.step_us": per_step_us("fock.evolve", fk_steps),
        "fock.dim_max": maxima.get("fock.dim_max", 0),
        "fock.h_nnz_max": maxima.get("fock.h_nnz_max", 0),
        "fock.operator_checks": counts.get("fock.operator_checks", 0),
        "fock.readout_s": selfs.get("fock.readout", 0.0),
        "gaussian.evolve_s": selfs.get("gaussian.evolve", 0.0),
        "gaussian.evolve_calls": calls.get("gaussian.evolve", 0),
        "gaussian.validate_s": selfs.get("gaussian.validate", 0.0),
        "gaussian.correlation_checks": calls.get("gaussian.validate", 0),
        "gaussian.bilinear_s": selfs.get("gaussian.bilinear", 0.0),
        "observables.field_series_self_s": selfs.get("observables.field_series", 0.0),
        "observables.density_s": selfs.get("observables.density", 0.0),
        "observables.frames": counts.get("observables.frames", 0),
        "observables.points": maxima.get("observables.points", 0),
        "observables.fourier_s": selfs.get("observables.fourier", 0.0),
        "observables.energy_s": selfs.get("observables.energy", 0.0),
        "observables.oracle_s": selfs.get("observables.oracle", 0.0),
        "experiments.self_s": selfs.get("experiments", 0.0),
        "cli.write_s": selfs.get("cli.write", 0.0),
        "trace.spans": len(rec.spans),
    }


def unit(metric: str) -> str:
    for suffix, name in (("_s", "s"), ("_us", "us"), ("_bytes", "bytes")):
        if metric.endswith(suffix):
            return name
    return "count"
