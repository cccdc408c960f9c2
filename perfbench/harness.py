"""Closed-loop repetitions of one workload, and the metrics made from them.

One caller, one process: each repetition calls the scenario driver, waits for
its Report, then writes the outputs with ``cli.write_outputs`` into a fresh
directory, exactly as ``diracbox <scenario>`` does.  A repetition fails when
it raises, when any Check in its report fails, or when its CSV+JSON bytes
differ from an earlier repetition's (same config and seed must reproduce the
same files).

The calibration kernel (calibration.py) runs once before the first
repetition and after every repetition, and after every setup probe.  Every
reported time is scaled to the kernel's reference speed by the kernel
samples of its own phase: repetition times are means over the run, to match
the kernel's mean (see calibration.py), and setup time is the median of its
probes.  The raw times are printed and recorded too.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import tracing
from calibration import Calibration
from diracbox.cli import write_outputs
from workloads import Workload

MIN_REPS = 2  # byte identity needs a second run of the same input
SELF_TIME_TOLERANCE = 0.01  # share of the traced wall time

# A fresh interpreter imports the program and builds the workload's input,
# then prints the clock: the moment its first driver call could start.
_PROBE = (
    "import sys, time; sys.path[:0] = [{src!r}, {bench!r}]; import workloads; "
    "workloads.WORKLOADS[{name!r}].config({seed}); print(time.monotonic())"
)


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    error: str | None
    failed_checks: list[str]
    outputs: bytes | None
    recorder: tracing.Recorder | None = None
    identical: bool = True

    @property
    def failed(self) -> bool:
        return self.reason is not None

    @property
    def reason(self) -> str | None:
        """Why the repetition failed, in one line; None when it passed."""
        if self.error is not None:
            return self.error.strip().splitlines()[-1]
        if self.failed_checks:
            return f"failed checks: {', '.join(self.failed_checks)}"
        if not self.identical:
            return "output bytes differ from an earlier repetition"
        return None

    def summary(self) -> dict:
        return {
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "traced": self.recorder is not None,
            "failure": self.reason,
            "error": self.error,
            "output_bytes": len(self.outputs) if self.outputs is not None else None,
        }


def run_rep(workload: Workload, cfg, out_dir: Path, rec: tracing.Recorder | None = None) -> Rep:
    """One driver call plus write_outputs, timed; traced when `rec` is given."""
    def span(name):
        return rec.span(name) if rec is not None else nullcontext()

    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        with tracing.instrument(rec) if rec is not None else nullcontext():
            report, paths, error = None, (), None
            c0, t0 = time.process_time(), time.perf_counter()
            try:
                with span("experiments"):
                    report = workload.driver(cfg)
                with span("cli.write"):
                    paths = write_outputs(report, tmp)
            except Exception:  # a raising run is counted as failed; the loop goes on
                error = traceback.format_exc()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outputs = b"".join(Path(p).read_bytes() for p in paths) if paths else None
    failed_checks = [c.name for c in report.checks if not c.passed] if report else []
    return Rep(wall, cpu, error, failed_checks, outputs, rec)


@dataclass
class Run:
    reps: list[Rep]
    # peak RSS after the first repetition: one driver call, as the CLI makes
    # it; later repetitions only add allocator fragmentation that varies
    peak_rss_mb: float


def run_workload(
    workload: Workload, seed: int, seconds: float, traced: bool, out_dir: Path, cal: Calibration
) -> Run:
    """Repeat until another repetition would overrun `seconds`, at least MIN_REPS times.

    In a traced run untraced and traced repetitions alternate, starting
    with an untraced one: the untraced ones are the reference for the output
    bytes and for the tracing overhead.
    """
    cfg = workload.config(seed)
    reps: list[Rep] = []
    cal.sample()
    start = time.perf_counter()
    while True:
        rec = tracing.Recorder(run_id=len(reps)) if traced and len(reps) % 2 else None
        rep = run_rep(workload, cfg, out_dir, rec)
        cal.sample()
        reference = next((r.outputs for r in reps if r.outputs is not None), None)
        if reference is not None and rep.outputs is not None:
            rep.identical = rep.outputs == reference
        reps.append(rep)
        if len(reps) == 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if len(reps) >= MIN_REPS and time.perf_counter() - start + rep.wall_s > seconds:
            return Run(reps, peak_rss_mb)


def measure_setup(name: str, seed: int, probes: int, src: Path, cal: Calibration) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first driver call, per probe."""
    code = _PROBE.format(src=str(src), bench=str(Path(__file__).resolve().parent), name=name, seed=seed)
    samples = []
    for _ in range(probes):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120
        )
        samples.append(float(proc.stdout.split()[-1]) - t0)
        cal.sample()
    return samples


def end_to_end(
    run: Run, cal: Calibration, setup: list[float], setup_cal: Calibration
) -> dict[str, tuple[float, str]]:
    """Times scaled to the reference speed, each by the calibration of its phase.

    A kernel sample right after a setup probe runs slower than one between
    repetitions, so the two phases are calibrated apart.
    """
    wall, cpu = cal.wall_scale(), cal.cpu_scale()
    return {
        "wall_s": (statistics.fmean(r.wall_s for r in run.reps) * wall, "s"),
        "cpu_s": (statistics.fmean(r.cpu_s for r in run.reps) * cpu, "s"),
        "peak_rss_mb": (run.peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup) * setup_cal.wall_scale(), "s"),
    }


def per_layer(reps: list[Rep], cal: Calibration) -> tuple[dict[str, tuple[float, str]], list[str]]:
    """Per-layer metrics over the traced repetitions, and any consistency problems.

    Times are means over the traced repetitions, scaled to the
    calibration's reference speed; counts must repeat exactly across
    repetitions.  The self times of a repetition must add up to its wall
    time within SELF_TIME_TOLERANCE, or some time went unaccounted.
    """
    traced = [r for r in reps if r.recorder is not None]
    plain = [r for r in reps if r.recorder is None]
    rows = [tracing.layer_metrics(r.recorder) for r in traced]
    problems = []
    for rep in traced:
        total = sum(rep.recorder.self_times().values())
        if abs(total - rep.wall_s) > SELF_TIME_TOLERANCE * rep.wall_s:
            problems.append(
                f"repetition {rep.recorder.run_id}: self times sum to {total:.6f} s, "
                f"wall {rep.wall_s:.6f} s"
            )
    scale = cal.wall_scale()
    metrics = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        unit = tracing.unit(key)
        if unit == "count" and len(set(values)) > 1:
            problems.append(f"count {key} differs between repetitions: {values}")
        metrics[key] = (values[0] if unit == "count" else statistics.fmean(values) * scale, unit)
    metrics["cli.output_bytes"] = (len(traced[0].outputs or b""), "bytes")
    overhead = statistics.fmean(r.wall_s for r in traced) - statistics.fmean(r.wall_s for r in plain)
    metrics["trace.overhead_s"] = (overhead * scale, "s")
    return metrics, problems
