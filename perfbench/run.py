#!/usr/bin/env python3
"""diracbox benchmark: one scenario workload per invocation, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; the program is imported from ./src.  The
seed picks the workload's input.  The workload repeats for about S seconds
(at least twice).  With --trace 0 the last line of stdout is a JSON object
with the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a traced run.  Times are scaled to a reference machine speed measured
between repetitions (see calibration.py).  A run record
(machine facts, input, every repetition, the calibration samples) and, for
traced runs, the spans are written under .bench_out/.  Workloads and the
layer map are described in README.md next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# BLAS/OpenMP threads are pinned to 1 before numpy loads.  With 2 threads on
# a 2-core machine wall time did not improve while CPU time rose 1.6-2x, so
# one thread is as fast and steadier; a parallel change still shows as
# wall_s falling against cpu_s.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_PROBES = 11


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def load_program():
    """Put the checkout's src/ first on sys.path; exit if the program is absent."""
    if not (SRC / "diracbox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no diracbox package under {SRC}")
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser, parser.parse_args(argv)


def main(argv=None) -> int:
    parser, args = _parse(argv)
    pin_threads()
    load_program()
    import harness
    import machine
    from calibration import Calibration
    from workloads import WORKLOADS, SeededInput

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "input": SeededInput.from_seed(args.seed).describe(),
        "trace": args.trace,
        "seconds": args.seconds,
        "machine": machine.facts(THREAD_VARS),
        "loadavg_before": machine.loadavg(),
    }
    print(f"perfbench {workload.name}  seed {args.seed}  input {record['input']}  trace {args.trace}")
    m = record["machine"]
    print(
        f"machine   nproc {m['nproc']}  {m['cpu_model']}  caches {m['caches']}  "
        f"python {m['python']}  numpy {m['numpy']}  scipy {m['scipy']}  blas {m['blas']}  "
        f"threads {m['thread_env']['OMP_NUM_THREADS']}"
    )

    setup_cal, cal = Calibration(), Calibration()
    setup = [] if args.trace else harness.measure_setup(workload.name, args.seed, SETUP_PROBES, SRC, setup_cal)
    run = harness.run_workload(workload, args.seed, args.seconds, bool(args.trace), OUT_DIR, cal)
    reps = run.reps
    record["loadavg_after"] = machine.loadavg()

    problems = []
    if args.trace:
        metrics, problems = harness.per_layer(reps, cal)
        spans_path = OUT_DIR / f"{workload.name}-seed{args.seed}-spans.json"
        spans = [s for r in reps if r.recorder is not None for s in r.recorder.spans]
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run_id"], "spans": spans}))
        record["spans_file"] = spans_path.name
    else:
        metrics = harness.end_to_end(run, cal, setup, setup_cal)
        record["setup_samples_s"] = setup
    failed = sum(r.failed for r in reps)
    correct = failed == 0 and not problems
    record.update(
        reps=[r.summary() for r in reps],
        peak_rss_mb=run.peak_rss_mb,
        calibration={"wall_s": cal.walls, "cpu_s": cal.cpus, "wall_scale": cal.wall_scale()},
        setup_calibration={"wall_s": setup_cal.walls, "cpu_s": setup_cal.cpus},
        metrics={k: v for k, (v, _) in metrics.items()},
        problems=problems,
        correct=correct,
    )
    record_path = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1))

    for i, rep in enumerate(reps):
        kind = "traced" if rep.recorder is not None else "plain"
        print(f"rep {i}  {kind:6s}  wall {rep.wall_s:.4f} s  cpu {rep.cpu_s:.4f} s  {rep.reason or 'pass'}")
    if not args.trace:
        # raw times; the highest percentile with at least ten repetitions beyond it
        walls = sorted(r.wall_s for r in reps)
        n = len(walls)
        high = f"p{100 * (n - 10) // n} {walls[n - 11]:.4f} s" if n > 10 else f"max {walls[-1]:.4f} s"
        print(f"raw wall  median {statistics.median(walls):.4f} s  {high}  (n={n})")
        print(f"setup_s   raw samples {', '.join(f'{s:.4f}' for s in setup)}")
    print(
        f"calibration  mean {statistics.fmean(cal.walls):.5f} s over {len(cal.walls)} samples  "
        f"scale {cal.wall_scale():.4f}"
    )
    for problem in problems:
        print(f"problem   {problem}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:>14.6g} {unit}")
    print(f"fail_ratio {failed}/{len(reps)} = {failed / len(reps):g}")
    print(f"record    {record_path.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(reps),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
