#!/usr/bin/env python3
"""Self-tests of the benchmark; exits 0 when every one passes.

    python3 perfbench/selftest.py        # from the repository root, ~15 s

- The negative control (the d = 3 baseline with 5 steps) trips the
  step-norm guard; it counts as one failed run and the benchmark goes on.
- For every workload, a traced repetition writes the same bytes as an
  untraced one, its self times add up to its wall time within 1%, and its
  work counts are those the workload is defined by.
- BENCHMARK.json names exactly these workloads and metrics.
- Without the program next to it, run.py exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import BENCH_DIR, OUT_DIR, ROOT, load_program, pin_threads

# Seed 3 is the input (spin -1/2, mode 2 at n = -1) furthest from the
# scenario defaults.
SEED = 3
EXPECTED_COUNTS = {
    "heisenberg-cutoff-scan": {"onebody.steps": 4800, "fock.steps": 0},
    "fock-energy-scan": {"fock.steps": 320, "onebody.steps": 0},
    "d3-field-sampling": {"observables.frames": 21, "observables.points": 125, "fock.steps": 0},
}
END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def main() -> int:
    pin_threads()
    load_program()
    import harness
    from calibration import Calibration
    from workloads import NEGATIVE_CONTROL, WORKLOADS

    failures = []

    def expect(ok: bool, what: str):
        print(f"{'ok  ' if ok else 'FAIL'}  {what}")
        if not ok:
            failures.append(what)

    control = harness.run_rep(NEGATIVE_CONTROL, NEGATIVE_CONTROL.config(SEED), OUT_DIR)
    expect(control.failed, "negative control counts as a failed run")
    expect("step too coarse" in (control.error or ""), "negative control tripped the step-norm guard")
    attempted = [control]

    layer_units = {}
    for name, workload in WORKLOADS.items():
        cal = Calibration()
        reps = harness.run_workload(workload, SEED, 0, True, OUT_DIR, cal).reps
        attempted += reps
        plain, traced = reps
        expect(plain.recorder is None and traced.recorder is not None, f"{name}: untraced then traced")
        expect(not plain.failed and not traced.failed, f"{name}: both repetitions pass their checks")
        expect(
            plain.outputs is not None and plain.outputs == traced.outputs,
            f"{name}: traced output bytes equal untraced",
        )
        metrics, problems = harness.per_layer(reps, cal)
        expect(not problems, f"{name}: self times add up to the traced wall time ({problems})")
        for key, want in EXPECTED_COUNTS[name].items():
            expect(metrics[key][0] == want, f"{name}: {key} = {metrics[key][0]} (want {want})")
        layer_units = {k: unit for k, (_, unit) in metrics.items()}
    failed = sum(r.failed for r in attempted)
    expect(failed == 1, f"fail_ratio counts the control alone: {failed}/{len(attempted)}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS), "BENCHMARK.json workloads")
    expect(
        {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END,
        "BENCHMARK.json end_to_end metrics",
    )
    expect(
        {m["name"]: m["unit"] for m in spec["per_layer"]} == layer_units,
        "BENCHMARK.json per_layer metrics",
    )

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / BENCH_DIR.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "d3-field-sampling",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120,
    )
    shutil.rmtree(bare)
    expect(proc.returncode != 0 and not proc.stdout, "without the program run.py fails and prints no result")

    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
