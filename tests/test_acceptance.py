"""Acceptance gate: one test (one pass/fail line under `pytest -v`) per criterion.

Run as `pytest tests/test_acceptance.py -v`; add `-s` to see the per-criterion
summary lines with measured values.  Every tolerance here is a release gate,
not a unit-test convenience bound.
"""

import time

import numpy as np
import pytest

from diracbox.cli import write_outputs
from diracbox.experiments import (
    ScenarioConfig,
    run_free_baseline,
    run_heisenberg_energy_scan,
    run_heisenberg_gauge,
    run_picture_equivalence,
    run_schrodinger_gauge_scan,
)
from diracbox.fock import (
    build_ladders,
    car_residual,
    commutator_identity_check,
    h0_spectrum_check,
)
from diracbox.modes import build_catalog, restrict_catalog
from diracbox.onebody import OneBodyOperator


def report_line(num, name, ok, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


def checks_by_name(report):
    return {c.name: c for c in report.checks}


@pytest.fixture(scope="module")
def physical_catalog_m12():
    cfg = ScenarioConfig()
    return build_catalog(cfg.grid(1), cfg.m)


@pytest.fixture(scope="module")
def equivalence_report():
    # M = 8 momentum subset, 5 random band-limited drives, 200 steps (defaults);
    # shared by criteria 4 and 9, so the wall-clock is measured here
    start = time.perf_counter()
    report = run_picture_equivalence(ScenarioConfig())
    return report, time.perf_counter() - start


def test_criterion_01_car_anticommutators(physical_catalog_m12):
    start = time.perf_counter()
    residual = car_residual(build_ladders(physical_catalog_m12.size))
    elapsed = time.perf_counter() - start
    ok = residual <= 1e-12 and elapsed < 10.0
    report_line(1, "car-anticommutators-m12", ok, f"residual {residual:.3e} in {elapsed:.1f}s")
    assert residual <= 1e-12
    assert elapsed < 10.0


def test_criterion_02_vacuum_spectrum(physical_catalog_m12):
    start = time.perf_counter()
    catalog = restrict_catalog(physical_catalog_m12, [0, 1])  # M = 8 <= 10
    facts = h0_spectrum_check(catalog)
    elapsed = time.perf_counter() - start
    ok = (
        facts["sea_energy_deviation"] <= 1e-10
        and facts["off_diagonal_weight"] <= 1e-12
        and facts["min_is_vacuum"] == 1.0
        and facts["gap"] > 0.0
        and elapsed < 30.0
    )
    report_line(
        2,
        "vacuum-spectrum-m8",
        ok,
        f"min dev {facts['sea_energy_deviation']:.3e}, gap {facts['gap']:.6f}, {elapsed:.1f}s",
    )
    assert facts["sea_energy_deviation"] <= 1e-10
    assert facts["off_diagonal_weight"] <= 1e-12  # spectrum read off exactly
    assert facts["min_is_vacuum"] == 1.0
    assert facts["gap"] > 0.0  # every other eigenvalue strictly larger
    assert elapsed < 30.0


def test_criterion_03_commutator_identity():
    rng = np.random.default_rng(7)
    ladders = build_ladders(6)
    worst = 0.0
    for _ in range(20):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        worst = max(worst, commutator_identity_check(OneBodyOperator((raw + raw.conj().T) / 2), ladders))
    ok = worst <= 1e-12
    report_line(3, "commutator-identity-m6", ok, f"max residual {worst:.3e} over 20 draws")
    assert worst <= 1e-12


def test_criterion_04_picture_equivalence(equivalence_report):
    rep, elapsed = equivalence_report
    dev = rep.metrics["max_deviation"]
    ratio = rep.metrics["step_doubling_ratio"]
    ok = dev <= 1e-8 and ratio >= 3.5 and elapsed < 120.0
    report_line(
        4,
        "picture-equivalence-m8",
        ok,
        f"max deviation {dev:.3e}, doubling ratio {ratio:.2f}, {elapsed:.1f}s",
    )
    assert dev <= 1e-8
    assert ratio >= 3.5
    assert elapsed < 120.0


def test_criterion_05_free_evolution_oracles():
    rep = run_free_baseline(ScenarioConfig(backend="both"))
    worst_oracle = max(
        rep.metrics[f"{be}_{kind}"]
        for be in ("gaussian", "fock")
        for kind in ("drho_dt_rel_err", "divj_rel_err")
    )
    worst_cont = max(rep.metrics[f"{be}_continuity_residual"] for be in ("gaussian", "fock"))
    opposition = max(rep.metrics[f"{be}_oracle_opposition"] for be in ("gaussian", "fock"))
    ok = worst_oracle <= 1e-6 and worst_cont <= 1e-8 and opposition <= 1e-10 and rep.passed
    report_line(
        5,
        "free-evolution-oracles",
        ok,
        f"oracle rel {worst_oracle:.3e}, continuity {worst_cont:.3e}, opposition {opposition:.3e}",
    )
    assert worst_oracle <= 1e-6
    assert worst_cont <= 1e-8
    assert opposition <= 1e-10
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_criterion_06_heisenberg_gauge_invariance():
    rep = run_heisenberg_gauge(ScenarioConfig())  # cutoffs (2, 3, 4)
    rho = [rep.metrics[f"n{n}_rho_dev"] for n in (2, 3, 4)]
    j = [rep.metrics[f"n{n}_j_dev"] for n in (2, 3, 4)]
    ok = (
        max(rho + j) <= 1e-6
        and all(a > b for a, b in zip(rho, rho[1:]))
        and all(a > b for a, b in zip(j, j[1:]))
    )
    report_line(
        6,
        "heisenberg-gauge-invariance",
        ok,
        f"rho {rho[0]:.2e}>{rho[1]:.2e}>{rho[2]:.2e}, j {j[0]:.2e}>{j[1]:.2e}>{j[2]:.2e}",
    )
    assert max(rho + j) <= 1e-6
    assert all(a > b for a, b in zip(rho, rho[1:]))
    assert all(a > b for a, b in zip(j, j[1:]))
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_criterion_07_heisenberg_energy_identity():
    rep = run_heisenberg_energy_scan(ScenarioConfig())
    by_name = checks_by_name(rep)
    slope_err = by_name["slope_rel_err"].value
    intercept_err = by_name["intercept_rel_err"].value
    ok = slope_err <= 0.02 and intercept_err <= 0.01
    report_line(
        7,
        "heisenberg-energy-identity",
        ok,
        f"slope rel err {slope_err:.3e} (<=2%), intercept rel err {intercept_err:.3e} (<=1%)",
    )
    assert slope_err <= 0.02
    assert intercept_err <= 0.01
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_criterion_08_schrodinger_gauge_scan():
    cfg = ScenarioConfig()
    rep = run_schrodinger_gauge_scan(cfg)
    by_name = checks_by_name(rep)
    small_f = sorted(f for f in cfg.f_list if f > 0)[:3]
    tags = [f"M{4 * len(subset)}" for subset in cfg.scan_subsets]  # M8, M12
    worst_linear = max(by_name[f"{tag}_linear_f{f}"].value for tag in tags for f in small_f)
    worst_bound = min(
        by_name[f"{tag}_bound_f{f}"].value for tag in tags for f in cfg.f_list
    )
    f_stars = [rep.metrics[f"{tag}_f_star"] for tag in tags]
    as_inf = [float("inf") if v is None else v for v in f_stars]
    nondecreasing = all(a <= b for a, b in zip(as_inf, as_inf[1:]))
    ok = worst_linear <= 0.05 and worst_bound >= -1e-9 and nondecreasing
    report_line(
        8,
        "schrodinger-gauge-scan",
        ok,
        f"linear dev {worst_linear:.3e} (<=5%), bound margin {worst_bound:.3e}, f* {f_stars}",
    )
    assert worst_linear <= 0.05
    assert worst_bound >= -1e-9
    assert nondecreasing
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


def test_criterion_09_backend_equivalence(equivalence_report):
    # five shared scenarios (zero drive + 4 random drives) at M = 8, identical
    # time grid: the Fock and Gaussian backends must agree on every observable
    rep, _ = equivalence_report
    matched = rep.metrics["max_matched_deviation"]
    zero = rep.metrics["zero_drive_deviation"]
    worst = max(matched, zero)
    ok = worst <= 1e-8
    report_line(9, "backend-equivalence-m8", ok, f"max observable disagreement {worst:.3e}")
    assert worst <= 1e-8


def test_criterion_10_byte_identical_reruns(tmp_path):
    cfg = ScenarioConfig(backend="gaussian")
    first, _ = write_outputs(run_free_baseline(cfg), tmp_path / "a")
    second, _ = write_outputs(run_free_baseline(cfg), tmp_path / "b")
    b1, b2 = first.read_bytes(), second.read_bytes()
    ok = b1 == b2
    report_line(10, "byte-identical-reruns", ok, f"{len(b1)} CSV bytes compared")
    assert b1 == b2
