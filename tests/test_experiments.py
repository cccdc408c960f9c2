"""Scenario drivers: report plumbing, unit facts, and cheap end-to-end smokes."""

import json

import numpy as np
import pytest

from dense_oracles import chi_matrix, gauge_identity_residual
from diracbox import experiments, onebody
from diracbox.experiments import (
    SCENARIOS,
    Check,
    Report,
    ScenarioConfig,
    _default_chi,
    _evolved_series,
    _final_panel,
    _gauge_relation,
    _omega0,
    _pure_gauge,
    _subset_catalog,
    _unit_gauge_blocks,
    check_leq,
    check_monotone,
    config_dict,
    profile_square_integral,
    random_drive,
    run_free_baseline,
    run_heisenberg_energy_scan,
    run_heisenberg_gauge,
    run_picture_equivalence,
    run_schrodinger_gauge_scan,
    scan_profile,
)
from diracbox import fock
from diracbox.fock import (
    ManyBodyOperator,
    correlation_from_state,
    evolve_schrodinger,
    expectation,
    omega0_state,
    quantize,
)
from diracbox.gaussian import (
    bilinear_expectation,
    excitation_correlation,
    omega0_correlation,
    vacuum_correlation,
)
from diracbox.modes import ALPHA
from diracbox.observables import SpatialGrid, current_matrix, density_matrix, free_energy_heisenberg
from diracbox.onebody import (
    DrivenHamiltonian,
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    Scaled,
    gauge_phase,
    h0_matrix,
    interaction_term_matrices,
    propagate,
)


# ---------------------------------------------------------------------------
# report / check plumbing


def test_check_helpers():
    assert check_leq("a", 1e-9, 1e-6).passed
    assert not check_leq("a", 1e-3, 1e-6).passed
    good = check_monotone("dec", [3.0, 2.0, 1.0], decreasing=True)
    assert good.passed
    flat = check_monotone("dec", [3.0, 3.0, 1.0], decreasing=True)
    assert not flat.passed
    assert check_monotone("flat_ok", [3.0, 3.0, 1.0], decreasing=True, strict=False).passed
    # None entries are treated as +inf, which a nondecreasing chain tolerates
    assert check_monotone("nondec", [1.0, None, None], decreasing=False, strict=False).passed


def test_report_json_and_csv_shape():
    cfg = ScenarioConfig(seed=9)
    rep = Report(
        scenario="demo",
        config=cfg,
        metrics={"m": 0.5, "opt": None},
        checks=[Check("c", 0.0, 1.0, "<=", True)],
        series=(["a", "b"], [[1.0, 2.0], [0.1, 1e-17]]),
    )
    assert rep.passed
    data = json.loads(rep.to_json())
    assert data["scenario"] == "demo"
    # params and seed are derived from the config
    assert data["params"] == config_dict(cfg)
    assert data["seed"] == 9
    assert data["metrics"]["opt"] is None
    assert data["pass"] is True
    csv_text = rep.series_csv()
    lines = csv_text.split("\n")
    assert lines[0] == "a,b"
    assert "\r" not in csv_text
    # 17 significant digits survive a text round trip exactly
    assert float(lines[2].split(",")[1]) == 1e-17


def test_failed_check_fails_report():
    rep = Report("demo", ScenarioConfig(), {}, [Check("c", 2.0, 1.0, "<=", False)], ([], []))
    assert not rep.passed
    assert json.loads(rep.to_json())["pass"] is False


def test_config_dict_is_json_safe():
    cfg = ScenarioConfig(chi_modes=(((0, 0, 1), 0.001 + 0.002j),))
    text = json.dumps(config_dict(cfg), allow_nan=False)
    back = json.loads(text)
    assert back["backend"] == "gaussian"
    assert back["chi_modes"] == [[[0, 0, 1], [0.001, 0.002]]]


def test_config_rejects_bad_backend_and_negative_cutoff():
    with pytest.raises(ValueError):
        ScenarioConfig(backend="laplace")
    with pytest.raises(ValueError, match="n_max"):
        ScenarioConfig(n_max=-1)
    for cutoffs in ((-1,), (-1, 2), ()):
        with pytest.raises(ValueError, match="cutoffs"):
            ScenarioConfig(cutoffs=cutoffs)


# ---------------------------------------------------------------------------
# scan profiles: two-harmonic Fourier data of the analytic wavepacket fields


def make_catalog(n_max=2):
    return ScenarioConfig().catalog(n_max)


def test_scan_profiles_satisfy_continuity():
    """On-shell spinor identity: (E2-E1) u1.u2 = (p2-p1).(u1,alpha u2).

    It forces d(rho)/dt = -div J for the cross term: the scan profile D equals
    minus the closed form of div J_cross at t_final, mode by mode.
    """
    cat = make_catalog()
    cfg = ScenarioConfig()
    m1, m2 = (cat.modes[cat.index_of(mode)] for mode in (cfg.mode1, cfg.mode2))
    alpha_ov = complex((m2.p - m1.p) @ np.array([np.vdot(m1.u, a @ m2.u) for a in ALPHA]))
    div_j = (cfg.e / (2.0 * cat.volume)) * 1j * alpha_ov * np.exp(-1j * (m2.energy - m1.energy) * cfg.t_final)
    profile = scan_profile(cat, cfg)
    assert set(profile) == {(0, 0, 1), (0, 0, -1)}
    assert profile[(0, 0, 1)] == pytest.approx(-div_j, abs=1e-15)
    for k in profile:
        # reality pairing: c(-k) = conj(c(k))
        assert profile[(-k[0], -k[1], -k[2])] == pytest.approx(np.conj(profile[k]), abs=1e-16)


def test_profile_square_integral_is_phase_invariant():
    cat = make_catalog()
    base = profile_square_integral(scan_profile(cat, ScenarioConfig()), cat.volume)
    late = profile_square_integral(
        scan_profile(cat, ScenarioConfig(t_final=17.3)), cat.volume
    )
    assert base == pytest.approx(late, rel=1e-12)
    # independent closed form: V * 2 * (e/2V)^2 * dE^2 * |u1.u2|^2
    m1 = cat.modes[cat.index_of(ScenarioConfig().mode1)]
    m2 = cat.modes[cat.index_of(ScenarioConfig().mode2)]
    de = m2.energy - m1.energy
    ov = abs(np.vdot(m1.u, m2.u)) ** 2
    want = cat.volume * 2.0 * (1.0 / (2.0 * cat.volume)) ** 2 * de**2 * ov
    assert base == pytest.approx(want, rel=1e-13)


def test_random_drive_reality_pairing():
    rng = np.random.default_rng(5)
    pot = random_drive(rng, band=2, amplitude=0.1, envelope=ScenarioConfig().envelope(), d=1)
    (term,) = pot.terms
    for k, c in term.a0.items():
        assert term.a0[(-k[0], -k[1], -k[2])] == pytest.approx(np.conj(c), abs=1e-16)
    assert term.a0[(0, 0, 0)].imag == 0.0
    for k, vec in term.a.items():
        np.testing.assert_allclose(term.a[(-k[0], -k[1], -k[2])], np.conj(vec), atol=1e-16)
    with pytest.raises(NotImplementedError):
        random_drive(rng, band=1, amplitude=0.1, envelope=ScenarioConfig().envelope(), d=3)


def test_excitation_correlation_is_state_minus_sea():
    cat = make_catalog(1)
    cfg = ScenarioConfig()
    W = excitation_correlation(cat, cfg.mode1, cfg.mode2)
    full = omega0_correlation(cat, cfg.mode1, cfg.mode2).matrix
    sea = vacuum_correlation(cat).matrix
    np.testing.assert_allclose(W.matrix, full - sea, atol=1e-15)
    # one particle in the superposed orbital (u1+u2)/sqrt(2): rank one, eigenvalue 1
    eig = np.linalg.eigvalsh(W.matrix)
    assert np.sum(np.abs(eig) > 1e-12) == 1
    assert eig[-1] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# end-to-end smokes (cheapened where the defaults are slow)


def checks_by_name(report):
    return {c.name: c for c in report.checks}


def test_scenarios_registry_complete():
    assert set(SCENARIOS) == {
        "baseline",
        "gauge-heisenberg",
        "gauge-schrodinger",
        "energy-heisenberg",
        "equivalence",
    }


def test_baseline_gaussian_passes_and_is_deterministic():
    cfg = ScenarioConfig(backend="gaussian")
    rep1 = run_free_baseline(cfg)
    rep2 = run_free_baseline(cfg)
    assert rep1.passed
    assert rep1.to_json() == rep2.to_json()
    assert rep1.series_csv() == rep2.series_csv()
    header = rep1.series_csv().split("\n", 1)[0]
    assert header == "backend,time,x,y,z,rho,jx,jy,jz"


def test_baseline_both_backends_agree():
    rep = run_free_baseline(ScenarioConfig(backend="both"))
    assert rep.passed
    assert rep.metrics["backend_disagreement"] <= 1e-8


def test_baseline_d3_passes():
    rep = run_free_baseline(ScenarioConfig(d=3, n_max=1, n_steps=200))
    assert rep.passed and len(rep.checks) == 5
    assert rep.metrics["gaussian_drho_dt_rel_err"] <= 1e-6  # 7.1e-7: the dt^2 error at 200 steps


def test_energy_scan_d3_passes():
    rep = run_heisenberg_energy_scan(ScenarioConfig(d=3, n_max=1, n_steps=200))  # M = 108
    assert rep.passed and len(rep.checks) == 3
    assert checks_by_name(rep)["slope_rel_err"].value <= 1e-3  # 1.9e-4


def test_equivalence_passes_quickly():
    rep = run_picture_equivalence(ScenarioConfig(n_drives=2, n_steps=150))
    assert rep.passed
    assert rep.metrics["max_deviation"] <= 1e-8
    assert rep.metrics["step_doubling_ratio"] >= 3.5
    assert rep.metrics["max_matched_deviation"] <= 1e-10


@pytest.mark.parametrize("backend", ["gaussian", "fock"])
@pytest.mark.parametrize("drive", ["zero", "random"])
def test_equivalence_panel_equals_the_operator_panel(backend, drive):
    """The panel read off `field_series` equals each point operator read directly.

    The oracle is the operator form: h0, `density_matrix` and `current_matrix`
    at every sample point, conjugated as u^dag O u and read in C0 (Heisenberg),
    or read in the final Fock state's correlation matrix (Schrodinger).
    """
    cfg = ScenarioConfig()
    cat = _subset_catalog(cfg, cfg.scan_subsets[0])  # M = 8
    pot = PotentialSpec.zero()
    if drive == "random":
        rng = np.random.default_rng(cfg.seed)
        pot = random_drive(rng, cfg.drive_band, cfg.drive_amplitude, cfg.envelope(), cfg.d)
    blocks = interaction_term_matrices(cat, pot, cfg.e)
    pts = SpatialGrid.for_catalog(cat, cfg.points_per_axis).points()
    # in the panel's order: <H0>, rho at every point, then J_x, J_y, J_z point by point
    ops = [h0_matrix(cat)] + [density_matrix(cat, x, cfg.e) for x in pts]
    ops += [op for x in pts for op in current_matrix(cat, x, cfg.e)]
    c0 = omega0_correlation(cat, cfg.mode1, cfg.mode2)
    t_span = (0.0, cfg.t_final)
    for steps in (cfg.steps(200), cfg.steps(200) * cfg.heis_refine):  # matched and refined
        if backend == "gaussian":
            u = propagate(DrivenHamiltonian(h0_matrix(cat), blocks), t_span, steps, record_every=steps).final
            want = [bilinear_expectation(c0, OneBodyOperator(u.conj().T @ op.matrix @ u)).real for op in ops]
        else:
            omega = omega0_state(cat, cfg.mode1, cfg.mode2)
            ham = DrivenHamiltonian(h0_matrix(cat), blocks)
            _, states = evolve_schrodinger(omega, ham, t_span, steps, record_every=steps)
            c = correlation_from_state(states[-1])
            want = [bilinear_expectation(c, op).real for op in ops]
        _, [series] = _evolved_series(_omega0(backend, cat, cfg), cat, cfg, steps, [blocks], record_every=steps)
        got = _final_panel(series)
        assert len(got) == len(ops) == 1 + 4 * len(pts)
        assert np.abs(got - np.array(want)).max() <= 1e-13, steps


def test_gauge_heisenberg_two_cutoffs(monkeypatch):
    """Per cutoff: a free and a pure-gauge propagation of 21 frames, three bounded checks; then three monotone ones.

    The gauge relation is read on the pure-gauge run's blocks: no dense u
    is built, and one eigh per cutoff (one block size each) serves every
    recorded time.
    """

    def dense(blocks, size):
        raise AssertionError("a dense u was built")

    calls, shapes = [], []
    original, eigh = experiments.propagate, np.linalg.eigh
    monkeypatch.setattr(experiments, "propagate", lambda *args, **kw: calls.append(original(*args, **kw)) or calls[-1])
    monkeypatch.setattr(onebody, "_join", dense)
    monkeypatch.setattr(np.linalg, "eigh", lambda a: shapes.append(a.shape) or eigh(a))
    rep = run_heisenberg_gauge(ScenarioConfig(cutoffs=(2, 3), n_steps=3000))
    assert rep.passed
    assert shapes == [(2, 10, 10), (2, 14, 14)]  # the two spin groups of M = 20 and of M = 28
    assert rep.metrics["n3_rho_dev"] < rep.metrics["n2_rho_dev"]
    assert rep.metrics["n3_j_dev"] < rep.metrics["n2_j_dev"]
    assert [len(u.times) for u in calls] == [21] * 4
    assert [(c.name, c.comparison, c.tolerance) for c in rep.checks] == [
        ("rho_gauge_dev_n2", "<=", 1e-6),
        ("j_gauge_dev_n2", "<=", 1e-6),
        ("unitary_dist_n2", "<=", 1e-8),
        ("rho_gauge_dev_n3", "<=", 1e-6),
        ("j_gauge_dev_n3", "<=", 1e-6),
        ("unitary_dist_n3", "<=", 1e-8),
        ("rho_dev_decreasing", "strictly_decreasing", 0.0),
        ("j_dev_decreasing", "strictly_decreasing", 0.0),
        ("identity_window_decreasing", "strictly_decreasing", 0.0),
    ]
    keys = ("rho_dev", "j_dev", "unitary_dist", "identity_window")
    assert sorted(rep.metrics) == sorted(f"n{n}_{key}" for n in (2, 3) for key in keys)
    header, rows = rep.series
    assert header == ["n_max", "time", "rho_dev", "j_dev", "unitary_dist"]
    assert [row[0] for row in rows] == [2] * 21 + [3] * 21


def gauge_runs(cfg, n_max, n_steps):
    """(catalog, chi, pure-gauge blocks, free run, pure-gauge run) of `gauge-heisenberg` at `n_max`, 21 frames."""
    chi = GaugeFunction(_default_chi(cfg), cfg.envelope())
    catalog = cfg.catalog(n_max)
    blocks = interaction_term_matrices(catalog, _pure_gauge(chi, catalog.grid), cfg.e)
    h0, span, every = h0_matrix(catalog), (0.0, cfg.t_final), n_steps // 20
    runs = [propagate(ham, span, n_steps, every) for ham in (h0, DrivenHamiltonian(h0, blocks))]
    return catalog, chi, blocks, *runs


def dense_gauge_relation(catalog, chi, e, u_free, u_gauge, window, t_final):
    """`_gauge_relation` on dense matrices: one eigh of X(t) per recorded time, u read through `matrices`."""
    inside = catalog.tables.caps <= window
    dist = [
        np.abs((ug - gauge_phase(chi_matrix(catalog, chi, t), e) @ uf)[np.ix_(inside, inside)]).max()
        for t, ug, uf in zip(u_free.times, u_gauge.matrices, u_free.matrices)
    ]
    return np.array(dist), gauge_identity_residual(catalog, chi, t_final, e, window=window)["window"]


D3_CHI = (((0, 0, 1), 1e-3 + 2e-3j), ((0, 0, -1), 1e-3 - 2e-3j))


@pytest.mark.parametrize(
    "cfg, n_max, n_steps",
    [(ScenarioConfig(), n_max, 800) for n_max in (2, 3, 4)] + [(ScenarioConfig(d=3, e=1.3, chi_modes=D3_CHI), 1, 100)],
    ids=["d1-n2", "d1-n3", "d1-n4", "d3-n1"],
)
def test_gauge_relation_on_the_blocks_equals_the_dense_oracle(cfg, n_max, n_steps):
    """unitary_dist and the window identity residual off the blocks: within 1e-14 of the dense route.

    The dense route takes one eigh of the whole X(t) per time; the blocks,
    one of e X_1 per size class.  Measured gaps: at most 3.4e-16 in the
    distances and 1.5e-15 in the residuals, on values up to 8.7e-10 and
    1.8e-9 at d = 1 and 2.2e-6 and 7.0e-6 at d = 3.  At t = 0, g = 0, and
    the phase is exactly the identity.
    """
    catalog, chi, blocks, u_free, u_gauge = gauge_runs(cfg, n_max, n_steps)
    window = 1  # the default cutoffs' window at d = 1; every mode at d = 3, n_max = 1
    dist, residual = _gauge_relation(catalog, blocks, u_free, u_gauge, window, cfg.t_final)
    want_dist, want_residual = dense_gauge_relation(catalog, chi, cfg.e, u_free, u_gauge, window, cfg.t_final)
    assert dist.shape == want_dist.shape == (21,) and dist[0] == 0.0
    assert np.abs(dist - want_dist).max() <= 1e-14
    assert abs(residual - want_residual) <= 1e-14
    assert dist.max() > 1e-12 and residual > 0.0  # the control: a drive the numbers see


def test_gauge_heisenberg_without_a_drive_reads_exact_zeros():
    """chi_amplitude = 0: u_g is u_free bit for bit, so every distance and residual is exactly 0, as at t = 0."""
    rep = run_heisenberg_gauge(ScenarioConfig(chi_amplitude=0.0, n_steps=800))
    header, rows = rep.series
    assert len(rows) == 63 and all(row[header.index("unitary_dist")] == 0.0 for row in rows)
    assert all(rep.metrics[f"n{n}_{key}"] == 0.0 for n in (2, 3, 4) for key in ("unitary_dist", "identity_window"))


def test_energy_scan_slope_and_intercept():
    rep = run_heisenberg_energy_scan(ScenarioConfig(n_steps=2000))
    assert rep.passed
    by_name = checks_by_name(rep)
    assert by_name["slope_rel_err"].value <= 0.02
    assert by_name["intercept_rel_err"].value <= 0.01
    header = rep.series_csv().split("\n", 1)[0]
    assert header == "f,measured_minus_vac,predicted_minus_vac,rel_dev"


@pytest.mark.parametrize(
    "driver", [run_schrodinger_gauge_scan, run_picture_equivalence], ids=["gauge-schrodinger", "equivalence"]
)
def test_schrodinger_picture_drivers_quantize_nothing(monkeypatch, driver):
    """The Fock picture steps the one-body family itself: no `quantize` call, no ManyBodyOperator."""
    calls = []
    monkeypatch.setattr(fock, "quantize", lambda *args: calls.append("quantize"))
    original = ManyBodyOperator.__post_init__

    def counted(self):
        calls.append("ManyBodyOperator")
        original(self)

    monkeypatch.setattr(ManyBodyOperator, "__post_init__", counted)
    driver(ScenarioConfig(n_drives=1, n_steps=20))  # the counts do not depend on n_steps
    assert calls == []


def counted_kernel_calls(monkeypatch) -> list:
    """The shape of the state block each call of the Fock kernel steps."""
    calls = []
    original = fock._expm_shifted

    def counted(work, diag, v):
        calls.append(v.shape)
        return original(work, diag, v)

    monkeypatch.setattr(fock, "_expm_shifted", counted)
    return calls


def test_schrodinger_scan_steps_every_f_in_one_kernel_call_per_step(monkeypatch):
    """The work count of the f scan: n_steps kernel calls per subset, each for all of f_list."""
    calls = counted_kernel_calls(monkeypatch)
    cfg = ScenarioConfig(n_steps=20)
    run_schrodinger_gauge_scan(cfg)
    assert len(calls) == len(cfg.scan_subsets) * 20  # not len(f_list) times that
    assert {rows for rows, _ in calls} == {len(cfg.f_list)}


def test_equivalence_steps_every_drive_in_one_batch_per_step_count(monkeypatch):
    """The Fock picture steps all n_drives + 1 drives together at n_steps and at 2 n_steps, from one omega0."""
    calls = counted_kernel_calls(monkeypatch)
    built = []
    original = experiments.omega0_state
    monkeypatch.setattr(experiments, "omega0_state", lambda *args: built.append(args) or original(*args))
    cfg = ScenarioConfig(n_drives=2, n_steps=20)
    run_picture_equivalence(cfg)  # the counts do not depend on whether the checks pass
    assert len(calls) == 20 + 2 * 20
    assert {rows for rows, _ in calls} == {cfg.n_drives + 1}
    assert len(built) == 1


def test_schrodinger_scan_in_spin_sectors_matches_the_one_group_route(monkeypatch):
    """omega0 steps in its (N_up, N_down) sector; the N sector of all modes stays the oracle."""
    dims = []
    original = experiments.evolve_schrodinger_batch

    def recorded(state, *args, **kwargs):
        dims.append(state.basis.dim)
        return original(state, *args, **kwargs)

    monkeypatch.setattr(experiments, "evolve_schrodinger_batch", recorded)
    cfg = ScenarioConfig(n_steps=40)
    spin = run_schrodinger_gauge_scan(cfg)
    assert sorted(set(dims)) == [24, 300]  # of 56 and 792 at M = 8 and 12
    dims.clear()
    monkeypatch.setattr(experiments, "mode_groups", lambda support: [list(range(len(support)))])
    one = run_schrodinger_gauge_scan(cfg)
    assert sorted(set(dims)) == [56, 792]
    assert spin.passed and one.passed
    assert [c.name for c in spin.checks] == [c.name for c in one.checks]
    compared = [k for k in one.metrics if k.endswith(("_measured", "_fit_slope", "_fit_intercept"))]
    assert len(compared) == 2 * (len(cfg.f_list) + 2)
    for key in compared:
        assert abs(spin.metrics[key] - one.metrics[key]) <= 1e-12 * abs(one.metrics[key]), key


def test_schrodinger_scan_energies_equal_the_direct_fock_reading(monkeypatch):
    """The scan reads <H_0> off each final state's correlation matrix; <psi|quantized h0|psi> is the oracle."""
    finals = []
    original = experiments.evolve_schrodinger_batch

    def recorded(*args, **kwargs):
        times, runs = original(*args, **kwargs)
        finals.extend(states[-1] for states in runs)
        return times, runs

    monkeypatch.setattr(experiments, "evolve_schrodinger_batch", recorded)
    cfg = ScenarioConfig(n_steps=20)
    rep = run_schrodinger_gauge_scan(cfg)
    assert len(finals) == len(cfg.scan_subsets) * len(cfg.f_list) == 16
    states = iter(finals)
    for momenta in cfg.scan_subsets:  # M = 8 and 12
        cat = _subset_catalog(cfg, momenta)
        for f in cfg.f_list:
            state = next(states)
            want = expectation(state, quantize(h0_matrix(cat), state.basis)).real
            got = rep.metrics[f"M{cat.size}_f{f}_measured"] + cat.sea_energy()
            assert abs(got - want) <= 1e-14 * abs(want), (cat.size, f)


@pytest.mark.parametrize(
    "cfg",
    [
        ScenarioConfig(n_steps=400),
        ScenarioConfig(d=3, n_max=1, n_steps=200),  # M = 108
        ScenarioConfig(n_steps=400, f_list=(0.05, 0.1, 0.2)),  # no f = 0: the free run serves the identity RHS alone
    ],
    ids=["d1", "d3", "no-f0"],
)
def test_heisenberg_scan_energies_equal_the_dense_operator_reading(monkeypatch, cfg):
    """The scan reads <H_0> off each final frame; <u^dag h0 u> in W0 and in C0 is the oracle.

    The f = 0 numbers come from the one free run, on n_steps // 4 steps;
    every other f from its own family's run on n_steps.
    """
    calls = []
    original = experiments.propagate
    monkeypatch.setattr(experiments, "propagate", lambda *args, **kw: calls.append(args) or original(*args, **kw))
    rep = run_heisenberg_energy_scan(cfg)
    assert rep.passed
    assert len(calls) == 1 + sum(f != 0.0 for f in cfg.f_list)  # one free propagation
    assert "identity_pairing_err" in rep.metrics and "identity_pairing" in checks_by_name(rep)
    cat = cfg.catalog(cfg.resolved_n_max("gaussian"))
    h0, t_span, n_steps = h0_matrix(cat), (0.0, cfg.t_final), cfg.n_steps
    blocks = _unit_gauge_blocks(cat, scan_profile(cat, cfg), cfg.envelope(), cfg.e)
    W0 = excitation_correlation(cat, cfg.mode1, cfg.mode2)
    C0 = omega0_correlation(cat, cfg.mode1, cfg.mode2)
    for f in cfg.f_list:
        if f == 0.0:
            u = propagate(h0, t_span, n_steps // 4, record_every=n_steps // 4).final
        else:
            family = DrivenHamiltonian(h0, [(b, Scaled(f, g)) for b, g in blocks])
            u = propagate(family, t_span, n_steps, record_every=n_steps).final
        for key, want in (
            (f"f{f}_measured", free_energy_heisenberg(W0, u, h0)),
            (f"f{f}_measured_static_sub", free_energy_heisenberg(C0, u, h0) - cat.sea_energy()),
        ):
            assert abs(rep.metrics[key] - want) <= 1e-12 * abs(want), (key, rep.metrics[key], want)


def test_scaled_unit_gauge_family_equals_the_family_rebuilt_at_each_f():
    """Both energy scans drive chi = f D g(t) as the f = 1 blocks on envelopes scaled by f."""
    cfg = ScenarioConfig()
    env = cfg.envelope()
    for cat in [cfg.catalog(2)] + [_subset_catalog(cfg, momenta) for momenta in cfg.scan_subsets]:
        profile = scan_profile(cat, cfg)
        h0 = h0_matrix(cat)
        unit = _unit_gauge_blocks(cat, profile, env, cfg.e)
        for f in cfg.f_list:
            scaled = DrivenHamiltonian(h0, [(block, Scaled(f, g)) for block, g in unit])
            chi = GaugeFunction({k: f * c for k, c in profile.items()}, env)
            rebuilt = DrivenHamiltonian(h0, interaction_term_matrices(cat, _pure_gauge(chi, cat.grid), cfg.e))
            for t in np.linspace(0.0, cfg.t_final, 7):
                want = rebuilt.data_at(t)
                assert np.abs(scaled.data_at(t) - want).max() <= 1e-15 * np.linalg.norm(want, 2), (cat.size, f, t)


def test_schrodinger_scan_single_subset():
    cfg = ScenarioConfig(
        scan_subsets=((0, 1),), f_list=(0.0, 0.05, 0.1, 0.2), n_steps=300
    )
    rep = run_schrodinger_gauge_scan(cfg)
    assert rep.passed
    by_name = checks_by_name(rep)
    assert by_name["M8_slope_rel_err"].value <= 0.05
    # the lower bound is checked for every f, including f = 0
    for f in cfg.f_list:
        assert by_name[f"M8_bound_f{f}"].value >= -1e-9
