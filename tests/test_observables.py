"""Observable-layer tests.

Oracles: closed-form single-harmonic expressions for the free two-mode state
(written independently below from the mode data), real-space quadrature for
integrals, and the exact Fock backend for route cross-checks.
"""

import ast
import gc
import weakref
from pathlib import Path

import numpy as np
import pytest

import diracbox.observables as observables
from diracbox.experiments import ScenarioConfig, _unit_gauge_blocks, scan_profile
from diracbox.fock import (
    correlation_from_state,
    expectation,
    omega0_state,
    quantize,
    vacuum_state,
)
from diracbox.gaussian import (
    CorrelationMatrix,
    bilinear_expectation,
    evolve_correlation,
    omega0_correlation,
    vacuum_correlation,
)
from diracbox.modes import MomentumGrid, build_catalog, label, restrict_catalog
from diracbox.observables import (
    SpatialGrid,
    charge_density,
    continuity_residual,
    current_density,
    current_matrix,
    delta_xi,
    density_matrix,
    div_current_oracle,
    drho_dt_oracle,
    energy_identity_rhs,
    field_fourier,
    field_series,
    free_energy_heisenberg,
    free_energy_schrodinger,
    spectral_divergence,
    total_charge,
)
from diracbox.onebody import (
    CosineRamp,
    unitary_step,
    DrivenHamiltonian,
    GaugeFunction,
    OneBodyOperator,
    OneBodyPropagator,
    PotentialSpec,
    h0_matrix,
    interaction_term_matrices,
    mode_groups,
    propagate,
)

MODE1 = label(+1, 0.5, 0)
MODE2 = label(+1, 0.5, 1)


def catalog1d(n_max=2, m=1.0):
    return build_catalog(MomentumGrid(d=1, length=2 * np.pi, n_max=n_max), m)


def free_series(n_max=2, n_steps=1000, record_every=1, points_per_axis=None):
    cat = catalog1d(n_max=n_max)
    prop = propagate(h0_matrix(cat), (0.0, 1.0), n_steps, record_every=record_every)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    series = field_series(cat, prop.times, evolve_correlation(C0, prop), points_per_axis=points_per_axis)
    return cat, series


def test_vacuum_density_is_uniform_sea_background():
    cat = catalog1d(n_max=1)
    sg = SpatialGrid.for_catalog(cat)
    rho = charge_density(vacuum_correlation(cat), cat, sg.points())
    want = (cat.size / 2) / cat.volume
    assert np.abs(rho - want).max() <= 1e-13


def test_vacuum_current_vanishes_by_momentum_cancellation():
    cat = catalog1d(n_max=2)
    sg = SpatialGrid.for_catalog(cat)
    J = current_density(vacuum_correlation(cat), cat, sg.points())
    assert np.abs(J).max() <= 1e-13


def test_omega0_density_closed_form():
    cat = catalog1d(n_max=1)
    m1 = cat.modes[cat.index_of(MODE1)]
    m2 = cat.modes[cat.index_of(MODE2)]
    ov = np.vdot(m1.u, m2.u)
    assert abs(ov.imag) <= 1e-15
    sg = SpatialGrid.for_catalog(cat)
    pts = sg.points()
    rho = charge_density(omega0_correlation(cat, MODE1, MODE2), cat, pts)
    V = cat.volume
    want = (cat.size / 2) / V + (1.0 + ov.real * np.cos(pts[:, 2])) / V
    assert np.abs(rho - want).max() <= 1e-13


def test_density_matrix_route_agrees_with_contraction():
    cat = catalog1d(n_max=1)
    C = omega0_correlation(cat, MODE1, MODE2)
    x = (0.0, 0.0, 1.234)
    via_matrix = bilinear_expectation(C, density_matrix(cat, x)).real
    via_field = charge_density(C, cat, x)[0]
    assert via_matrix == pytest.approx(via_field, abs=1e-14)


def test_total_charge_counts_particles():
    cat = catalog1d(n_max=1)
    _, series = free_series(n_max=1, n_steps=20)
    q = total_charge(series)
    assert np.abs(q - (cat.size / 2 + 1)).max() <= 1e-11


def test_oracles_oppose_each_other_pointwise():
    cat = catalog1d(n_max=2)
    m1 = cat.modes[cat.index_of(MODE1)]
    m2 = cat.modes[cat.index_of(MODE2)]
    rng = np.random.default_rng(11)
    pts = np.zeros((40, 3))
    pts[:, 2] = rng.uniform(0, 2 * np.pi, size=40)
    for t in (0.0, 0.3, 1.7):
        a = drho_dt_oracle(pts, t, m1, m2)
        b = div_current_oracle(pts, t, m1, m2)
        assert np.abs(a + b).max() <= 1e-10


def test_free_run_density_harmonic_rotates_at_energy_gap():
    cat, series = free_series(n_max=1, n_steps=200, record_every=20)
    de = np.sqrt(2.0) - 1.0
    z = series.points[:, 2]
    coeff = (series.rho * np.exp(-1j * z)).mean(axis=1)  # harmonic +1 projection
    expected = coeff[0] * np.exp(-1j * de * series.times)
    assert np.abs(coeff - expected).max() <= 1e-10


@pytest.mark.parametrize("points_per_axis", [None, 1, 2], ids=["default", "1-point", "2-points"])
def test_simulated_free_series_matches_oracles(points_per_axis):
    """The divergence is exact at any grid, also one too coarse to resolve the fields."""
    cat, series = free_series(n_max=2, n_steps=1000, points_per_axis=points_per_axis)
    m1 = cat.modes[cat.index_of(MODE1)]
    m2 = cat.modes[cat.index_of(MODE2)]
    pts = series.points
    dt = series.times[1] - series.times[0]
    drho_sim = (series.rho[2:] - series.rho[:-2]) / (2 * dt)
    drho_want = np.array(
        [drho_dt_oracle(pts, t, m1, m2) for t in series.times[1:-1]]
    )
    scale = np.abs(drho_want).max()
    assert np.abs(drho_sim - drho_want).max() / scale <= 1e-6

    div_sim = spectral_divergence(series)
    div_want = np.array([div_current_oracle(pts, t, m1, m2) for t in series.times])
    assert np.abs(div_sim - div_want).max() / np.abs(div_want).max() <= 1e-6

    assert continuity_residual(series) <= 1e-8


def test_continuity_residual_needs_uniform_grid():
    cat, series = free_series(n_max=1, n_steps=20)
    broken = type(series)(
        np.array([0.0, 0.1, 0.3]),
        series.spatial,
        series.rho[:3],
        series.current[:3],
        series.divergence[:3],
        series.energy[:3],
        series.points,
    )
    with pytest.raises(ValueError):
        continuity_residual(broken)


def test_field_fourier_matches_sampled_density():
    cat = catalog1d(n_max=1)
    C = omega0_correlation(cat, MODE1, MODE2)
    rho_k, divj_k = field_fourier(C, cat)
    sg = SpatialGrid.for_catalog(cat)
    z = sg.points()[:, 2]
    rho_built = np.zeros_like(z, dtype=complex)
    for k, amp in rho_k.items():
        rho_built += amp * np.exp(1j * k[2] * z)
    rho_direct = charge_density(C, cat, sg.points())
    assert np.abs(rho_built.imag).max() <= 1e-12
    assert np.abs(rho_built.real - rho_direct).max() <= 1e-12
    # divergence coefficients against the spectral divergence of a series
    series = field_series(cat, [0.0, 0.5, 1.0], [C] * 3)
    div_grid = spectral_divergence(series)[0]
    div_built = np.zeros_like(z, dtype=complex)
    for k, amp in divj_k.items():
        div_built += amp * np.exp(1j * k[2] * z)
    assert np.abs(div_built.real - div_grid).max() <= 1e-12


def test_delta_xi_default_modes():
    cat = catalog1d(n_max=1)
    m1 = cat.modes[cat.index_of(MODE1)]
    m2 = cat.modes[cat.index_of(MODE2)]
    assert delta_xi(m1, m2) == pytest.approx(1.2071067811865475, abs=1e-15)


def test_energy_identity_pairing_matches_quadrature():
    cat = catalog1d(n_max=2)
    # drive the state a little so div J is nonzero
    pot = PotentialSpec.single(
        a0={1: 0.2, -1: 0.2},
        a={1: (0, 0, 0.1), -1: (0, 0, 0.1)},
        envelope=CosineRamp(t_final=1.0),
    )
    ham = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pot))

    prop = propagate(ham, (0.0, 0.8), 160, record_every=160)
    C = evolve_correlation(omega0_correlation(cat, MODE1, MODE2), prop)[-1]
    _, divj_k = field_fourier(C, cat)
    env = CosineRamp(t_final=1.0)
    chi = GaugeFunction({1: 0.3 - 0.2j, -1: 0.3 + 0.2j}, env)
    t_eval = 0.8
    dxi = 1.2071067811865475
    rhs = energy_identity_rhs(chi, t_eval, divj_k, dxi, cat.volume)

    sg = SpatialGrid.for_catalog(cat)
    z = sg.points()[:, 2]
    chi_x = np.zeros_like(z, dtype=complex)
    for k, amp in chi.chi.items():
        chi_x += amp * env.value(t_eval) * np.exp(1j * k[2] * z)
    div_x = spectral_divergence(
        field_series(cat, [0.0, 0.4, 0.8], [C] * 3)
    )[0]
    quad = (chi_x.real * div_x).mean() * cat.volume
    assert rhs == pytest.approx(dxi + quad, abs=1e-10)


def test_free_energies_agree_between_pictures_at_all_times():
    cat = catalog1d(n_max=1)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    prop = propagate(h0_matrix(cat), (0.0, 1.0), 100, record_every=25)
    e_sea = cat.sea_energy()
    h0 = h0_matrix(cat)
    for u, C_t in zip(prop.matrices, evolve_correlation(C0, prop)):
        heis = free_energy_heisenberg(C0, u, h0)
        schro = free_energy_schrodinger(C_t, h0)
        assert heis == pytest.approx(schro, abs=1e-11)
        # free evolution: energy pinned at sea + (E1 + E2)/2
        assert heis == pytest.approx(e_sea + 1.2071067811865475, abs=1e-10)
    # the Fock state read through the bridge agrees with the Fock-space expectations
    omega = omega0_state(cat, MODE1, MODE2)
    C_fock = correlation_from_state(omega)
    u = prop.final
    h0_u = OneBodyOperator(u.conj().T @ h0.matrix @ u)
    assert free_energy_schrodinger(C_fock, h0) == pytest.approx(
        expectation(omega, quantize(h0, omega.basis)).real, abs=1e-11
    )
    assert free_energy_heisenberg(C_fock, u, h0) == pytest.approx(
        expectation(omega, quantize(h0_u, omega.basis)).real, abs=1e-11
    )
    assert free_energy_schrodinger(C_fock, h0) == pytest.approx(
        free_energy_schrodinger(C0, h0), abs=1e-11
    )


def test_total_charge_conserved_under_drive():
    cat = catalog1d(n_max=1)
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3},
        a={1: (0, 0, 0.2), -1: (0, 0, 0.2)},
        envelope=CosineRamp(t_final=1.0),
    )
    ham = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pot))

    prop = propagate(ham, (0.0, 1.0), 1000, record_every=100)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    series = field_series(cat, prop.times, evolve_correlation(C0, prop))
    q = total_charge(series)
    assert q.max() - q.min() <= 1e-9


def test_fock_and_gaussian_routes_agree_on_observables():
    full = build_catalog(MomentumGrid(d=1, length=2 * np.pi, n_max=1), 1.0)
    cat = restrict_catalog(full, [0, 1])
    omega = omega0_state(cat, MODE1, MODE2)
    C = omega0_correlation(cat, MODE1, MODE2)
    C_fock = correlation_from_state(omega)
    sg = SpatialGrid.for_catalog(cat)
    pts = sg.points()
    rho_fock = charge_density(C_fock, cat, pts)
    cur_fock = current_density(C_fock, cat, pts)
    assert np.abs(rho_fock - charge_density(C, cat, pts)).max() <= 1e-12
    assert np.abs(cur_fock - current_density(C, cat, pts)).max() <= 1e-12
    # oracle: the quantized point operators contracted on the state's sector
    for x, pt in enumerate(pts):
        rho_q = expectation(omega, quantize(density_matrix(cat, pt), omega.basis))
        assert abs(rho_fock[x] - rho_q) <= 1e-12
        for a, op in enumerate(current_matrix(cat, pt)):
            assert abs(cur_fock[x, a] - expectation(omega, quantize(op, omega.basis))) <= 1e-12


def test_fock_state_without_ladders_rejected():
    """Observables read only a CorrelationMatrix; a Fock state crosses by the bridge."""
    cat = catalog1d(n_max=1)
    vac = vacuum_state(cat)
    x = (0.0, 0.0, 0.0)
    u = np.eye(cat.size)
    entry_points = [
        lambda c: charge_density(c, cat, x),
        lambda c: current_density(c, cat, x),
        lambda c: field_fourier(c, cat),
        lambda c: free_energy_schrodinger(c, h0_matrix(cat)),
        lambda c: free_energy_heisenberg(c, u, h0_matrix(cat)),
        lambda c: field_series(cat, [0.0], [c]),
    ]
    for read in entry_points:
        for wrong in (vac, correlation_from_state(vac).matrix):
            with pytest.raises(TypeError, match="expected CorrelationMatrix"):
                read(wrong)
    rho = charge_density(correlation_from_state(vac), cat, x)
    assert rho == pytest.approx(charge_density(vacuum_correlation(cat), cat, x), abs=1e-14)


def test_observables_import_nothing_from_fock():
    """The observable layer depends on gaussian, never on the Fock backend."""
    tree = ast.parse(Path(observables.__file__).read_text())
    imported = []  # dotted names; `from . import fock` gives ".fock"
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported += [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
    assert not [name for name in imported if "fock" in name.split(".")], imported


def oracle_field_fourier(C, catalog, e=1.0):
    """Mode-pair loop over C_ij != 0, accumulating in row-major pair order."""
    t = catalog.tables
    rho_k, divj_k = {}, {}
    modes = catalog.modes
    for i, mi in enumerate(modes):
        for j, mj in enumerate(modes):
            if C[i, j] == 0.0:
                continue
            dn = tuple(mj.label.n[a] - mi.label.n[a] for a in range(3))
            w = (e / catalog.volume) * C[i, j]
            rho_k[dn] = rho_k.get(dn, 0.0) + t.scalar[i, j] * w
            dp = mj.p - mi.p
            divj_k[dn] = divj_k.get(dn, 0.0) + 1j * w * (
                dp[0] * t.alpha[0, i, j] + dp[1] * t.alpha[1, i, j] + dp[2] * t.alpha[2, i, j]
            )
    return rho_k, divj_k


@pytest.mark.parametrize(
    "d, n_max, keep",
    [(1, 2, None), (1, 4, None), (3, 1, None), (1, 1, [0, 1])],
    ids=["d1-n2", "d1-n4", "d3-n1", "restricted-0-1"],
)
def test_field_fourier_equals_mode_pair_loop(d, n_max, keep):
    cat = build_catalog(MomentumGrid(d=d, length=2 * np.pi, n_max=n_max), 1.0)
    if keep is not None:
        cat = restrict_catalog(cat, keep)
    sparse = omega0_correlation(cat, MODE1, MODE2)  # mostly exact zeros
    rng = np.random.default_rng(d * 10 + n_max)
    h = rng.normal(size=(cat.size, cat.size)) + 1j * rng.normal(size=(cat.size, cat.size))
    [dense] = evolve_correlation(sparse, OneBodyPropagator([0.3], [unitary_step(h + h.conj().T, 0.3)]))
    for C in (sparse, dense):
        got = field_fourier(C, cat, e=1.5)
        want = oracle_field_fourier(C.matrix, cat, e=1.5)
        for got_k, want_k in zip(got, want):  # rho_k, then (div J)_k
            assert set(want_k) <= set(got_k)
            scale = max(abs(v) for v in want_k.values())
            for k, v in got_k.items():
                if k in want_k:
                    assert abs(v - want_k[k]) <= 1e-14 * scale, k
                else:  # a wave vector of no pair with C_ij != 0
                    assert v == 0, k


def oracle_densities(C, catalog, pts, e=1.0):
    """rho and J by one three-operand einsum per field: sum_ij w_i^* (T*C)_ij w_j, w_i = e^{i p_i.x}."""
    t = catalog.tables
    w = np.exp(1j * pts @ np.array([mode.p for mode in catalog.modes]).T)
    scale = e / catalog.volume
    fields = [t.scalar, *t.alpha]
    vals = [np.einsum("xi,ij,xj->x", w.conj(), T * C, w) * scale for T in fields]
    return vals[0].real, np.stack(vals[1:], axis=1).real


def random_correlation(size, rng):
    """Dense hermitian C with occupations drawn uniformly in [0, 1]."""
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, _ = np.linalg.qr(z)
    return CorrelationMatrix((q * rng.uniform(0.0, 1.0, size)) @ q.conj().T)


def dense_field_coefficients(C, catalog, e):
    """The (K, 4) rho and J coefficients binned from all M^2 mode pairs of C, in row-major order."""
    t = catalog.tables
    w = (e / catalog.volume) * C.ravel()
    out = np.empty((len(t.wave_vectors), 4), dtype=complex)
    for a, table in enumerate((t.scalar, *t.alpha)):
        out.real[:, a] = np.bincount(t.wave_index.ravel(), (table.ravel() * w).real, len(out))
        out.imag[:, a] = np.bincount(t.wave_index.ravel(), (table.ravel() * w).imag, len(out))
    return out


def _support_case(name):
    """(catalog, family, C0, across): a family whose mode groups split C0 into block pairs.

    `across` is the flat position of an entry of C0 between two mode groups,
    or None when C0 has none.
    """
    d = 3 if name.startswith("d3") else 1
    cfg = ScenarioConfig(d=d, n_max=1 if d == 3 else 2)
    cat = cfg.catalog(cfg.n_max)
    h0 = h0_matrix(cat)
    c0 = omega0_correlation(cat, cfg.mode1, cfg.mode2)
    if name.endswith("free"):
        return cat, h0, c0, None
    family = DrivenHamiltonian(h0, _unit_gauge_blocks(cat, scan_profile(cat, cfg), cfg.envelope(), cfg.e))
    if not name.endswith("between-groups"):
        return cat, family, c0, None
    # rotate a filled sea mode of the first group into an empty mode of the last: still a projector
    mat = c0.matrix.copy()
    groups = mode_groups(family.support)
    i = next(i for i in groups[0] if mat[i, i] == 1.0)
    j = next(j for j in groups[-1] if not mat[j].any())
    cos, sin = np.cos(0.3), np.sin(0.3)
    mat[i, i], mat[j, j], mat[i, j], mat[j, i] = cos * cos, sin * sin, cos * sin, cos * sin
    return cat, family, CorrelationMatrix(mat), i * cat.size + j


@pytest.mark.parametrize(
    "case", ["d1-free", "d3-free", "d1-gauge-spins", "d3-gauge", "d3-gauge-between-groups"]
)
def test_field_coefficients_on_the_support_equal_the_dense_bincount(case):
    """Each frame is zero off its support, and sampling the support alone bins the same bytes."""
    cat, family, c0, across = _support_case(case)
    if case.startswith("d3-gauge"):  # the energy-heisenberg family at d = 3
        assert {len(g) for g in mode_groups(family.support)} == {6, 12}
    prop = propagate(family, (0.0, 0.2), 16, record_every=8)
    frames = [c0, *evolve_correlation(c0, prop)]
    for c in frames:
        assert np.all(np.diff(c.support) > 0) and not c.support.flags.writeable
        off = np.ones(cat.size**2, dtype=bool)
        off[c.support] = False
        assert not c.matrix.ravel()[off].any()
        got = observables._field_coefficients(c, cat, 1.5)
        assert got[:, :4].tobytes() == dense_field_coefficients(c.matrix, cat, 1.5).tobytes()
        if across is not None:  # the block pair across the two groups is filled
            assert across in c.support
    if cat.d == 3:
        assert len(frames[-1].support) < cat.size**2 / 4


@pytest.mark.parametrize("d, n_max", [(1, 2), (3, 1)], ids=["d1-n2", "d3-n1"])
def test_densities_match_per_field_einsum(d, n_max):
    cat = build_catalog(MomentumGrid(d=d, length=2 * np.pi, n_max=n_max), 1.0)
    pts = SpatialGrid.for_catalog(cat).points()
    assert len(pts) == (9 if d == 1 else 125)
    rng = np.random.default_rng(40 + d)
    for c in (random_correlation(cat.size, rng), omega0_correlation(cat, MODE1, MODE2)):
        rho_want, cur_want = oracle_densities(c.matrix, cat, pts, e=1.5)
        rho = charge_density(c, cat, pts, e=1.5)
        cur = current_density(c, cat, pts, e=1.5)
        assert rho.shape == rho_want.shape and cur.shape == cur_want.shape
        assert np.abs(rho - rho_want).max() <= 1e-12 * np.abs(rho_want).max()
        assert np.abs(cur - cur_want).max() <= 1e-12 * np.abs(cur_want).max()


@pytest.mark.parametrize("d, n_max", [(1, 2), (3, 1)], ids=["d1-n2", "d3-n1"])
def test_field_series_frames_equal_pointwise_densities(d, n_max):
    cat = build_catalog(MomentumGrid(d=d, length=2 * np.pi, n_max=n_max), 1.0)
    times = [0.0, 0.1, 0.2, 0.3]
    c0 = random_correlation(cat.size, np.random.default_rng(50 + d))
    prop = OneBodyPropagator(times, [unitary_step(h0_matrix(cat).matrix, t) for t in times])
    cs = evolve_correlation(c0, prop)
    series = field_series(cat, times, cs, e=1.5)
    for k, c in enumerate(cs):
        assert np.array_equal(series.rho[k], charge_density(c, cat, series.points, e=1.5))
        assert np.array_equal(series.current[k], current_density(c, cat, series.points, e=1.5))


@pytest.mark.parametrize("n_frames", [1, 5], ids=["fewer-frames", "more-frames"])
def test_field_series_needs_one_correlation_per_time(n_frames):
    cat = catalog1d(n_max=1)
    frames = [vacuum_correlation(cat)] * n_frames
    with pytest.raises(ValueError, match=f"got {n_frames} correlations for 4 times"):
        field_series(cat, [0.0, 0.5, 1.0, 1.5], frames)


def test_field_series_energy_guards_its_imaginary_part():
    # a valid correlation (hermitian within 1e-10, occupations 1/2) whose
    # <H0> carries 4.9e-11 i sum E, about 4.5e-9 i at n_max = 4, while its
    # fields stay real: the energy column must raise as free_energy_schrodinger does
    cat = catalog1d(n_max=4)
    c = CorrelationMatrix(np.diag(0.5 + 4.9e-11j * cat.signs()))
    with pytest.raises(FloatingPointError, match="free energy"):
        free_energy_schrodinger(c, h0_matrix(cat))
    with pytest.raises(FloatingPointError, match="free energy"):
        field_series(cat, [0.0], [c])


def fft_divergence(series):
    """div J of the sampled J by FFT differentiation along each axis, (T, N).

    Exact when the grid resolves every harmonic of J, as the default grid does.
    """
    sg = series.spatial
    n = sg.points_per_axis
    k1d = 2.0 * np.pi * np.fft.fftfreq(n, d=sg.length / n)
    shape = (len(series.times),) + (n,) * sg.catalog_d
    axes = (2,) if sg.catalog_d == 1 else (0, 1, 2)  # the J component along each grid axis
    out = np.zeros(shape)
    for axis, comp in enumerate(axes, start=1):
        j = series.current[:, :, comp].reshape(shape)
        kshape = [1] * len(shape)
        kshape[axis] = n
        out += np.real(np.fft.ifft(1j * k1d.reshape(kshape) * np.fft.fft(j, axis=axis), axis=axis))
    return out.reshape(len(series.times), sg.n_points)


@pytest.mark.parametrize("d, n_max", [(1, 2), (3, 1)], ids=["d1-n2", "d3-n1"])
def test_spectral_divergence_matches_fft_of_sampled_current(d, n_max):
    cat = build_catalog(MomentumGrid(d=d, length=2 * np.pi, n_max=n_max), 1.0)
    times = [0.0, 0.1, 0.2]
    c0 = random_correlation(cat.size, np.random.default_rng(60 + d))
    prop = OneBodyPropagator(times, [unitary_step(h0_matrix(cat).matrix, t) for t in times])
    series = field_series(cat, times, evolve_correlation(c0, prop), e=1.5)
    want = fft_divergence(series)
    assert np.abs(spectral_divergence(series) - want).max() <= 1e-12 * np.abs(want).max()


def test_catalog_is_freed_after_observable_use():
    cat = catalog1d(n_max=1)
    charge_density(vacuum_correlation(cat), cat, np.zeros(3))
    ref = weakref.ref(cat)
    del cat
    gc.collect()
    assert ref() is None
