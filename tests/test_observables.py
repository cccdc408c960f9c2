"""Observable-layer tests.

Oracles: closed-form single-harmonic expressions for the free two-mode state
(written independently below from the mode data), real-space quadrature for
integrals, and the exact Fock backend for route cross-checks.
"""

import gc
import weakref

import numpy as np
import pytest

from diracbox.fock import build_ladders, omega0_state, vacuum_state
from diracbox.gaussian import (
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
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    h0_matrix,
    interaction_matrix,
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
    cs = [evolve_correlation(C0, u).matrix for u in prop.matrices]
    series = field_series(
        cat, prop.times, cs, points_per_axis=points_per_axis, provenance="heisenberg/gaussian"
    )
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


def test_simulated_free_series_matches_oracles():
    cat, series = free_series(n_max=2, n_steps=1000)
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
        series.energy[:3],
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
    series = field_series(cat, [0.0, 0.5, 1.0], [C.matrix] * 3)
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
    h0 = h0_matrix(cat)

    def ham(t):
        return OneBodyOperator(h0.matrix + interaction_matrix(cat, pot, t).matrix)

    u = propagate(ham, (0.0, 0.8), 160).final
    C = evolve_correlation(omega0_correlation(cat, MODE1, MODE2), u)
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
        field_series(cat, [0.0, 0.4, 0.8], [C.matrix] * 3)
    )[0]
    quad = (chi_x.real * div_x).mean() * cat.volume
    assert rhs == pytest.approx(dxi + quad, abs=1e-10)


def test_free_energies_agree_between_pictures_at_all_times():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    prop = propagate(h0_matrix(cat), (0.0, 1.0), 100, record_every=25)
    e_sea = cat.sea_energy()
    for u in prop.matrices:
        heis = free_energy_heisenberg(C0, u, cat)
        C_t = evolve_correlation(C0, u)
        schro = free_energy_schrodinger(C_t, cat)
        assert heis == pytest.approx(schro, abs=1e-11)
        # free evolution: energy pinned at sea + (E1 + E2)/2
        assert heis == pytest.approx(e_sea + 1.2071067811865475, abs=1e-10)
    # Fock route at t = 0 agrees with the contraction route
    omega = omega0_state(ladders, MODE1, MODE2)
    assert free_energy_schrodinger(omega, cat, ladders) == pytest.approx(
        free_energy_schrodinger(C0, cat), abs=1e-11
    )
    assert free_energy_heisenberg(omega, prop.final, cat, ladders) == pytest.approx(
        free_energy_heisenberg(C0, prop.final, cat), abs=1e-11
    )


def test_total_charge_conserved_under_drive():
    cat = catalog1d(n_max=1)
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3},
        a={1: (0, 0, 0.2), -1: (0, 0, 0.2)},
        envelope=CosineRamp(t_final=1.0),
    )
    h0 = h0_matrix(cat)

    def ham(t):
        return OneBodyOperator(h0.matrix + interaction_matrix(cat, pot, t).matrix)

    prop = propagate(ham, (0.0, 1.0), 1000, record_every=100)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    cs = [evolve_correlation(C0, u).matrix for u in prop.matrices]
    series = field_series(cat, prop.times, cs)
    q = total_charge(series)
    assert q.max() - q.min() <= 1e-9


def test_fock_and_gaussian_routes_agree_on_observables():
    full = build_catalog(MomentumGrid(d=1, length=2 * np.pi, n_max=1), 1.0)
    cat = restrict_catalog(full, [0, 1])
    ladders = build_ladders(cat)
    omega = omega0_state(ladders, MODE1, MODE2)
    C = omega0_correlation(cat, MODE1, MODE2)
    sg = SpatialGrid.for_catalog(cat)
    pts = sg.points()
    assert np.abs(
        charge_density(omega, cat, pts, ladders) - charge_density(C, cat, pts)
    ).max() <= 1e-12
    assert np.abs(
        current_density(omega, cat, pts, ladders) - current_density(C, cat, pts)
    ).max() <= 1e-12


def test_fock_state_without_ladders_rejected():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    vac = vacuum_state(ladders)
    with pytest.raises(ValueError):
        charge_density(vac, cat, (0.0, 0.0, 0.0))
    with pytest.raises(TypeError):
        charge_density(np.zeros(3), cat, (0.0, 0.0, 0.0))


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
    dense = evolve_correlation(sparse, unitary_step(h + h.conj().T, 0.3))
    for C in (sparse, dense):
        got = field_fourier(C, cat, e=1.5)
        assert got == oracle_field_fourier(C.matrix, cat, e=1.5)


def test_catalog_is_freed_after_observable_use():
    cat = catalog1d(n_max=1)
    charge_density(vacuum_correlation(cat), cat, np.zeros(3))
    ref = weakref.ref(cat)
    del cat
    gc.collect()
    assert ref() is None
