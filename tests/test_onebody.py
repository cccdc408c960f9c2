"""One-body layer tests.

Interaction-matrix oracle: direct real-space quadrature of
integral phi_target^dag(x) [ -e alpha.A(x,t) + e A_0(x,t) ] phi_source(x) dx
on a uniform grid fine enough to integrate the band-limited integrand
exactly.  The spinors themselves are pinned by the eigenvector oracle in
test_modes.py.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbox.modes import ALPHA, MomentumGrid, build_catalog, restrict_catalog
from diracbox.onebody import (
    _coupling_matrix,
    Constant,
    CosineRamp,
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    PotentialTerm,
    TimeDerivative,
    bfield_coefficients,
    chi_matrix,
    efield_coefficients,
    gauge_identity_residual,
    gauge_phase,
    gauge_transform,
    grad_chi_matrix,
    h0_matrix,
    interaction_matrix,
    propagate,
    unitary_step,
)

# explicit Dirac alpha matrices, written out for the oracle
ALPHA_X = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, 1, 0, 0], [1, 0, 0, 0]], dtype=complex)
ALPHA_Y = np.array(
    [[0, 0, 0, -1j], [0, 0, 1j, 0], [0, -1j, 0, 0], [1j, 0, 0, 0]], dtype=complex
)
ALPHA_Z = np.array([[0, 0, 1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, -1, 0, 0]], dtype=complex)
ALPHAS = [ALPHA_X, ALPHA_Y, ALPHA_Z]


def catalog1d(n_max=1, m=1.0, L=2 * np.pi):
    return build_catalog(MomentumGrid(d=1, length=L, n_max=n_max), m)


def quadrature_interaction(catalog, pot, t, e=1.0, n_quad=128):
    """Real-space quadrature of the interaction matrix elements (d = 1)."""
    L = catalog.grid.length
    z = np.arange(n_quad) * (L / n_quad)
    a0 = np.zeros(n_quad, dtype=complex)
    avec = np.zeros((n_quad, 3), dtype=complex)
    for term in pot.terms:
        g = term.envelope.value(t)
        for k, amp in term.a0.items():
            a0 += amp * g * np.exp(1j * catalog.grid.dk * k[2] * z)
        for k, amp in term.a.items():
            avec += np.exp(1j * catalog.grid.dk * k[2] * z)[:, None] * (np.asarray(amp) * g)[None, :]
    M = catalog.size
    out = np.zeros((M, M), dtype=complex)
    waves = np.array([np.exp(1j * m_.p[2] * z) for m_ in catalog.modes])  # (M, nq)
    for i, tgt in enumerate(catalog.modes):
        for j, src in enumerate(catalog.modes):
            scalar_part = np.vdot(tgt.u, src.u) * a0 * e
            vector_part = np.zeros(n_quad, dtype=complex)
            for comp in range(3):
                vector_part += avec[:, comp] * np.vdot(tgt.u, ALPHAS[comp] @ src.u)
            integrand = (scalar_part - e * vector_part) * waves[i].conj() * waves[j]
            out[i, j] = integrand.mean()  # 1/L * integral, box-normalized modes
    return out


def test_h0_is_diagonal_with_signed_energies():
    cat = catalog1d(n_max=1)
    h0 = h0_matrix(cat).matrix
    want = np.diag(cat.signs() * cat.energies())
    assert np.abs(h0 - want).max() <= 1e-15
    assert h0[cat.index_of(cat.modes[0].label), cat.index_of(cat.modes[0].label)].real > 0


def test_interaction_zero_potential_is_zero():
    cat = catalog1d()
    v = interaction_matrix(cat, PotentialSpec.zero(), 0.3)
    assert np.abs(v.matrix).max() == 0.0


def test_interaction_constant_a0_is_scaled_identity():
    cat = catalog1d()
    pot = PotentialSpec.single(a0={0: 0.7}, envelope=Constant(1.0))
    v = interaction_matrix(cat, pot, 0.0, e=2.0)
    assert np.abs(v.matrix - 2.0 * 0.7 * np.eye(cat.size)).max() <= 1e-14


def test_interaction_matches_quadrature_oracle():
    cat = catalog1d(n_max=1)
    w = 0.3 - 0.2j
    s = 0.15 + 0.4j
    pot = PotentialSpec.single(
        a0={1: s, -1: np.conj(s)},
        a={1: (0, 0, w), -1: (0, 0, np.conj(w))},
        envelope=CosineRamp(t_final=1.0),
    )
    t = 0.37
    got = interaction_matrix(cat, pot, t, e=1.0).matrix
    want = quadrature_interaction(cat, pot, t, e=1.0)
    assert np.abs(got - want).max() <= 1e-12


def test_interaction_two_term_envelopes_sum():
    cat = catalog1d(n_max=1)
    t1 = PotentialTerm(a0={(0, 0, 1): 0.2, (0, 0, -1): 0.2}, a={}, envelope=Constant(1.0))
    t2 = PotentialTerm(a0={(0, 0, 1): 0.1j, (0, 0, -1): -0.1j}, a={}, envelope=Constant(3.0))
    pot = PotentialSpec((t1, t2))
    got = interaction_matrix(cat, pot, 0.0).matrix
    want = (
        interaction_matrix(cat, PotentialSpec((t1,)), 0.0).matrix
        + interaction_matrix(cat, PotentialSpec((t2,)), 0.0).matrix
    )
    assert np.abs(got - want).max() <= 1e-14


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 99_999))
def test_interaction_hermitian_for_random_band_limited_potentials(seed):
    rng = np.random.default_rng(seed)
    cat = catalog1d(n_max=1)
    a0, a = {}, {}
    for kz in (1, 2):
        amp = complex(rng.normal(), rng.normal())
        a0[(0, 0, kz)], a0[(0, 0, -kz)] = amp, np.conj(amp)
        vec = rng.normal(size=3) + 1j * rng.normal(size=3)
        a[(0, 0, kz)], a[(0, 0, -kz)] = vec, np.conj(vec)
    pot = PotentialSpec.single(a0=a0, a=a, envelope=Constant(1.0))
    v = interaction_matrix(cat, pot, 0.0)  # constructor enforces hermiticity
    assert np.abs(v.matrix - v.matrix.conj().T).max() <= 1e-12


def test_reality_violation_rejected():
    with pytest.raises(ValueError):
        PotentialSpec.single(a0={1: 1.0 + 0.5j, -1: 1.0 + 0.5j})
    with pytest.raises(ValueError):
        PotentialSpec.single(a0={1: 1.0})  # missing -k partner
    with pytest.raises(ValueError):
        GaugeFunction({1: 0.3j}, CosineRamp(1.0))


def test_off_axis_and_band_limit_rejected():
    cat = catalog1d(n_max=1)
    off = PotentialSpec.single(a0={(1, 0, 0): 0.5, (-1, 0, 0): 0.5})
    with pytest.raises(ValueError):
        interaction_matrix(cat, off, 0.0)
    wide = PotentialSpec.single(a0={(0, 0, 3): 0.5, (0, 0, -3): 0.5})
    with pytest.raises(ValueError):
        interaction_matrix(cat, wide, 0.0)


def test_gauge_function_off_axis_and_band_limit_rejected():
    cat = catalog1d(n_max=1)
    env = CosineRamp(t_final=1.0)
    off = GaugeFunction({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, env)
    wide = GaugeFunction({(0, 0, 3): 0.5, (0, 0, -3): 0.5}, env)
    for chi in (off, wide):
        with pytest.raises(ValueError):
            chi_matrix(cat, chi, 0.5)
        with pytest.raises(ValueError):
            gauge_transform(PotentialSpec.zero(), chi, cat.grid)


def test_gauge_envelope_initial_conditions_enforced():
    with pytest.raises(ValueError):
        GaugeFunction({0: 0.5}, Constant(1.0))
    GaugeFunction({0: 0.5}, CosineRamp(t_final=1.0))  # fine


def test_chi_matrix_constant_profile_scales_identity():
    cat = catalog1d()
    env = CosineRamp(t_final=1.0)
    chi = GaugeFunction({0: 0.4}, env)
    t = 0.7
    x = chi_matrix(cat, chi, t).matrix
    assert np.abs(x - 0.4 * env.value(t) * np.eye(cat.size)).max() <= 1e-14


def test_chi_and_grad_chi_match_quadrature():
    cat = catalog1d(n_max=2)
    env = CosineRamp(t_final=1.0)
    c = 0.25 - 0.1j
    chi = GaugeFunction({1: c, -1: np.conj(c)}, env)
    t = 0.42
    # chi multiplication via the scalar channel of the quadrature oracle
    as_pot = PotentialSpec.single(a0={1: c, -1: np.conj(c)}, envelope=env)
    want = quadrature_interaction(cat, as_pot, t, e=1.0)
    got = chi_matrix(cat, chi, t).matrix
    assert np.abs(got - want).max() <= 1e-12
    # grad chi via the vector channel: alpha . ik chi_k
    dk = cat.grid.dk
    as_pot_grad = PotentialSpec.single(
        a={1: (0, 0, 1j * dk * c), -1: (0, 0, np.conj(1j * dk * c))}, envelope=env
    )
    want_grad = -quadrature_interaction(cat, as_pot_grad, t, e=1.0)  # oracle applies -e alpha.A
    got_grad = grad_chi_matrix(cat, chi, t).matrix
    assert np.abs(got_grad - want_grad).max() <= 1e-12


def test_gauge_phase_unitary_and_constant_chi_global_phase():
    cat = catalog1d(n_max=1)
    env = CosineRamp(t_final=1.0)
    chi = GaugeFunction({1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 0: 0.1}, env)
    x = chi_matrix(cat, chi, 0.8)
    u = gauge_phase(x, e=1.3)
    assert np.abs(u @ u.conj().T - np.eye(cat.size)).max() <= 1e-12

    const = GaugeFunction({0: 0.4}, env)
    xc = chi_matrix(cat, const, 0.8)
    uc = gauge_phase(xc, e=2.0)
    phase = np.exp(-1j * 2.0 * 0.4 * env.value(0.8))
    assert np.abs(uc - phase * np.eye(cat.size)).max() <= 1e-13


def test_gauge_transform_preserves_field_coefficients():
    grid = MomentumGrid(d=1, length=2 * np.pi, n_max=2)
    w = 0.2 + 0.1j
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3},
        a={1: (0, 0, w), -1: (0, 0, np.conj(w))},
        envelope=CosineRamp(t_final=1.0, omega=2.0),
    )
    chi = GaugeFunction({1: 0.15 - 0.35j, -1: 0.15 + 0.35j}, CosineRamp(t_final=1.0))
    new = gauge_transform(pot, chi, grid)
    assert len(new.terms) == len(pot.terms) + 2
    for t in (0.0, 0.33, 0.8, 1.0):
        e_old = efield_coefficients(pot, grid, t)
        e_new = efield_coefficients(new, grid, t)
        for k in set(e_old) | set(e_new):
            assert np.abs(e_new.get(k, 0) - e_old.get(k, 0)).max() <= 1e-12
        b_old = bfield_coefficients(pot, grid, t)
        b_new = bfield_coefficients(new, grid, t)
        for k in set(b_old) | set(b_new):
            assert np.abs(b_new.get(k, 0) - b_old.get(k, 0)).max() <= 1e-12


def test_pure_gauge_potential_has_zero_fields():
    grid = MomentumGrid(d=1, length=2 * np.pi, n_max=2)
    chi = GaugeFunction({2: 0.4j, -2: -0.4j}, CosineRamp(t_final=1.0))
    pure = gauge_transform(PotentialSpec.zero(), chi, grid)
    for t in (0.1, 0.5, 0.9):
        for coeff in efield_coefficients(pure, grid, t).values():
            assert np.abs(coeff).max() <= 1e-12
        for coeff in bfield_coefficients(pure, grid, t).values():
            assert np.abs(coeff).max() <= 1e-12


def test_time_derivative_envelope_views():
    env = CosineRamp(t_final=2.0, omega=1.1)
    dot = TimeDerivative(env)
    for t in (0.0, 0.4, 1.7):
        assert dot.value(t) == pytest.approx(env.dot(t), abs=1e-15)
        assert dot.dot(t) == pytest.approx(env.ddot(t), abs=1e-15)


def test_propagate_static_hamiltonian_closed_form():
    cat = catalog1d(n_max=1)
    h0 = h0_matrix(cat)
    prop = propagate(h0, (0.0, 1.5), n_steps=50)
    want = unitary_step(h0.matrix, 1.5)
    assert np.abs(prop.final - want).max() <= 1e-12
    assert np.abs(prop.at(0.0) - np.eye(cat.size)).max() == 0.0


def test_propagate_composition_and_unitarity():
    cat = catalog1d(n_max=1)
    h0 = h0_matrix(cat)
    pot = PotentialSpec.single(
        a0={1: 0.2, -1: 0.2}, envelope=CosineRamp(t_final=1.0)
    )

    def ham(t):
        return OneBodyOperator(h0.matrix + interaction_matrix(cat, pot, t).matrix)

    prop = propagate(ham, (0.0, 1.0), n_steps=200, record_every=50)
    for u in prop.matrices:
        assert np.abs(u.conj().T @ u - np.eye(cat.size)).max() <= 1e-12
    # grid-aligned restart composes exactly
    first = propagate(ham, (0.0, 0.5), n_steps=100).final
    second = propagate(ham, (0.5, 1.0), n_steps=100).final
    assert np.abs(second @ first - prop.final).max() <= 1e-12


def test_propagate_second_order_convergence():
    cat = catalog1d(n_max=1)
    h0 = h0_matrix(cat)
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3},
        a={1: (0, 0, 0.2), -1: (0, 0, 0.2)},
        envelope=CosineRamp(t_final=1.0),
    )

    def ham(t):
        return OneBodyOperator(h0.matrix + interaction_matrix(cat, pot, t).matrix)

    ref = propagate(ham, (0.0, 1.0), n_steps=4096).final
    err = [
        np.abs(propagate(ham, (0.0, 1.0), n_steps=n).final - ref).max()
        for n in (64, 128, 256)
    ]
    assert err[0] / err[1] >= 3.5
    assert err[1] / err[2] >= 3.5


def test_propagate_rejects_too_coarse_steps():
    cat = catalog1d(n_max=2)  # energies up to sqrt(5)
    with pytest.raises(ValueError):
        propagate(h0_matrix(cat), (0.0, 1.0), n_steps=2)


def test_static_potential_conserves_energy():
    cat = catalog1d(n_max=1)
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3}, a={1: (0, 0, 0.1), -1: (0, 0, 0.1)}, envelope=Constant(1.0)
    )
    h = OneBodyOperator(h0_matrix(cat).matrix + interaction_matrix(cat, pot, 0.0).matrix)
    prop = propagate(h, (0.0, 2.0), n_steps=1000, record_every=100)
    rng = np.random.default_rng(5)
    psi0 = rng.normal(size=cat.size) + 1j * rng.normal(size=cat.size)
    psi0 /= np.linalg.norm(psi0)
    energies = [np.vdot(u @ psi0, h.matrix @ (u @ psi0)).real for u in prop.matrices]
    assert max(energies) - min(energies) <= 1e-9


def test_gauge_identity_residual_trivial_cases():
    cat = catalog1d(n_max=2)
    env = CosineRamp(t_final=1.0)
    # constant chi commutes with everything and has no gradient
    const = GaugeFunction({0: 0.6}, env)
    res = gauge_identity_residual(cat, const, 0.5)
    assert res["all"] <= 1e-12


def test_gauge_identity_residual_shrinks_with_cutoff():
    # fixed momentum window |n| <= 1 across the scan: rows gain distance from
    # the moving edge, so the truncation residual there must fall strictly
    env = CosineRamp(t_final=1.0)
    chi = GaugeFunction({1: 0.2, -1: 0.2}, env)
    windowed = []
    for n_max in (2, 3, 4):
        cat = catalog1d(n_max=n_max)
        res = gauge_identity_residual(cat, chi, 1.0, window=1)
        windowed.append(res["window"])
        assert res["all"] >= res["interior"] >= res["window"]
    assert windowed[0] > windowed[1] > windowed[2]
    assert windowed[2] <= 1e-4


def oracle_coupling_matrix(catalog, scalar, vector):
    """Mode-pair loop: (target, source) = u_t^dag (s_k + alpha.v_k) u_s, n_t = n_s + k."""
    M = catalog.size
    out = np.zeros((M, M), dtype=complex)
    keys = set(scalar) | set(vector)
    if not keys:
        return out
    by_momentum = {}
    for i, mode in enumerate(catalog.modes):
        by_momentum.setdefault(mode.label.n, []).append(i)
    for k in keys:
        block = scalar.get(k, 0.0) * np.eye(4, dtype=complex)
        vec = vector.get(k)
        if vec is not None:
            block = block + np.tensordot(vec, ALPHA, axes=(0, 0))
        for n_src, src_rows in by_momentum.items():
            n_tgt = (n_src[0] + k[0], n_src[1] + k[1], n_src[2] + k[2])
            tgt_rows = by_momentum.get(n_tgt)
            if tgt_rows is None:
                continue
            for i in tgt_rows:
                ui = catalog.modes[i].u
                for j in src_rows:
                    out[i, j] += np.vdot(ui, block @ catalog.modes[j].u)
    return out


def random_fourier_maps(rng, ks):
    scalar = {k: complex(rng.normal(), rng.normal()) for k in ks}
    vector = {k: rng.normal(size=3) + 1j * rng.normal(size=3) for k in ks}
    return scalar, vector


@pytest.mark.parametrize(
    "d, n_max, keep, ks",
    [
        (1, 2, None, [(0, 0, kz) for kz in range(-4, 5)]),
        (1, 4, None, [(0, 0, kz) for kz in range(-8, 9)]),
        (3, 1, None, [(0, 0, 0), (1, -1, 0), (-1, 1, 0), (0, 1, 1), (2, -1, 1), (-1, -2, 2)]),
        (1, 1, [0, 1], [(0, 0, kz) for kz in range(-2, 3)]),
    ],
    ids=["d1-n2", "d1-n4", "d3-n1-off-axis", "restricted-0-1"],
)
def test_coupling_matrix_equals_mode_pair_loop(d, n_max, keep, ks):
    cat = build_catalog(MomentumGrid(d=d, length=2 * np.pi, n_max=n_max), 1.0)
    if keep is not None:
        cat = restrict_catalog(cat, keep)
    rng = np.random.default_rng(d * 10 + n_max)
    scalar, vector = random_fourier_maps(rng, ks)
    for s_map, v_map in ((scalar, vector), (scalar, {}), ({}, vector), ({}, {})):
        got = _coupling_matrix(cat, s_map, v_map)
        assert np.array_equal(got, oracle_coupling_matrix(cat, s_map, v_map))
