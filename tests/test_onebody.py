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

from dense_oracles import chi_matrix, dense_propagator, gauge_identity_residual, grad_chi_matrix
from diracbox.fock import (
    ManyBodyOperator,
    evolve_schrodinger,
    quantize,
    vacuum_state,
)
from diracbox.modes import ALPHA, MomentumGrid, build_catalog, label, restrict_catalog
from diracbox import onebody
from diracbox.experiments import (
    ScenarioConfig,
    _default_chi,
    _pure_gauge,
    _unit_gauge_blocks,
    run_free_baseline,
    scan_profile,
)
from diracbox.gaussian import CorrelationMatrix, _gamma, evolve_correlation, omega0_correlation
from diracbox.onebody import (
    _STEP_CHUNK,
    _THETA,
    _THETA_M,
    MAX_STEP_NORM,
    _components,
    OneBodyPropagator,
    _coupling_matrix,
    _exp_taylor,
    _route,
    _step_chunks,
    _taylor_degree,
    mode_groups,
    Constant,
    CosineRamp,
    DrivenHamiltonian,
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    PotentialTerm,
    Scaled,
    StepGuardError,
    TimeDerivative,
    bfield_coefficients,
    efield_coefficients,
    gauge_phase,
    gauge_transform,
    h0_matrix,
    interaction_term_matrices,
    propagate,
    time_grid,
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


def interaction_at(catalog, pot, t, e=1.0):
    """v(t) = -e alpha.A(t) + e A_0(t): the potential's blocks as a family on a zero h0."""
    zero = OneBodyOperator(np.zeros((catalog.size, catalog.size)))
    return DrivenHamiltonian(zero, interaction_term_matrices(catalog, pot, e)).data_at(t)


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
    assert interaction_term_matrices(cat, PotentialSpec.zero()) == []
    assert np.abs(interaction_at(cat, PotentialSpec.zero(), 0.3)).max() == 0.0


def test_interaction_constant_a0_is_scaled_identity():
    cat = catalog1d()
    pot = PotentialSpec.single(a0={0: 0.7}, envelope=Constant(1.0))
    v = interaction_at(cat, pot, 0.0, e=2.0)
    assert np.abs(v - 2.0 * 0.7 * np.eye(cat.size)).max() <= 1e-14


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
    got = interaction_at(cat, pot, t, e=1.0)
    want = quadrature_interaction(cat, pot, t, e=1.0)
    assert np.abs(got - want).max() <= 1e-12


def test_interaction_two_term_envelopes_sum():
    cat = catalog1d(n_max=1)
    t1 = PotentialTerm(a0={(0, 0, 1): 0.2, (0, 0, -1): 0.2}, a={}, envelope=Constant(1.0))
    t2 = PotentialTerm(a0={(0, 0, 1): 0.1j, (0, 0, -1): -0.1j}, a={}, envelope=Constant(3.0))
    pot = PotentialSpec((t1, t2))
    got = interaction_at(cat, pot, 0.0)
    want = interaction_at(cat, PotentialSpec((t1,)), 0.0) + interaction_at(
        cat, PotentialSpec((t2,)), 0.0
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
    v = interaction_at(cat, pot, 0.0)
    OneBodyOperator(v)  # the constructor enforces hermiticity
    assert np.abs(v - v.conj().T).max() <= 1e-12


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
        interaction_term_matrices(cat, off)
    wide = PotentialSpec.single(a0={(0, 0, 3): 0.5, (0, 0, -3): 0.5})
    with pytest.raises(ValueError):
        interaction_term_matrices(cat, wide)


def test_gauge_function_off_axis_and_band_limit_rejected():
    cat = catalog1d(n_max=1)
    env = CosineRamp(t_final=1.0)
    off = GaugeFunction({(1, 0, 0): 0.5, (-1, 0, 0): 0.5}, env)
    wide = GaugeFunction({(0, 0, 3): 0.5, (0, 0, -3): 0.5}, env)
    for chi in (off, wide):
        for build in (chi_matrix, grad_chi_matrix):
            with pytest.raises(ValueError, match="off the 1-d grid axis|beyond band limit"):
                build(cat, chi, 0.5)
        with pytest.raises(ValueError, match="off the 1-d grid axis|beyond band limit"):
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


@pytest.mark.parametrize("n_max", [2, 3, 4])
def test_gauge_phase_equals_its_own_eigh_exponential_bytewise(n_max):
    """gauge_phase shares unitary_step's kernel; the bytes of exp(-i e X) by eigh stay the same."""
    cat = catalog1d(n_max=n_max)
    env = CosineRamp(t_final=1.0)
    chis = [
        GaugeFunction({1: 1.5e-3, -1: 1.5e-3}, env),  # the gauge-heisenberg default
        GaugeFunction({1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 0: 0.1}, env),
    ]
    for chi in chis:
        for t in np.linspace(0.0, 1.0, 21):
            x = chi_matrix(cat, chi, t)
            w, v = np.linalg.eigh(x.matrix)
            for e in (1.0, 0.7, -2.0):
                want = (v * np.exp(-1j * e * w)) @ v.conj().T
                assert np.array_equal(gauge_phase(x, e), want)


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
    assert prop.times[0] == 0.0 and np.abs(prop.matrices[0] - np.eye(cat.size)).max() == 0.0


def test_propagate_composition_and_unitarity():
    cat = catalog1d(n_max=1)
    h0 = h0_matrix(cat)
    pot = PotentialSpec.single(
        a0={1: 0.2, -1: 0.2}, envelope=CosineRamp(t_final=1.0)
    )

    ham = DrivenHamiltonian(h0, interaction_term_matrices(cat, pot))

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

    ham = DrivenHamiltonian(h0, interaction_term_matrices(cat, pot))

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
    h = OneBodyOperator(h0_matrix(cat).matrix + interaction_at(cat, pot, 0.0))
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


# ---------------------------------------------------------------------------
# batched stepping against the one-step-at-a-time loop


def reference_propagate(
    hamiltonian, t_span, n_steps, record_every=1, max_step_norm=0.1, blocks=None, step=None
):
    """Midpoint loop one step at a time: an SVD norm guard and an eigh per step.

    With `blocks` (index arrays of an invariant partition of every h(t)) each
    block is stepped and chain-multiplied on its own; without, the whole
    matrix is.  With `step`, a function of (h, dt, step index), each block
    steps as step(h_block, dt, index) in place of its eigh exponential.
    """
    t0, t1 = map(float, t_span)
    h_of_t = hamiltonian if callable(hamiltonian) else (lambda t: hamiltonian)
    dt = (t1 - t0) / n_steps
    size = h_of_t(t0 + 0.5 * dt).size
    blocks = [np.arange(size)] if blocks is None else blocks
    ub = [np.eye(len(b), dtype=complex) for b in blocks]

    def joined():
        if len(blocks) == 1:
            return ub[0]
        u = np.zeros((size, size), dtype=complex)
        for b, u_b in zip(blocks, ub):
            u[np.ix_(b, b)] = u_b
        return u

    times, mats = [t0], [joined()]
    for n in range(n_steps):
        t_mid = t0 + (n + 0.5) * dt
        h = h_of_t(t_mid).matrix
        norm = np.linalg.norm(h, 2)
        if norm * dt > max_step_norm:
            raise StepGuardError(n, t_mid, norm * dt, max_step_norm)
        for i, b in enumerate(blocks):
            if step is None:
                w, v = np.linalg.eigh(h[np.ix_(b, b)])
                ub[i] = ((v * np.exp(-1j * w * dt)) @ v.conj().T) @ ub[i]
            else:
                ub[i] = step(h[np.ix_(b, b)], dt, n) @ ub[i]
        if (n + 1) % record_every == 0 or n + 1 == n_steps:
            times.append(t0 + (n + 1) * dt)
            mats.append(joined())
    return np.array(times), np.array(mats)


def chunk_taylor_step(h_of_t, t_span, n_steps):
    """The step `propagate` takes on a driven family within the guard's 1-norm bound.

    Each `_STEP_CHUNK`-step chunk takes the Taylor degree of its largest
    ||h dt||_1, read here one step at a time.
    """
    t0, t1 = map(float, t_span)
    dt = (t1 - t0) / n_steps
    norms = [np.abs(h_of_t(t0 + (n + 0.5) * dt).matrix).sum(axis=0).max() * dt for n in range(n_steps)]
    assert max(norms) <= MAX_STEP_NORM  # no chunk falls back to eigh
    degrees = [_taylor_degree(max(norms[c : c + _STEP_CHUNK])) for c in range(0, n_steps, _STEP_CHUNK)]
    return lambda h, dt, n: _exp_taylor(h, dt, degrees[n // _STEP_CHUNK])


def spin_blocks(catalog):
    """Mode indices of each spin: the invariant blocks of a d = 1 family without transverse a."""
    spins = np.array([mode.label.s for mode in catalog.modes])
    return [np.flatnonzero(spins == s) for s in sorted(set(spins))]


def pure_gauge_family(n_max=2):
    cat = catalog1d(n_max=n_max)
    chi = GaugeFunction({1: 0.04, -1: 0.04, 2: 0.01j, -2: -0.01j}, CosineRamp(t_final=1.0))
    pure = gauge_transform(PotentialSpec.zero(), chi, cat.grid)
    return DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pure))


def per_t_sum(family):
    """The family summed one t at a time: h0, then g * B in block order, g == 0 skipped."""

    def ham(t):
        m = family.h0.matrix.copy()
        for op, env in family.blocks:
            g = env.value(t)
            if g != 0.0:
                m += g * op.matrix
        return OneBodyOperator(m)

    return ham


def driven_potential_family(n_max=2):
    """A driven a0 + a_z potential: no transverse a, so the family keeps the spin blocks."""
    cat = catalog1d(n_max=n_max)
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3},
        a={1: (0, 0, 0.2), -1: (0, 0, 0.2)},
        envelope=CosineRamp(t_final=1.0),
    )
    return DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pot))


def spin_mixing_family(n_max=2):
    """A driven potential with transverse a: spin is mixed, the family is one block."""
    cat = catalog1d(n_max=n_max)
    pot = PotentialSpec.single(
        a0={1: 0.3, -1: 0.3},
        a={1: (0.1, 0, 0.2), -1: (0.1, 0, 0.2)},
        envelope=CosineRamp(t_final=1.0),
    )
    return DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pot))


@pytest.mark.parametrize(
    "route",
    ["static", "driven-family", "potential-family", "spin-mixing"],
)
def test_batched_propagate_equals_per_step_loop(route):
    blocks = None
    if route == "static":
        ham = ref = h0_matrix(catalog1d(n_max=2))
    elif route == "driven-family":
        ham = pure_gauge_family()
        ref = per_t_sum(ham)
        blocks = spin_blocks(catalog1d(n_max=2))
    elif route == "potential-family":
        ham = driven_potential_family()
        ref = per_t_sum(ham)
        blocks = spin_blocks(catalog1d(n_max=2))
    else:
        ham = spin_mixing_family()
        ref = per_t_sum(ham)
    # 203 steps is no multiple of the 16-step chunk; recording every step
    # would also show a step taken past the end of the run
    every = 1 if route == "potential-family" else 7
    prop = propagate(ham, (0.0, 1.0), n_steps=203, record_every=every)
    times, mats = reference_propagate(ref, (0.0, 1.0), n_steps=203, record_every=every)
    assert prop.times.shape == times.shape and (prop.times == times).all()
    assert prop.matrices.shape == mats.shape
    if route == "static":
        # the diagonal h0 steps its 1 x 1 blocks as exact phases: the loop's
        # eigh arithmetic bit for bit
        assert (prop.matrices == mats).all()
    else:
        # driven chunks step by the Taylor polynomial of their degree, on the
        # spin blocks where there are two: the same arithmetic step by step,
        # and the whole-matrix eigh loop as the oracle (it agrees within
        # 3.3e-14, 2.3e-14 and 2.2e-14 on these three routes)
        _, same_step = reference_propagate(
            ref, (0.0, 1.0), n_steps=203, record_every=every, blocks=blocks,
            step=chunk_taylor_step(ref, (0.0, 1.0), 203),
        )
        assert (prop.matrices == same_step).all()
        assert np.abs(prop.matrices - mats).max() <= 1e-12


def test_step_over_the_one_norm_bound_passes_the_guard_and_steps_by_taylor():
    # ||h||_1 * dt over MAX_STEP_NORM with ||h||_2 * dt under it: eigvalsh
    # meters the chunk, the guard must not trip, and the Taylor step of the
    # chunk's 1-norm degree stays with the per-step eigh loop
    cat = catalog1d(n_max=1)
    j = np.arange(cat.size)
    wide = OneBodyOperator(np.cos(2 * np.pi * np.outer(j, j) / cat.size))
    family = DrivenHamiltonian(h0_matrix(cat), [(wide, Constant(1.0))])
    n_steps = 60
    h = family.data_at(0.0)
    assert np.linalg.norm(h, 2) / n_steps < MAX_STEP_NORM < np.abs(h).sum(axis=0).max() / n_steps
    prop = propagate(family, (0.0, 1.0), n_steps=n_steps, record_every=7)
    times, mats = reference_propagate(per_t_sum(family), (0.0, 1.0), n_steps=n_steps, record_every=7)
    assert (prop.times == times).all()
    assert np.abs(prop.matrices - mats).max() <= 1e-12


def test_diagonal_operator_steps_as_the_eigh_phases():
    # 1 x 1 blocks step as exact phases: a diagonal operator, static or as a
    # family, writes the bytes of the per-step eigh loop (40 distinct
    # energies; a Taylor step would differ from the phase in the last bit
    # of some of them)
    h0 = OneBodyOperator(np.diag(np.random.default_rng(1).uniform(-3.0, 3.0, 40)))
    _, mats = reference_propagate(h0, (0.0, 1.0), n_steps=60, record_every=7)
    for ham in (h0, DrivenHamiltonian(h0, [])):
        assert (propagate(ham, (0.0, 1.0), n_steps=60, record_every=7).matrices == mats).all()


def test_taylor_degree_at_theta_m_and_just_above():
    for theta, m, above in zip(_THETA, _THETA_M, _THETA_M[1:]):
        assert _taylor_degree(theta) == m
        assert _taylor_degree(np.nextafter(theta, np.inf)) == above
    assert _taylor_degree(0.0) == 1
    # the step guard's bound lies between theta_9 and theta_10
    assert _taylor_degree(MAX_STEP_NORM) == 10


def default_gauge_family(n_max=4):
    """`gauge-heisenberg`'s pure-gauge family at its default config (M = 36 at n_max = 4)."""
    cfg = ScenarioConfig()
    cat = cfg.catalog(n_max)
    pure = _pure_gauge(GaugeFunction(_default_chi(cfg), cfg.envelope()), cat.grid)
    return cfg, cat, DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pure, cfg.e))


def exact_exp(h, dt, terms=12):
    """exp(-i h dt) as a Taylor series summed in long double: the reference for both steps."""
    a = (-1j * np.clongdouble(dt)) * h.astype(np.clongdouble)
    term = np.broadcast_to(np.eye(h.shape[-1], dtype=np.clongdouble), a.shape)
    out = term.copy()
    for j in range(1, terms):
        term = np.einsum("...ij,...jk->...ik", a, term) / j
        out = out + term
    return out


@pytest.mark.parametrize("split", [True, False], ids=["spin-blocks", "whole"])
def test_taylor_step_agrees_with_eigh_on_pure_gauge_chunks(split):
    cfg, cat, family = default_gauge_family()
    dt = cfg.t_final / 8000
    rows = spin_blocks(cat)[0] if split else np.arange(cat.size)
    for first in (0, 4000, 8000 - _STEP_CHUNK):
        h = family.stack([(first + n + 0.5) * dt for n in range(_STEP_CHUNK)])
        m = _taylor_degree(np.abs(h).sum(axis=-2).max() * dt)
        h = h[:, rows[:, None], rows[None, :]]
        assert h.shape == ((_STEP_CHUNK, 18, 18) if split else (_STEP_CHUNK, 36, 36))
        taylor = _exp_taylor(h, dt, m)
        exact = exact_exp(h, dt)
        # the Taylor step is within 1e-15 of the exponential (5.5e-17
        # measured); eigh's own roundoff at this size is 3-4e-15, so the two
        # steps agree within 1e-14
        assert np.abs(taylor - exact).max() <= 1e-15
        assert np.abs(taylor - unitary_step(h, dt)).max() <= 1e-14


def taylor_polynomial(h, dt, m):
    """The degree-m Taylor polynomial of A = -i h dt, summed term by term in long double."""
    a = (-1j * np.clongdouble(dt)) * h.astype(np.clongdouble)
    term = np.broadcast_to(np.eye(h.shape[-1], dtype=np.clongdouble), a.shape)
    out = term.copy()
    for k in range(1, m + 1):
        term = np.einsum("...ij,...jk->...ik", a, term) / k
        out = out + term
    return out


def random_hermitian(shape, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    return x + x.conj().swapaxes(-1, -2)


@pytest.mark.parametrize("shape", [(18, 18), (16, 2, 18, 18)], ids=["matrix", "spin-block-stack"])
def test_taylor_step_is_its_degree_m_polynomial(shape):
    h = random_hermitian(shape, seed=len(shape))
    one_norm = np.abs(h).sum(axis=-2).max()
    for m in range(1, 11):
        # h in either memory layout: the step's buffers are its own
        for h_in in (h, np.asfortranarray(h)):
            # at the largest 1-norm of its degree, ||A||_1 = theta_m, the step
            # is the polynomial within 2e-16 (5.6e-17 at most measured)
            dt = _THETA[m - 1] / one_norm
            assert np.abs(_exp_taylor(h_in, dt, m) - taylor_polynomial(h, dt, m)).max() <= 2e-16
            # at ||A||_1 = 1 the top terms stand far above the rounding of I, so
            # a wrong coefficient or a lost top block shows (9.6e-17 at most measured)
            dt = 1.0 / one_norm
            assert np.abs(_exp_taylor(h_in, dt, m) - taylor_polynomial(h, dt, m)).max() <= 1e-15


class CountsProducts(np.ndarray):
    """An array that counts the matrix products it takes part in, by `@` or np.matmul."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
        if ufunc is np.matmul:
            CountsProducts.products += 1
        plain = [x.view(np.ndarray) if isinstance(x, CountsProducts) else x for x in inputs]
        if out is not None:
            kwargs["out"] = tuple(x.view(np.ndarray) if isinstance(x, CountsProducts) else x for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        if out is not None:
            return out[0] if len(out) == 1 else out
        return result.view(CountsProducts)


def test_taylor_step_takes_the_paterson_stockmeyer_product_count():
    # Horner's m - 1 matmuls up to m = 3, then s - 1 powers of A and
    # (m - 1) // s Horner steps in A^s
    want = {1: 0, 2: 1, 3: 2, 4: 2, 5: 3, 6: 3, 7: 4, 8: 4, 9: 4, 10: 5}
    h = random_hermitian((16, 2, 10, 10), seed=3)
    dt = MAX_STEP_NORM / np.abs(h).sum(axis=-2).max()
    for m, products in want.items():
        CountsProducts.products = 0
        step = _exp_taylor(h.view(CountsProducts), dt, m)
        assert CountsProducts.products == products, m
        assert (step.view(np.ndarray) == _exp_taylor(h, dt, m)).all()


def test_default_gauge_run_stays_unitary():
    cfg, cat, family = default_gauge_family()
    u = propagate(family, (0.0, cfg.t_final), 8000, record_every=8000).final
    assert np.abs(u.conj().T @ u - np.eye(cat.size)).max() <= 1e-11


def reach_components(pattern):
    """The oracle of `_components`: square the reach matrix until it stops growing, label by the least index reached."""
    reach = pattern | pattern.T | np.eye(len(pattern), dtype=bool)
    while True:
        wider = reach @ reach
        if (wider == reach).all():
            return reach.argmax(axis=1)
        reach = wider


def test_components_of_a_hand_made_pattern():
    # two 3-mode blocks, isolated 6 and 7 (7 with no diagonal entry), and a
    # chain 8 - 10 - 9 whose label 8 reaches 9 through 10 only
    pattern = np.zeros((11, 11), dtype=bool)
    for block in ([0, 2, 4], [1, 3, 5]):
        pattern[np.ix_(block, block)] = True
    pattern[6, 6] = True
    pattern[8, 10] = pattern[10, 9] = True  # one direction only: taken as undirected
    assert _components(pattern).tolist() == reach_components(pattern).tolist() == [0, 1, 0, 1, 0, 1, 6, 7, 8, 8, 8]
    # one entry between the spin blocks joins them
    pattern[4, 5] = True
    assert _components(pattern).tolist() == reach_components(pattern).tolist() == [0, 0, 0, 0, 0, 0, 6, 7, 8, 8, 8]
    # a chain through every index is one block, in either direction
    for chain in (np.eye(11, k=1, dtype=bool), np.eye(11, k=-1, dtype=bool)):
        assert (_components(chain) == 0).all()


def test_components_equal_the_reach_squaring_oracle_on_random_patterns():
    rng = np.random.default_rng(25)
    for trial in range(200):
        size = int(rng.integers(1, 60))
        # densities from a few isolated entries to one connected block
        pattern = rng.random((size, size)) < rng.choice([0.0, 0.01, 0.03, 0.1, 0.5])
        # and a few diagonal entries, as h0's
        pattern |= np.diag(rng.random(size) < 0.5)
        assert _components(pattern).tolist() == reach_components(pattern).tolist(), trial


def test_pure_gauge_family_groups_are_its_spin_blocks():
    family = pure_gauge_family()
    # the groups come in the order of their least index
    groups = [g.tolist() for g in mode_groups(family.support)]
    assert groups == sorted(b.tolist() for b in spin_blocks(catalog1d(n_max=2)))
    # gauge-heisenberg's family at each default cutoff: two blocks, the spins
    for n_max in ScenarioConfig().cutoffs:
        _, cat, default = default_gauge_family(n_max)
        assert [g.tolist() for g in mode_groups(default.support)] == sorted(b.tolist() for b in spin_blocks(cat))
    # h0 alone is diagonal: every mode is its own group
    assert [g.tolist() for g in mode_groups(family.h0.matrix != 0)] == [[i] for i in range(family.h0.size)]
    # a transverse a joins the spins into one group
    assert [g.tolist() for g in mode_groups(spin_mixing_family().support)] == [list(range(family.h0.size))]


def test_family_support_is_recorded_once_when_built():
    family = spin_mixing_family()
    want = np.any([op.matrix != 0 for op in (family.h0, *(op for op, _ in family.blocks))], axis=0)
    assert (family.support == want).all() and not family.support.flags.writeable
    # both steppers read it through `_route`; a static operator becomes a family of its nonzero entries
    assert _route(family)[0].support is family.support
    static = _route(family.h0)[0]
    assert static.h0 is family.h0 and static.blocks == ()
    assert (static.support == np.eye(family.h0.size, dtype=bool)).all()
    # h(t) is zero off the support at every t
    assert not family.stack([0.1, 0.5, 1.0])[:, ~family.support].any()
    # the support is derived, so it takes no part in equality or repr
    assert family == DrivenHamiltonian(family.h0, family.blocks) and "support" not in repr(family)


def d3_scan_family(f=0.05):
    """`energy-heisenberg`'s family at d = 3, n_max = 1 (M = 108): mode groups of sizes 12 and 6."""
    cfg = ScenarioConfig(d=3, n_max=1)
    cat = cfg.catalog(1)
    blocks = _unit_gauge_blocks(cat, scan_profile(cat, cfg), cfg.envelope(), cfg.e)
    return cfg, DrivenHamiltonian(h0_matrix(cat), [(b, Scaled(f, g)) for b, g in blocks])


def silent_block_family():
    """The d = 1 pure-gauge family and an a0 block whose g is 0 before t = 0.5 and 1 from it."""
    gauge = pure_gauge_family()
    a0 = interaction_term_matrices(catalog1d(n_max=2), PotentialSpec.single(a0={1: 0.1, -1: 0.1}))[0][0]
    return DrivenHamiltonian(gauge.h0, gauge.blocks + ((a0, Window(Constant(1.0), 0.5)),))


@pytest.mark.parametrize(
    "case, sizes",
    [("d1-pure-gauge", [10]), ("d3-scan", [12, 6]), ("silent-block", [10])],
)
def test_route_chunk_entries_equal_the_dense_stack(case, sizes):
    """The entries of every chunk `_step_chunks` builds are the dense h(t) at the route's index, bit for bit."""
    if case == "d1-pure-gauge":
        family, times = pure_gauge_family(), np.linspace(0.0, 1.0, 20)
    elif case == "d3-scan":
        cfg, family = d3_scan_family()
        times = np.linspace(0.0, cfg.t_final, 20)  # g_b(0) = 0 for both blocks: h(0) = h0
    else:
        family, times = silent_block_family(), np.linspace(0.0, 1.0, 20)  # t = 0.5 falls inside the first chunk
    routed, layout, index = _route(family)
    assert routed is family and [rows.shape[1] for rows in layout] == sizes
    t_mid = times.tolist()
    chunks = list(_step_chunks(routed, layout, index, 1e-3, t_mid))
    assert [first for first, *_ in chunks] == [0, _STEP_CHUNK]
    for first, entries, hs, norm in chunks:
        dense = family.stack(t_mid[first : first + len(entries)])
        flat = dense.reshape(len(entries), -1)
        assert (entries == flat[:, index]).all()
        # h(t) is zero off the blocks, and the stacks are views of the entries, one per size class
        assert not np.delete(flat, index, axis=1).any()
        for rows, h in zip(layout, hs):
            assert np.shares_memory(h, entries)
            assert (h == dense[:, rows[:, :, None], rows[:, None, :]]).all()
        assert norm == max(np.abs(h).sum(axis=-2).max() for h in hs) * 1e-3


def test_static_operator_is_stepped_as_a_family_with_no_blocks():
    # one block of all modes and two spin blocks (`test_diagonal_operator_steps_as_the_eigh_phases`
    # has 1 x 1 blocks): the same bytes either way
    for op in (OneBodyOperator(spin_mixing_family().data_at(0.5)), OneBodyOperator(pure_gauge_family().data_at(0.5))):
        static = propagate(op, (0.0, 1.0), n_steps=203, record_every=7)
        family = propagate(DrivenHamiltonian(op, ()), (0.0, 1.0), n_steps=203, record_every=7)
        assert (static.times == family.times).all() and (static.matrices == family.matrices).all()


def test_steppers_never_build_the_dense_stack(monkeypatch):
    """Both pictures read a family on its blocks alone: `stack` is the tests' oracle, not a stepping path."""

    def dense(self, times):
        raise AssertionError("a stepper built the dense (n, M, M) h(t)")

    family = pure_gauge_family(n_max=1)
    monkeypatch.setattr(DrivenHamiltonian, "stack", dense)
    propagate(family, (0.0, 1.0), n_steps=40)
    evolve_schrodinger(vacuum_state(catalog1d(n_max=1)), family, (0.0, 1.0), n_steps=40)


def block_frame_case(case):
    """(hamiltonian, t_span, n_steps, C0, block sizes) of one layout of the block-frame tests."""
    if case in ("free-d1", "pure-gauge", "between-groups"):
        cat = catalog1d(n_max=2)
        ham = h0_matrix(cat) if case == "free-d1" else pure_gauge_family()
        c0 = omega0_correlation(cat, label(+1, 0.5, 0), label(+1, 0.5, 1))
        span, sizes = (0.0, 1.0), [1] if case == "free-d1" else [10]
        if case == "between-groups":
            # occupations in [0, 1] in a random basis: entries between the two spin groups
            q, _ = np.linalg.qr(np.random.default_rng(7).normal(size=(cat.size,) * 2) + 0j)
            c0 = CorrelationMatrix((q * np.linspace(0.0, 1.0, cat.size)) @ q.conj().T)
        return ham, span, 200, c0, sizes
    cfg = ScenarioConfig(d=3, n_max=1)
    cat = cfg.catalog(1)
    c0 = omega0_correlation(cat, cfg.mode1, cfg.mode2)
    if case == "free-d3":
        return h0_matrix(cat), (0.0, 0.1), 20, c0, [1]
    return d3_scan_family()[1], (0.0, cfg.t_final), 400, c0, [12, 6]


@pytest.mark.parametrize("case", ["free-d1", "free-d3", "pure-gauge", "d3-scan", "between-groups"])
def test_block_frames_equal_the_dense_conjugation(case):
    """evolve_correlation on u's blocks: within 1e-14 of the dense conj(u) C u^T, and the dense unitarity defect.

    Both defects are norms of computed u^dag u - I; each product is within
    g |u|^T |u| of the exact one entrywise (g = 2 gamma_{M+2}), so the two
    differ by at most 2 g || |u|^T |u| ||_F.
    """
    ham, span, n_steps, c0, sizes = block_frame_case(case)
    prop = propagate(ham, span, n_steps, record_every=n_steps // 4)
    assert [rows.shape[1] for rows in prop.layout] == sizes
    frames = evolve_correlation(c0, prop)
    assert len(frames) == len(prop.times) == 5
    eye = np.eye(prop.size)
    for frame, u in zip(frames, prop.matrices):
        assert np.abs(frame.matrix - u.conj() @ c0.matrix @ u.T).max() <= 1e-14
    dense = max(np.linalg.norm(u.conj().T @ u - eye) for u in prop.matrices)
    rounding = max(np.linalg.norm(np.abs(u).T @ np.abs(u)) for u in prop.matrices) * 4.0 * _gamma(prop.size + 2)
    assert abs(prop.unitarity_defect - dense) <= rounding


def test_propagator_checks_every_block_as_its_dense_matrix():
    """A NaN in one block, or one block off unitarity, raises what the dense matrix raises; a defect is the dense one."""
    prop = propagate(pure_gauge_family(), (0.0, 1.0), 40, record_every=20)
    [rows], [stack] = prop.layout, prop.blocks

    def verdicts(change):
        blocks = stack.copy()
        change(blocks)
        errors = []
        for build in (
            lambda: OneBodyPropagator(prop.times, [blocks], [rows]),
            lambda: dense_propagator(prop.times, onebody._join([(rows, blocks)], prop.size)),
        ):
            with pytest.raises((ValueError, FloatingPointError)) as err:
                build()
            errors.append((err.type, str(err.value)))
        return errors

    def nan(blocks):
        blocks[1, 0, 2, 3] = np.nan

    def half(blocks):
        blocks[2, 1] *= 0.5

    [(kind, message), dense] = verdicts(nan)
    assert (kind, message) == dense == (FloatingPointError, "propagator is not finite: unitarity drift nan")
    [(kind, message), dense] = verdicts(half)
    assert (kind, message) == dense and kind is ValueError and message.startswith("propagator lost unitarity: ")
    # a block 1e-12 off unitarity: its defect is 2e-12 sqrt(10), the same from the blocks and the dense matrix
    blocks = stack.copy()
    blocks[2, 1] *= 1.0 + 1e-12
    got = OneBodyPropagator(prop.times, [blocks], [rows]).unitarity_defect
    want = dense_propagator(prop.times, onebody._join([(rows, blocks)], prop.size)).unitarity_defect
    assert got == pytest.approx(want, rel=1e-3) and got == pytest.approx(2e-12 * np.sqrt(10), rel=1e-3)


def test_free_d3_baseline_never_builds_a_dense_u(monkeypatch):
    """The free d = 3 baseline steps, checks and conjugates u on its 1 x 1 blocks: no dense view is built."""

    def dense(blocks, size):
        raise AssertionError("a dense u was built")

    monkeypatch.setattr(onebody, "_join", dense)
    report = run_free_baseline(ScenarioConfig(d=3, n_max=1, n_steps=20, t_final=0.1))
    assert report.passed


def test_propagate_partitions_once_before_the_first_chunk(monkeypatch):
    """One partition per call, from the family's support: none per chunk, at 8000 steps (500 chunks)."""
    calls = {"_route": 0, "_components": 0, "_split": 0}
    for name in calls:
        original = getattr(onebody, name)

        def counted(*args, _original=original, _name=name):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(onebody, name, counted)
    _, cat, family = default_gauge_family()
    for ham in (family, family.h0):
        propagate(ham, (0.0, 1.0), 8000, record_every=400)
        assert calls == {"_route": 1, "_components": 1, "_split": 1}
        calls.update(_route=0, _components=0, _split=0)


def test_family_with_all_zero_blocks_is_stepped_as_its_h0():
    # chi_amplitude = 0: the pure-gauge blocks are all zero, so the support is
    # h0's diagonal and the family steps as exact phases, chunk by chunk
    _, cat, family = default_gauge_family()
    zero = DrivenHamiltonian(family.h0, [(OneBodyOperator(0.0 * op.matrix), env) for op, env in family.blocks])
    assert len(mode_groups(zero.support)) == cat.size
    got = propagate(zero, (0.0, 1.0), 8000, record_every=400)
    want = propagate(family.h0, (0.0, 1.0), 8000, record_every=400)
    assert (got.times == want.times).all() and (got.matrices == want.matrices).all()


class Window:
    """An envelope that is exactly 0 outside [start, stop), `base` shifted to start inside."""

    def __init__(self, base, start, stop=np.inf):
        self.base, self.start, self.stop = base, start, stop

    def value(self, t):
        return self.base.value(t - self.start) if self.start <= t < self.stop else 0.0


def test_partition_coarsens_mid_run():
    # h0 alone, a pure-gauge coupling on [0.2, 0.4), h0 alone again, then a
    # transverse a from 0.7: the support of the whole family is one block, so
    # u is stepped as one block from the first step, within 1e-12 of the eigh
    # loop throughout
    gauge = pure_gauge_family()
    mixing = spin_mixing_family()
    family = DrivenHamiltonian(
        gauge.h0,
        [(op, Window(env, 0.2, 0.4)) for op, env in gauge.blocks]
        + [(op, Window(env, 0.7)) for op, env in mixing.blocks],
    )
    prop = propagate(family, (0.0, 1.0), n_steps=203, record_every=7)
    _, mats = reference_propagate(per_t_sum(family), (0.0, 1.0), n_steps=203, record_every=7)
    assert np.abs(prop.matrices - mats).max() <= 1e-12
    eye = np.eye(family.h0.size)
    assert max(np.abs(u.conj().T @ u - eye).max() for u in prop.matrices) <= 1e-12
    # before the gauge coupling starts, u is exactly the diagonal free phase
    assert (prop.matrices[1] == mats[1]).all()


def phase_chain(diagonal_at, t_span, n_steps, record_every):
    """u of a diagonal h(t) one step at a time: exp(-i h_n dt) @ u on each 1 x 1 block, the recorded u joined."""
    dt, t_mid, _, kept = time_grid(t_span, n_steps, record_every)
    u = np.ones((len(diagonal_at(t_mid[0])), 1, 1), dtype=complex)
    mats = [np.diag(u[:, 0, 0])]
    for step, t in enumerate(t_mid, start=1):
        u = np.exp(-1j * diagonal_at(t).real * dt)[:, None, None] @ u
        if step in kept:
            mats.append(np.diag(u[:, 0, 0]))
    return np.array(mats)


def test_static_diagonal_chain_is_the_per_step_phase_chain():
    # the default cutoff's h0 over 8000 steps: cumulative products of the
    # phases, 256 steps at a time, with the bytes of a product per step
    _, cat, family = default_gauge_family()
    prop = propagate(family.h0, (0.0, 1.0), n_steps=8000, record_every=400)
    energies = np.diag(family.h0.matrix)
    assert len(prop.matrices) == 21
    assert (prop.matrices == phase_chain(lambda t: energies, (0.0, 1.0), 8000, 400)).all()


def test_coupling_that_starts_inside_a_chunk_keeps_the_phase_chain_before_it():
    # the pure-gauge coupling starts at step 40, inside the chunk of steps
    # 32-47; the family's support holds the coupling, so every step, those
    # of h0 alone included, is a Taylor step on the spin blocks, within
    # 1e-12 of the eigh loop
    gauge = pure_gauge_family()
    n_steps = 203
    start = 40 / n_steps  # t_mid[39] < start <= t_mid[40]
    family = DrivenHamiltonian(gauge.h0, [(op, Window(env, start)) for op, env in gauge.blocks])
    prop = propagate(family, (0.0, 1.0), n_steps=n_steps)
    _, mats = reference_propagate(per_t_sum(family), (0.0, 1.0), n_steps=n_steps)
    assert np.abs(prop.matrices - mats).max() <= 1e-12


def test_driven_family_stack_equals_per_t_call():
    family = pure_gauge_family()
    cat = catalog1d(n_max=2)
    # a block whose envelope is zero throughout is skipped, as at g(0) = 0
    silent = interaction_term_matrices(cat, PotentialSpec.single(a0={1: 0.1, -1: 0.1}))[0][0]
    family = DrivenHamiltonian(family.h0, family.blocks + ((silent, Constant(0.0)),))
    times = [0.0] + [(step + 0.5) / 203 for step in range(20)] + [1.0]
    stack = family.stack(times)
    assert stack.shape == (len(times), cat.size, cat.size)
    for t, h in zip(times, stack):
        want = per_t_sum(family)(t).matrix
        assert (h == want).all() and (family.data_at(t) == want).all()


def test_driven_family_validates_blocks_once():
    cat = catalog1d(n_max=1)
    h0 = h0_matrix(cat)
    skew = 1j * np.eye(cat.size)
    with pytest.raises(ValueError, match="hermiticity"):
        OneBodyOperator(skew)  # no operator skips the check
    with pytest.raises(ValueError, match="hermitian OneBodyOperator"):
        DrivenHamiltonian(h0, [(skew, Constant(1.0))])  # a raw matrix is not a checked block
    with pytest.raises(ValueError, match="shape"):
        DrivenHamiltonian(h0, [(h0_matrix(catalog1d(n_max=2)), Constant(1.0))])
    # one family for both pictures: a quantized operator is neither its h0 nor a block
    small = restrict_catalog(cat, [0])
    vac = vacuum_state(small)
    h0q = quantize(h0_matrix(small), vac.basis)
    with pytest.raises(ValueError, match="hermiticity"):
        ManyBodyOperator(1j * h0q.matrix, vac.basis)  # nor does a quantized one
    with pytest.raises(ValueError, match="hermitian OneBodyOperator, got ManyBodyOperator"):
        DrivenHamiltonian(h0q, [])
    with pytest.raises(ValueError, match="hermitian OneBodyOperator, got ManyBodyOperator"):
        DrivenHamiltonian(h0_matrix(small), [(h0q, Constant(1.0))])
    # both steppers take the same two kinds and nothing else: no bare callable, no quantized operator
    steppers = (
        lambda ham: propagate(ham, (0.0, 1.0), n_steps=20),
        lambda ham: evolve_schrodinger(vac, ham, (0.0, 1.0), n_steps=20),
    )
    for step in steppers:
        for ham in (lambda t: skew, h0q):
            with pytest.raises(ValueError, match="must be a OneBodyOperator or a DrivenHamiltonian"):
                step(ham)


def stepper_guard_errors(cat, family, n_steps):
    """The StepGuardError of each picture on `family`: propagate's, then evolve_schrodinger's on the vacuum."""
    errors = []
    for step in (
        lambda: propagate(family, (0.0, 1.0), n_steps),
        lambda: evolve_schrodinger(vacuum_state(cat), family, (0.0, 1.0), n_steps),
    ):
        with pytest.raises(StepGuardError, match=r"^step too coarse") as got:
            step()
        errors.append(got.value)
    return errors


def test_step_guard_trips_at_the_reference_step():
    """Both pictures trip at the reference loop's step, with its time and, within 1e-12, its value."""
    cat = catalog1d(n_max=1)  # ||h0|| = sqrt(2)
    ramp = interaction_term_matrices(cat, PotentialSpec.single(a0={0: 5.0}, envelope=CosineRamp(1.0)))
    family = DrivenHamiltonian(h0_matrix(cat), ramp)
    with pytest.raises(StepGuardError) as ref:
        reference_propagate(per_t_sum(family), (0.0, 1.0), n_steps=40)
    # the ramp's norm crosses 0.1 / dt in the second chunk of steps
    assert 16 < ref.value.step < 39
    got, fock_got = stepper_guard_errors(cat, family, 40)
    for err in (got, fock_got):
        assert err.step == ref.value.step
        assert err.time == ref.value.time == (ref.value.step + 0.5) * (1.0 / 40)
        assert err.value == pytest.approx(ref.value.value, rel=1e-12)
        assert err.bound == 0.1
        assert f"at step {ref.value.step}" in str(err)
    assert fock_got.value == got.value and str(fock_got) == str(got)


def test_step_guard_of_a_split_family_trips_at_the_reference_step():
    """propagate at M = 20 and M = 12; evolve_schrodinger at M = 12, a Fock space within the mode cap."""
    for n_max in (2, 1):
        family = pure_gauge_family(n_max)
        strong = DrivenHamiltonian(
            family.h0, [(OneBodyOperator(60.0 * op.matrix), env) for op, env in family.blocks]
        )
        with pytest.raises(StepGuardError) as ref:
            reference_propagate(per_t_sum(strong), (0.0, 1.0), n_steps=40)
        assert 0 < ref.value.step < 39
        if n_max == 1:
            errors = stepper_guard_errors(catalog1d(n_max=1), strong, 40)
        else:
            with pytest.raises(StepGuardError) as got:
                propagate(strong, (0.0, 1.0), n_steps=40)
            errors = [got.value]
        # both pictures read max|w| over the spin blocks of one guarded chunk: one error, value and message
        for err in errors:
            assert err.step == ref.value.step
            assert err.time == ref.value.time == (ref.value.step + 0.5) * (1.0 / 40)
            assert err.value == pytest.approx(ref.value.value, rel=1e-12)
            assert str(err) == str(ref.value)
        if n_max == 1:
            got, fock_got = errors
            assert fock_got.value == got.value and str(fock_got) == str(got)


@pytest.mark.parametrize("stepper", ["propagate", "evolve_schrodinger"])
def test_steppers_share_one_time_grid(stepper):
    cat = catalog1d(n_max=0)  # ||h0|| = 1
    if stepper == "propagate":
        def run(t_span, n_steps, record_every):
            return propagate(h0_matrix(cat), t_span, n_steps, record_every).times
    else:
        vac = vacuum_state(cat)

        def run(t_span, n_steps, record_every):
            return evolve_schrodinger(vac, h0_matrix(cat), t_span, n_steps, record_every)[0]

    for t_span, n_steps, record_every, what in (
        ((0.0, 1.0), 0, 1, "n_steps"),
        ((1.0, 1.0), 20, 1, "t_span"),
        ((0.0, 1.0), 20, 0, "record_every"),
        ((0.0, 1.0), 20, -3, "record_every"),
    ):
        with pytest.raises(ValueError, match=what):
            run(t_span, n_steps, record_every)
    # every third step and the last one
    want = [0.0] + [step * (1.0 / 20) for step in (3, 6, 9, 12, 15, 18, 20)]
    assert run((0.0, 1.0), 20, 3).tolist() == want


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_values_fail_the_operator_check_and_the_step_guard():
    """A NaN compares false with every bound: the hermiticity check and the step guard name it."""
    with pytest.raises(FloatingPointError, match="one-body matrix is not finite"):
        OneBodyOperator(np.diag([0.0, np.nan]))
    # finite and hermitian, but its absolute column sums overflow to inf
    huge = OneBodyOperator(np.full((2, 2), 1e308, dtype=complex))
    with pytest.raises(FloatingPointError, match=r"^step guard: \|\|h\|\|_1\*dt = inf is not finite"):
        propagate(huge, (0.0, 1.0), 10)


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf, the gap of an infinite amplitude
def test_overflowing_data_fail_the_checks_as_numerical_trips():
    """A check that only its absolute tolerance fails, on data too large for it, is a FloatingPointError."""
    # hermitian up to the last bit of entries near 1e300: rounding, not asymmetry
    big = np.array([[0.0, 1e300], [np.nextafter(1e300, np.inf), 0.0]], dtype=complex)
    with pytest.raises(FloatingPointError, match=r"^one-body matrix of magnitude 1\.000e\+300 misses the tolerance"):
        OneBodyOperator(big)
    # the same entries with a real asymmetry, and a small one, stay ValueErrors
    for skew in (np.array([[0.0, 1e300], [2e300, 0.0]]), np.array([[0.0, 1.0], [1.0 + 1e-9, 0.0]])):
        with pytest.raises(ValueError, match="hermiticity violated"):
            OneBodyOperator(skew)
    # the reality check of amplitudes: rounding, a NaN, and a real violation
    with pytest.raises(FloatingPointError, match=r"^chi: amplitude at k = \(0, 0, 1\) of magnitude 1\.000e\+300"):
        GaugeFunction({1: 1e300, -1: np.nextafter(1e300, np.inf)}, CosineRamp(1.0))
    with pytest.raises(FloatingPointError, match=r"^a0: amplitude at k = \(0, 0, 1\) is not finite"):
        PotentialSpec.single(a0={1: np.nan, -1: np.nan})
    # an infinite amplitude is not finite either, though inf == inf: a vector component, a scalar, a partner pair
    inf = np.inf
    with pytest.raises(FloatingPointError, match=r"^a: amplitude at k = \(0, 0, 1\) is not finite: deviation nan"):
        PotentialSpec.single(a={1: [0.0, 0.0, inf], -1: [0.0, 0.0, inf]})
    with pytest.raises(FloatingPointError, match=r"^chi: amplitude at k = \(0, 0, 1\) is not finite"):
        GaugeFunction({1: inf, -1: inf}, CosineRamp(1.0))
    with pytest.raises(FloatingPointError, match=r"^a0: amplitude at k = \(0, 0, 1\) is not finite"):
        PotentialSpec.single(a0={1: complex(inf, 1.0), -1: complex(inf, -1.0)})
    with pytest.raises(ValueError, match="reality violated"):
        GaugeFunction({1: 1e300, -1: 2e300}, CosineRamp(1.0))
