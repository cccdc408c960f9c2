"""Fock backend tests.

Ladder oracle: dense Jordan-Wigner matrices assembled from explicit
Kronecker products (sign string of Z factors below the lowered mode),
independent of the package's bit arithmetic.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import expm_multiply

from diracbox.experiments import _manybody_hamiltonian
from diracbox.fock import (
    FockBasis,
    LadderSet,
    ManyBodyOperator,
    build_ladders,
    car_residual,
    commutator_identity_check,
    correlation_from_state,
    evolve_schrodinger,
    expectation,
    h0_spectrum_check,
    omega0_state,
    quantize,
    vacuum_state,
)
from diracbox.gaussian import CorrelationMatrix
from diracbox.modes import MomentumGrid, build_catalog, label, restrict_catalog
from diracbox.onebody import (
    Constant,
    CosineRamp,
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    gauge_transform,
    h0_matrix,
    interaction_term_matrices,
)

SMINUS = np.array([[0.0, 1.0], [0.0, 0.0]])
ZED = np.diag([1.0, -1.0])
EYE2 = np.eye(2)


def oracle_annihilator(M, i):
    """kron chain with mode 0 on the least-significant index."""
    out = np.array([[1.0]])
    for j in range(M - 1, -1, -1):
        factor = EYE2 if j > i else (SMINUS if j == i else ZED)
        out = np.kron(out, factor)
    return out


def catalog1d(n_max=1, m=1.0):
    return build_catalog(MomentumGrid(d=1, length=2 * np.pi, n_max=n_max), m)


def random_hermitian(M, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    return OneBodyOperator((a + a.conj().T) / 2)


def test_ladders_match_kronecker_oracle():
    M = 4
    ladders = build_ladders(M)
    for i in range(M):
        assert np.abs(ladders.c(i).toarray() - oracle_annihilator(M, i)).max() <= 1e-15


def test_car_residual_tiny_at_m8():
    assert car_residual(build_ladders(8)) <= 1e-12


def test_car_negative_control_sign_string_dropped():
    good = build_ladders(4)
    broken = tuple(abs(c) for c in good.lowering)  # kill the JW signs
    bad = LadderSet(good.basis, broken, None)
    assert car_residual(bad) > 0.1


def test_fock_mode_cap():
    with pytest.raises(ValueError):
        FockBasis(15)
    with pytest.raises(ValueError):
        build_ladders(0)


def test_vacuum_annihilated_by_electron_and_positron_operators():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    vac = vacuum_state(ladders).amplitudes
    for mode in cat.modes:
        lbl = mode.label
        op = (
            ladders.electron_annihilator(lbl)
            if lbl.lam == +1
            else ladders.positron_annihilator(lbl)
        )
        assert np.linalg.norm(op @ vac) <= 1e-14


def test_vacuum_free_energy_is_minus_sea_sum():
    # n_max = 0, m = 1: two sea modes, <0|H0|0> = -2
    cat = catalog1d(n_max=0)
    ladders = build_ladders(cat)
    h0q = quantize(h0_matrix(cat), ladders)
    val = expectation(vacuum_state(ladders), h0q)
    assert val.real == pytest.approx(-2.0, abs=1e-12)
    assert abs(val.imag) <= 1e-14

    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    val = expectation(vacuum_state(ladders), quantize(h0_matrix(cat), ladders))
    assert val.real == pytest.approx(cat.sea_energy(), abs=1e-12)


def test_quantized_identity_counts_sea_particles():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    number = quantize(OneBodyOperator(np.eye(cat.size, dtype=complex)), ladders)
    val = expectation(vacuum_state(ladders), number)
    assert val.real == pytest.approx(cat.size / 2, abs=1e-12)


def test_quantize_is_linear():
    ladders = build_ladders(4)
    h1 = random_hermitian(4, seed=7)
    h2 = random_hermitian(4, seed=8)
    combo = OneBodyOperator(0.5 * h1.matrix + 2.0 * h2.matrix)
    lhs = quantize(combo, ladders).matrix
    rhs = 0.5 * quantize(h1, ladders).matrix + 2.0 * quantize(h2, ladders).matrix
    assert np.abs((lhs - rhs).toarray()).max() <= 1e-13


def test_commutator_identity_diagonal_h_exact():
    cat = catalog1d(n_max=0)
    ladders = build_ladders(cat)
    assert commutator_identity_check(h0_matrix(cat), ladders) <= 1e-14


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_commutator_identity_random_hermitian(seed):
    ladders = build_ladders(6)
    assert commutator_identity_check(random_hermitian(6, seed), ladders) <= 1e-12


def test_omega0_norm_orthogonality_and_energy_gap():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    m1, m2 = label(+1, 0.5, 0), label(+1, 0.5, 1)
    omega = omega0_state(ladders, m1, m2)
    vac = vacuum_state(ladders)
    assert np.linalg.norm(omega.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert abs(omega.overlap(vac)) <= 1e-14
    h0q = quantize(h0_matrix(cat), ladders)
    gap = expectation(omega, h0q).real - expectation(vac, h0q).real
    # (E1 + E2)/2 = (1 + sqrt(2))/2 at m = 1, p2 = 1
    assert gap == pytest.approx(1.2071067811865475, abs=1e-12)


def test_omega0_rejects_bad_modes():
    ladders = build_ladders(catalog1d(n_max=1))
    with pytest.raises(ValueError):
        omega0_state(ladders, label(-1, 0.5, 0), label(+1, 0.5, 1))
    with pytest.raises(ValueError):
        omega0_state(ladders, label(+1, 0.5, 0), label(+1, 0.5, 0))


def test_free_evolution_matches_closed_form_phases():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    m1, m2 = label(+1, 0.5, 0), label(+1, 0.5, 1)
    omega = omega0_state(ladders, m1, m2)
    h0q = quantize(h0_matrix(cat), ladders)
    t_final = 1.3
    times, states = evolve_schrodinger(omega, h0q, (0.0, t_final), n_steps=13)
    e_sea = cat.sea_energy()
    e1, e2 = 1.0, np.sqrt(2.0)
    vac = vacuum_state(ladders).amplitudes
    b1d = ladders.electron_annihilator(m1).conj().T
    b2d = ladders.electron_annihilator(m2).conj().T
    for t, st_t in zip(times, states):
        want = (
            np.exp(-1j * (e_sea + e1) * t) * (b1d @ vac)
            + np.exp(-1j * (e_sea + e2) * t) * (b2d @ vac)
        ) / np.sqrt(2.0)
        assert np.linalg.norm(st_t.amplitudes - want) <= 1e-10


def test_vacuum_stationary_under_driven_evolution_norm_preserved():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    pot = PotentialSpec.single(
        a0={(0, 0, 1): 0.1 + 0.05j, (0, 0, -1): 0.1 - 0.05j}, envelope=Constant(1.0)
    )
    h0q = quantize(h0_matrix(cat), ladders)
    [(v, _)] = interaction_term_matrices(cat, pot)
    vq = quantize(v, ladders)

    def ham(t):
        return type(vq)(h0q.matrix + np.cos(t) * vq.matrix)

    omega = omega0_state(ladders, label(+1, 0.5, 0), label(+1, 0.5, 1))
    times, states = evolve_schrodinger(omega, ham, (0.0, 1.0), n_steps=1000, record_every=100)
    # FockState construction enforces the norm bound; assert the final drift anyway
    assert abs(np.linalg.norm(states[-1].amplitudes) - 1.0) <= 1e-10


def test_spectrum_check_n_max_zero():
    facts = h0_spectrum_check(build_ladders(catalog1d(n_max=0)))
    assert facts["min_eigenvalue"] == pytest.approx(-2.0, abs=1e-12)
    assert facts["sea_energy_deviation"] <= 1e-10
    assert facts["off_diagonal_weight"] <= 1e-14
    assert facts["min_is_vacuum"] == 1.0
    assert facts["gap"] == pytest.approx(facts["lightest_mode_energy"], abs=1e-12)


def test_spectrum_check_m8_subset():
    cat = restrict_catalog(catalog1d(n_max=1), [0, 1])
    facts = h0_spectrum_check(build_ladders(cat))
    assert facts["sea_energy_deviation"] <= 1e-10
    assert facts["min_is_vacuum"] == 1.0
    assert facts["gap"] == pytest.approx(1.0, abs=1e-12)


def test_correlation_from_state_vacuum_projector():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat)
    C = correlation_from_state(vacuum_state(ladders), ladders)
    assert isinstance(C, CorrelationMatrix)  # the validated type the observables read
    want = np.diag([1.0 if m.label.lam == -1 else 0.0 for m in cat.modes])
    assert np.abs(C.matrix - want).max() <= 1e-14


def test_evolution_rejects_non_hermitian_generator():
    cat = catalog1d(n_max=0)
    ladders = build_ladders(cat)
    skew = 1j * quantize(h0_matrix(cat), ladders).matrix
    with pytest.raises(ValueError, match="hermiticity"):
        ManyBodyOperator(skew)  # no operator skips the check
    vac = vacuum_state(ladders)
    # a per-step callable must yield a (checked) ManyBodyOperator on every step
    with pytest.raises(ValueError, match="hermitian ManyBodyOperator"):
        evolve_schrodinger(vac, lambda t: skew, (0.0, 1.0), n_steps=2)


# ---------------------------------------------------------------------------
# the quantized Hamiltonian family against the per-step closure


def per_step_closure(catalog, ladders, pot, e=1.0):
    """h0 + sum_b g_b(t) B_b quantized, one checked ManyBodyOperator per t (the oracle)."""
    h0q = quantize(h0_matrix(catalog), ladders).matrix
    blocks = [
        (quantize(op, ladders).matrix, env)
        for op, env in interaction_term_matrices(catalog, pot, e)
    ]

    def ham(t):
        m = h0q
        for bq, env in blocks:
            g = env.value(t)
            if g != 0.0:
                m = m + g * bq
        return ManyBodyOperator(m)

    return ham


def reference_evolve(state, ham, t_span, n_steps, record_every):
    """One expm_multiply per midpoint step, recorded at every record_every-th and the last."""
    t0, t1 = t_span
    dt = (t1 - t0) / n_steps
    psi = state.amplitudes.copy()
    times, amps = [t0], [psi.copy()]
    for step in range(n_steps):
        psi = expm_multiply((-1j * dt) * ham(t0 + (step + 0.5) * dt).matrix, psi)
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            times.append(t0 + (step + 1) * dt)
            amps.append(psi.copy())
    return np.array(times), np.array(amps)


def pure_gauge_m8():
    cat = restrict_catalog(catalog1d(n_max=1), [0, 1])
    chi = GaugeFunction({1: 0.05, -1: 0.05}, CosineRamp(t_final=1.0))
    return cat, build_ladders(cat), gauge_transform(PotentialSpec.zero(), chi, cat.grid)


@pytest.mark.parametrize("route", ["static", "driven-family", "lambda"])
def test_evolve_schrodinger_equals_per_step_loop(route):
    cat, ladders, pure = pure_gauge_m8()
    if route == "static":
        ham = quantize(h0_matrix(cat), ladders)
        ref = lambda t: ham  # noqa: E731
    else:
        family = _manybody_hamiltonian(cat, ladders, quantize(h0_matrix(cat), ladders), pure, 1.0)
        ham = family if route == "driven-family" else (lambda t: family(t))
        ref = per_step_closure(cat, ladders, pure)
    omega = omega0_state(ladders, label(+1, 0.5, 0), label(+1, 0.5, 1))
    times, states = evolve_schrodinger(omega, ham, (0.0, 1.0), n_steps=23, record_every=5)
    want_t, want_amps = reference_evolve(omega, ref, (0.0, 1.0), 23, 5)
    assert times.shape == want_t.shape and (times == want_t).all()
    amps = np.array([s.amplitudes for s in states])
    assert amps.shape == want_amps.shape and (amps == want_amps).all()


def test_family_steps_without_building_operators(monkeypatch):
    cat, ladders, pure = pure_gauge_m8()
    family = _manybody_hamiltonian(cat, ladders, quantize(h0_matrix(cat), ladders), pure, 1.0)
    omega = omega0_state(ladders, label(+1, 0.5, 0), label(+1, 0.5, 1))
    built = []
    original = ManyBodyOperator.__post_init__

    def counted(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(ManyBodyOperator, "__post_init__", counted)
    evolve_schrodinger(omega, family, (0.0, 1.0), n_steps=20)
    assert built == []
