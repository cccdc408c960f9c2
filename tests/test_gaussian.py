"""Gaussian backend tests.

The exact Fock backend is the oracle: omega0 correlation entries, the
evolution index convention, and bilinear expectations are all compared
against 2^M linear algebra on an M = 8 momentum subset.
"""

import numpy as np
import pytest

from diracbox.fock import (
    correlation_from_state,
    evolve_schrodinger,
    expectation,
    omega0_state,
    quantize,
)
from diracbox.gaussian import (
    CorrelationMatrix,
    bilinear_expectation,
    evolve_correlation,
    omega0_correlation,
    vacuum_correlation,
)
from diracbox.modes import MomentumGrid, build_catalog, label, restrict_catalog
from diracbox.onebody import (
    CosineRamp,
    DrivenHamiltonian,
    OneBodyOperator,
    OneBodyPropagator,
    PotentialSpec,
    h0_matrix,
    interaction_term_matrices,
    propagate,
)


def catalog_m8():
    full = build_catalog(MomentumGrid(d=1, length=2 * np.pi, n_max=1), 1.0)
    return restrict_catalog(full, [0, 1])


MODE1 = label(+1, 0.5, 0)
MODE2 = label(+1, 0.5, 1)


def drive_potential():
    w = 0.25 - 0.15j
    s = 0.2 + 0.1j
    return PotentialSpec.single(
        a0={1: s, -1: np.conj(s)},
        a={1: (0, 0, w), -1: (0, 0, np.conj(w))},
        envelope=CosineRamp(t_final=1.0),
    )


def test_vacuum_correlation_is_sea_projector():
    cat = catalog_m8()
    C = vacuum_correlation(cat)
    mat = C.matrix
    assert np.abs(mat @ mat - mat).max() <= 1e-14
    assert C.particle_number() == pytest.approx(cat.size / 2)
    for i, mode in enumerate(cat.modes):
        assert mat[i, i].real == (1.0 if mode.label.lam == -1 else 0.0)


def test_omega0_correlation_matches_fock_entrywise():
    cat = catalog_m8()
    C = omega0_correlation(cat, MODE1, MODE2).matrix
    C_fock = correlation_from_state(omega0_state(cat, MODE1, MODE2)).matrix
    assert np.abs(C - C_fock).max() <= 1e-12
    # rank-one block on top of the sea: eigenvalues stay in {0, 1}
    w = np.linalg.eigvalsh(C)
    assert np.abs(w - np.round(w)).max() <= 1e-12
    assert int(round(w.sum())) == cat.size // 2 + 1


def test_omega0_rejects_bad_modes():
    cat = catalog_m8()
    with pytest.raises(ValueError):
        omega0_correlation(cat, label(-1, 0.5, 0), MODE2)
    with pytest.raises(ValueError):
        omega0_correlation(cat, MODE1, MODE1)


def test_correlation_validation():
    with pytest.raises(ValueError):
        CorrelationMatrix(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ValueError):
        CorrelationMatrix(np.diag([1.5, 0.0]))  # eigenvalue beyond 1


def test_evolution_convention_frozen_against_fock():
    """conj(u) C u^T reproduces the exact Fock correlation trajectory.

    Both sides use midpoint stepping at the same step count; for a bilinear
    generator the two are the same evolution, so agreement is roundoff-level.
    """
    cat = catalog_m8()
    omega = omega0_state(cat, MODE1, MODE2)
    h0 = h0_matrix(cat)
    blocks = interaction_term_matrices(cat, drive_potential())
    family = DrivenHamiltonian(h0, blocks)  # one family, stepped in both pictures

    n_steps = 60
    times, states = evolve_schrodinger(omega, family, (0.0, 1.0), n_steps, record_every=20)
    prop = propagate(family, (0.0, 1.0), n_steps, record_every=20)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    for t, state, C_gauss in zip(times, states, evolve_correlation(C0, prop)):
        C_fock = correlation_from_state(state).matrix
        assert np.abs(C_fock - C_gauss.matrix).max() <= 1e-11, f"mismatch at t={t}"
    assert all(env.value(0.0) == 0.0 for _, env in blocks)  # drive really starts at zero


def test_evolution_preserves_occupation_spectrum():
    cat = catalog_m8()
    one_body = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, drive_potential()))

    prop = propagate(one_body, (0.0, 1.0), 80, record_every=80)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    C1 = evolve_correlation(C0, prop)[-1]
    w0 = np.linalg.eigvalsh(C0.matrix)
    w1 = np.linalg.eigvalsh(C1.matrix)
    assert np.abs(np.sort(w0) - np.sort(w1)).max() <= 1e-11
    assert C1.particle_number() == pytest.approx(C0.particle_number(), abs=1e-11)


def test_evolve_correlation_conjugates_every_recorded_frame():
    """One CorrelationMatrix per recorded u, byte-equal to conj(u) C u^T frame by frame."""
    cat = catalog_m8()
    one_body = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, drive_potential()))
    prop = propagate(one_body, (0.0, 1.0), 60, record_every=7)
    C0 = omega0_correlation(cat, MODE1, MODE2)
    got = evolve_correlation(C0, prop)
    assert len(got) == len(prop.times) == 10
    for C, u in zip(got, prop.matrices):
        assert isinstance(C, CorrelationMatrix)
        assert np.array_equal(C.matrix, CorrelationMatrix(u.conj() @ C0.matrix @ u.T).matrix)


def test_evolve_correlation_rejects_another_size_and_raw_matrices():
    cat = catalog_m8()
    C = vacuum_correlation(cat)
    with pytest.raises(ValueError, match="propagator shape"):
        evolve_correlation(C, OneBodyPropagator([0.0], [np.eye(4)]))
    # unitarity is checked where the propagator is built, so only a propagator is accepted
    with pytest.raises(TypeError, match="OneBodyPropagator"):
        evolve_correlation(C, np.eye(cat.size))


def test_propagator_rejects_non_unitary():
    cat = catalog_m8()
    with pytest.raises(ValueError, match="unitarity"):
        OneBodyPropagator([0.0, 1.0], [np.eye(cat.size), 0.5 * np.eye(cat.size)])


def test_bilinear_expectation_sea_energy_and_number():
    cat = catalog_m8()
    C = vacuum_correlation(cat)
    assert bilinear_expectation(C, h0_matrix(cat)).real == pytest.approx(
        cat.sea_energy(), abs=1e-12
    )
    number = OneBodyOperator(np.eye(cat.size, dtype=complex))
    assert bilinear_expectation(C, number).real == pytest.approx(cat.size / 2)


def test_bilinear_expectation_matches_fock_route():
    cat = catalog_m8()
    omega = omega0_state(cat, MODE1, MODE2)
    C = omega0_correlation(cat, MODE1, MODE2)
    rng = np.random.default_rng(42)
    for _ in range(5):
        a = rng.normal(size=(cat.size, cat.size)) + 1j * rng.normal(size=(cat.size, cat.size))
        h = OneBodyOperator((a + a.conj().T) / 2)
        via_gauss = bilinear_expectation(C, h)
        via_fock = expectation(omega, quantize(h, omega.basis))
        assert abs(via_gauss - via_fock) <= 1e-11
        assert abs(via_gauss.imag) <= 1e-12  # hermitian h gives real value


def test_bilinear_linearity():
    cat = catalog_m8()
    C = omega0_correlation(cat, MODE1, MODE2)
    rng = np.random.default_rng(3)
    a = rng.normal(size=(cat.size, cat.size)) + 1j * rng.normal(size=(cat.size, cat.size))
    h1 = OneBodyOperator((a + a.conj().T) / 2)
    h2 = h0_matrix(cat)
    combo = OneBodyOperator(0.3 * h1.matrix + 1.7 * h2.matrix)
    lhs = bilinear_expectation(C, combo)
    rhs = 0.3 * bilinear_expectation(C, h1) + 1.7 * bilinear_expectation(C, h2)
    assert abs(lhs - rhs) <= 1e-12
