"""Fock backend tests.

Ladder oracle: dense Jordan-Wigner matrices assembled from explicit
Kronecker products (sign string of Z factors below the lowered mode),
independent of the package's bit arithmetic.  The ladders in turn are the
oracle of the bilinear table: `ladder_quantize` (the sum of M^2 ladder
products) and `ladder_readout` (one c_i psi per mode) are the slow paths
that `quantize` and `correlation_from_state` replaced.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

from diracbox import fock
from diracbox.experiments import (
    ScenarioConfig,
    _pure_gauge,
    _subset_catalog,
    scan_profile,
)
from diracbox.fock import (
    FockBasis,
    FockState,
    ManyBodyOperator,
    build_ladders,
    car_residual,
    commutator_identity_check,
    correlation_from_state,
    evolve_schrodinger,
    evolve_schrodinger_batch,
    expectation,
    expm_multiply as kernel_expm_multiply,
    h0_spectrum_check,
    omega0_state,
    quantize,
    vacuum_state,
)
from diracbox.gaussian import CorrelationMatrix
from diracbox.modes import MomentumGrid, build_catalog, label, restrict_catalog
from diracbox.onebody import (
    _THETA,
    _THETA_M,
    Constant,
    CosineRamp,
    DrivenHamiltonian,
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    Scaled,
    StepGuardError,
    gauge_transform,
    h0_matrix,
    interaction_term_matrices,
    mode_groups,
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


def on_all_states(state):
    """The state on all 2^M occupation bitstrings."""
    full = FockBasis(state.basis.n_modes)
    amp = np.zeros(full.dim, dtype=complex)
    amp[state.basis.states] = state.amplitudes
    return FockState(amp, full)


def quantized_at(family, basis, t):
    """h(t) of a one-body family, quantized on `basis` as one CSR matrix on the basis' table."""
    return quantize(OneBodyOperator(family.data_at(t)), basis).matrix


def random_hermitian(M, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    return OneBodyOperator((a + a.conj().T) / 2)


def test_ladders_match_kronecker_oracle():
    M = 4
    ladders = build_ladders(M)
    assert len(ladders) == M
    for i in range(M):
        assert np.abs(ladders[i].toarray() - oracle_annihilator(M, i)).max() <= 1e-15


def test_car_residual_tiny_at_m8():
    assert car_residual(build_ladders(8)) <= 1e-12


def test_car_negative_control_sign_string_dropped():
    broken = tuple(abs(c) for c in build_ladders(4))  # kill the JW signs
    assert car_residual(broken) > 0.1


def test_fock_mode_cap():
    with pytest.raises(ValueError):
        FockBasis(15)
    with pytest.raises(ValueError):
        build_ladders(0)


def test_vacuum_annihilated_by_electron_and_positron_operators():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat.size)
    vac = on_all_states(vacuum_state(cat)).amplitudes
    for c, mode in zip(ladders, cat.modes):
        # b = c destroys a positive-energy mode; d = c^dag fills a negative-energy one back up
        op = c if mode.label.lam == +1 else c.conj().T
        assert np.linalg.norm(op @ vac) <= 1e-14


def test_vacuum_free_energy_is_minus_sea_sum():
    # n_max = 0, m = 1: two sea modes, <0|H0|0> = -2
    cat = catalog1d(n_max=0)
    vac = vacuum_state(cat)
    val = expectation(vac, quantize(h0_matrix(cat), vac.basis))
    assert val.real == pytest.approx(-2.0, abs=1e-12)
    assert abs(val.imag) <= 1e-14

    cat = catalog1d(n_max=1)
    for vac in (vacuum_state(cat), on_all_states(vacuum_state(cat))):
        val = expectation(vac, quantize(h0_matrix(cat), vac.basis))
        assert val.real == pytest.approx(cat.sea_energy(), abs=1e-12)


def test_quantized_identity_counts_sea_particles():
    cat = catalog1d(n_max=1)
    vac = vacuum_state(cat)
    assert vac.basis == FockBasis(cat.size, cat.size // 2)
    number = quantize(OneBodyOperator(np.eye(cat.size, dtype=complex)), vac.basis)
    val = expectation(vac, number)
    assert val.real == pytest.approx(cat.size / 2, abs=1e-12)


def test_quantize_is_linear():
    basis = FockBasis(4)
    h1 = random_hermitian(4, seed=7)
    h2 = random_hermitian(4, seed=8)
    combo = OneBodyOperator(0.5 * h1.matrix + 2.0 * h2.matrix)
    lhs = quantize(combo, basis).matrix
    rhs = 0.5 * quantize(h1, basis).matrix + 2.0 * quantize(h2, basis).matrix
    assert np.abs((lhs - rhs).toarray()).max() <= 1e-13


def test_commutator_identity_diagonal_h_exact():
    cat = catalog1d(n_max=0)
    ladders = build_ladders(cat.size)
    assert commutator_identity_check(h0_matrix(cat), ladders) <= 1e-14


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_commutator_identity_random_hermitian(seed):
    ladders = build_ladders(6)
    assert commutator_identity_check(random_hermitian(6, seed), ladders) <= 1e-12


def test_omega0_norm_orthogonality_and_energy_gap():
    cat = catalog1d(n_max=1)
    m1, m2 = label(+1, 0.5, 0), label(+1, 0.5, 1)
    omega = on_all_states(omega0_state(cat, m1, m2))
    vac = on_all_states(vacuum_state(cat))
    assert np.linalg.norm(omega.amplitudes) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(omega.amplitudes, vac.amplitudes)) <= 1e-14
    h0q = quantize(h0_matrix(cat), omega.basis)
    gap = expectation(omega, h0q).real - expectation(vac, h0q).real
    # (E1 + E2)/2 = (1 + sqrt(2))/2 at m = 1, p2 = 1
    assert gap == pytest.approx(1.2071067811865475, abs=1e-12)


def test_omega0_rejects_bad_modes():
    cat = catalog1d(n_max=1)
    with pytest.raises(ValueError):
        omega0_state(cat, label(-1, 0.5, 0), label(+1, 0.5, 1))
    with pytest.raises(ValueError):
        omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 0))


def test_free_evolution_matches_closed_form_phases():
    cat = catalog1d(n_max=1)
    ladders = build_ladders(cat.size)
    m1, m2 = label(+1, 0.5, 0), label(+1, 0.5, 1)
    omega = on_all_states(omega0_state(cat, m1, m2))
    t_final = 1.3
    # 19 steps: ||h0|| * dt = sqrt(2) * 1.3 / 19 = 0.097 is within the step guard
    times, states = evolve_schrodinger(omega, h0_matrix(cat), (0.0, t_final), n_steps=19)
    e_sea = cat.sea_energy()
    e1, e2 = 1.0, np.sqrt(2.0)
    vac = on_all_states(vacuum_state(cat)).amplitudes
    b1d = ladders[cat.index_of(m1)].conj().T
    b2d = ladders[cat.index_of(m2)].conj().T
    for t, st_t in zip(times, states):
        want = (
            np.exp(-1j * (e_sea + e1) * t) * (b1d @ vac)
            + np.exp(-1j * (e_sea + e2) * t) * (b2d @ vac)
        ) / np.sqrt(2.0)
        assert np.linalg.norm(st_t.amplitudes - want) <= 1e-10


class Cosine:
    """The envelope g(t) = cos(t)."""

    def value(self, t):
        return np.cos(t)


def test_vacuum_stationary_under_driven_evolution_norm_preserved():
    cat = catalog1d(n_max=1)
    omega = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1))
    pot = PotentialSpec.single(
        a0={(0, 0, 1): 0.1 + 0.05j, (0, 0, -1): 0.1 - 0.05j}, envelope=Constant(1.0)
    )
    [(v, _)] = interaction_term_matrices(cat, pot)
    family = DrivenHamiltonian(h0_matrix(cat), [(v, Cosine())])
    times, states = evolve_schrodinger(omega, family, (0.0, 1.0), n_steps=1000, record_every=100)
    # FockState construction enforces the norm bound; assert the final drift anyway
    assert abs(np.linalg.norm(states[-1].amplitudes) - 1.0) <= 1e-10


def test_spectrum_check_n_max_zero():
    facts = h0_spectrum_check(catalog1d(n_max=0))
    assert facts["min_eigenvalue"] == pytest.approx(-2.0, abs=1e-12)
    assert facts["sea_energy_deviation"] <= 1e-10
    assert facts["off_diagonal_weight"] <= 1e-14
    assert facts["min_is_vacuum"] == 1.0
    assert facts["gap"] == pytest.approx(facts["lightest_mode_energy"], abs=1e-12)


def test_spectrum_check_m8_subset():
    cat = restrict_catalog(catalog1d(n_max=1), [0, 1])
    facts = h0_spectrum_check(cat)
    assert facts["sea_energy_deviation"] <= 1e-10
    assert facts["min_is_vacuum"] == 1.0
    assert facts["gap"] == pytest.approx(1.0, abs=1e-12)


def test_correlation_from_state_vacuum_projector():
    cat = catalog1d(n_max=1)
    C = correlation_from_state(vacuum_state(cat))
    assert isinstance(C, CorrelationMatrix)  # the validated type the observables read
    want = np.diag([1.0 if m.label.lam == -1 else 0.0 for m in cat.modes])
    assert np.abs(C.matrix - want).max() <= 1e-14


def test_evolution_rejects_non_hermitian_generator():
    cat = catalog1d(n_max=0)
    vac = vacuum_state(cat)
    skew = 1j * h0_matrix(cat).matrix
    with pytest.raises(ValueError, match="hermiticity"):
        OneBodyOperator(skew)  # no operator skips the check
    with pytest.raises(ValueError, match="hermiticity"):
        ManyBodyOperator(1j * quantize(h0_matrix(cat), vac.basis).matrix, vac.basis)
    # a raw matrix, a bare callable yielding one, or a quantized operator is no one-body operator or family
    for ham in (skew, lambda t: skew, quantize(h0_matrix(cat), vac.basis)):
        with pytest.raises(ValueError, match="must be a OneBodyOperator or a DrivenHamiltonian"):
            evolve_schrodinger(vac, ham, (0.0, 1.0), n_steps=20)


# ---------------------------------------------------------------------------
# the Fock route of the one-body family against the per-step quantized closure


def per_step_closure(catalog, basis, pot, e=1.0):
    """h0 + sum_b g_b(t) B_b quantized, one checked ManyBodyOperator per t (the oracle)."""
    h0q = quantize(h0_matrix(catalog), basis).matrix
    blocks = [
        (quantize(op, basis).matrix, env)
        for op, env in interaction_term_matrices(catalog, pot, e)
    ]

    def ham(t):
        m = h0q
        for bq, env in blocks:
            g = env.value(t)
            if g != 0.0:
                m = m + g * bq
        return ManyBodyOperator(m, basis)

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
    return cat, gauge_transform(PotentialSpec.zero(), chi, cat.grid)


@pytest.mark.parametrize("route", ["static", "driven-family"])
def test_evolve_schrodinger_equals_per_step_loop(route):
    """Both routes write the reference's bytes, in omega0's sector and on all 2^M states."""
    cat, pure = pure_gauge_m8()
    sector = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1))
    for omega in (sector, on_all_states(sector)):
        if route == "static":
            ham = h0_matrix(cat)
            h0q = quantize(ham, omega.basis)
            ref = lambda t: h0q  # noqa: E731
        else:
            ham = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pure))
            ref = per_step_closure(cat, omega.basis, pure)
        times, states = evolve_schrodinger(omega, ham, (0.0, 1.0), n_steps=23, record_every=5)
        want_t, want_amps = reference_evolve(omega, ref, (0.0, 1.0), 23, 5)
        assert times.shape == want_t.shape and (times == want_t).all()
        amps = np.array([s.amplitudes for s in states])
        assert amps.shape == want_amps.shape and (amps == want_amps).all()


def test_family_steps_without_building_operators(monkeypatch):
    """Each step lifts h(t) onto the state's table: no operator of either kind is built."""
    cat, pure = pure_gauge_m8()
    omega = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1))
    family = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pure))
    built = []
    for cls in (OneBodyOperator, ManyBodyOperator):

        def counted(self, _original=cls.__post_init__):
            built.append(self)
            _original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    evolve_schrodinger(omega, family, (0.0, 1.0), n_steps=20)
    assert built == []


def step_by_step(omega, family, t_span, n_steps, record_every):
    """One package expm_multiply per midpoint step on (-i dt) H(t), each H(t) = quantize(h(t))."""
    t0, t1 = t_span
    dt = (t1 - t0) / n_steps
    psi = omega.amplitudes.copy()
    amps = [psi.copy()]
    for step in range(n_steps):
        psi = kernel_expm_multiply((-1j * dt) * quantized_at(family, omega.basis, t0 + (step + 0.5) * dt), psi)
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            amps.append(psi.copy())
    return np.array(amps)


@pytest.mark.parametrize("route", ["static", "driven-family", "spin-groups"])
def test_family_route_writes_the_per_step_expm_multiply_bytes(route):
    """The once-per-evolution CSR holder and a per-step expm_multiply run one arithmetic."""
    family, omega = scan_family((-1, 0, 1), spin=route == "spin-groups")
    if route == "static":
        family = DrivenHamiltonian(family.h0, ())
    ham = family.h0 if route == "static" else family
    _, states = evolve_schrodinger(omega, ham, (0.0, 1.0), n_steps=17, record_every=4)
    want = step_by_step(omega, family, (0.0, 1.0), 17, 4)
    amps = np.array([st.amplitudes for st in states])
    assert amps.shape == want.shape and (amps == want).all()


def spin_groups(catalog):
    """Mode indices of each spin: the groups a pure-gauge family on the z axis keeps apart (the oracle of `mode_groups`)."""
    spins = [mode.label.s for mode in catalog.modes]
    return [[i for i, s in enumerate(spins) if s == spin] for spin in sorted(set(spins))]


def scan_family(momenta, spin=False, cfg=None):
    """The one-body driven family of one gauge-schrodinger subset at f = 1 (default config), and omega0.

    omega0 lives in its particle-number sector, or with `spin` in its spin sector.
    """
    cfg = cfg or ScenarioConfig()
    cat = _subset_catalog(cfg, momenta)
    chi = GaugeFunction(scan_profile(cat, cfg), cfg.envelope())
    omega = omega0_state(cat, cfg.mode1, cfg.mode2, spin_groups(cat) if spin else None)
    blocks = interaction_term_matrices(cat, _pure_gauge(chi, cat.grid), cfg.e)
    return DrivenHamiltonian(h0_matrix(cat), blocks), omega


@pytest.mark.parametrize(
    "mode2, subsets",
    [(label(+1, 0.5, 1), ((0, 1), (-1, 0, 1))), (label(+1, 0.5, -1), ((-1, 0), (-1, 0, 1)))],
    ids=["default", "mirrored"],
)
def test_scan_family_groups_are_the_spins(mode2, subsets):
    """The sector gauge-schrodinger steps in, the groups of its unit family, is the (N_up, N_down) sector."""
    cfg = ScenarioConfig(mode2=mode2, scan_subsets=subsets)
    for momenta in subsets:
        family, _ = scan_family(momenta, cfg=cfg)
        oracle = spin_groups(_subset_catalog(cfg, momenta))
        assert sorted(g.tolist() for g in mode_groups(family.support)) == sorted(oracle)


def zero_diagonal_family():
    """Two blocks with zero diagonal and a common zero at (0, 3), and a state on 2 of their 4 modes.

    c_0^dag c_3 and c_3^dag c_0 each act on 2 of the 6 states: 4 of the 30 table slots are zero.
    """
    basis = FockBasis(4, 2)
    ops = []
    for seed in (1, 2):
        h = random_hermitian(4, seed).matrix.copy()
        np.fill_diagonal(h, 0.0)
        h[0, 3] = h[3, 0] = 0.0
        ops.append(OneBodyOperator(h))
    v = np.zeros(basis.dim, dtype=complex)
    v[0] = 1.0
    return DrivenHamiltonian(ops[0], [(ops[1], CosineRamp(t_final=1.0))]), FockState(v, basis)


FAMILIES = {
    "M8": (lambda: scan_family((0, 1)), 296, 896),
    "M12": (lambda: scan_family((-1, 0, 1)), 7512, 28512),
    "zero-diagonal": (zero_diagonal_family, 6 * (1 + 2 * 2) - 4, 6 * (1 + 2 * 2)),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_driven_family_keeps_the_nonzero_and_diagonal_slots(name, monkeypatch):
    """Each step stores -i dt H(t) on the table slots nonzero in h0 or some block, and every diagonal slot."""
    make, kept_nnz, table_nnz = FAMILIES[name]
    family, state = make()
    held = []
    original = fock._expm_shifted

    def recorded(work, diag, v):
        held.append(work.copy())
        return original(work, diag, v)

    monkeypatch.setattr(fock, "_expm_shifted", recorded)
    n_steps = 50  # within the step guard for every family here
    evolve_schrodinger(state, family, (0.0, 1.0), n_steps)
    h0 = quantize(family.h0, state.basis).matrix
    blocks = [quantize(op, state.basis).matrix for op, _ in family.blocks]
    assert h0.nnz == table_nnz and all(b.nnz == table_nnz for b in blocks)
    rows = np.repeat(np.arange(h0.shape[0]), np.diff(h0.indptr))
    nonzero = (h0.data != 0) | np.any([b.data != 0 for b in blocks], axis=0)
    # exactly the slots nonzero in h0 or some block, plus every diagonal slot
    want = nonzero | (rows == h0.indices)
    want_slots = set(zip(rows[want].tolist(), h0.indices[want].tolist()))
    assert len(held) == n_steps
    dt = 1.0 / n_steps
    for step, h in enumerate(held):
        assert h.nnz == kept_nnz
        assert h.has_canonical_format
        kept_rows = np.repeat(np.arange(h.shape[0]), np.diff(h.indptr))
        assert set(zip(kept_rows.tolist(), h.indices.tolist())) == want_slots
        full = h0.data.copy()
        for b, (_, env) in zip(blocks, family.blocks):
            g = env.value((step + 0.5) * dt)
            if g != 0.0:
                full = full + g * b.data
        unpruned = sp.csr_matrix((full * (-1j * dt), h0.indices, h0.indptr), shape=h0.shape)
        assert (h != unpruned).nnz == 0


def hermitian_with_gaps():
    """A 6 x 6 hermitian CSR storing every entry, five of them explicit zeros (row 2's diagonal one)."""
    rng = np.random.default_rng(3)
    a = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    h = (a + a.conj().T) / 2
    h[0, 4] = h[4, 0] = 0.0
    h[1, 5] = h[5, 1] = 0.0
    h[2, 2] = 0.0
    rows, cols = np.nonzero(np.ones((6, 6), dtype=bool))
    m = sp.csr_matrix((h[rows, cols], (rows, cols)), shape=(6, 6))
    assert m.nnz == 36 and (m.data == 0).sum() == 5
    return m


def unsummed_csr(data, rows, cols, n: int) -> sp.csr_matrix:
    """An n x n CSR storing each (rows[k], cols[k], data[k]) as its own slot, duplicates kept."""
    order = np.lexsort((cols, rows))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n))])
    return sp.csr_matrix((data[order], cols[order], indptr), shape=(n, n))


def kernel_cases():
    for momenta, tag in (((0, 1), "M8"), ((-1, 0, 1), "M12")):
        family, omega = scan_family(momenta)
        for dt in (0.0025, 0.05, 1.0):
            steps = [((-1j * dt) * quantized_at(family, omega.basis, t), omega.amplitudes) for t in (0.1, 0.5, 0.9)]
            yield f"{tag}-dt{dt}", steps
    rng = np.random.default_rng(5)
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    # the zero matrix with its zero diagonal stored
    yield "zero", [(sp.csr_matrix((np.zeros(6, complex), np.arange(6), np.arange(7)), shape=(6, 6)), v)]
    gaps = hermitian_with_gaps()
    yield "explicit-zeros", [((-0.7j) * gaps, v), (gaps, v)]
    # ||A - mu I||_1 in (29.7, 30]: m s = 40 * 5 = 50 * 4, and the first minimum (m* = 40) is scipy's
    a = -1j * random_hermitian(6, 4).matrix
    shift = a - np.trace(a) / 6 * np.eye(6)
    yield "tied-degrees", [(sp.csr_matrix(a * (29.85 / np.abs(shift).sum(axis=0).max())), v)]


KERNEL_CASES = dict(kernel_cases())


@pytest.mark.parametrize("case", list(KERNEL_CASES))
def test_expm_multiply_equals_scipy(case):
    """The kernel writes scipy's bytes: same shift, same (m*, s), same Taylor loop."""
    for A, v in KERNEL_CASES[case]:
        got = kernel_expm_multiply(A, v)
        want = expm_multiply(A, v)
        assert got.shape == want.shape and (got == want).all()
    if case == "zero":
        assert A.nnz == 6 and (got == v).all()


def test_expm_multiply_past_the_norm_bound_matches_dense_expm():
    """Above scipy's condition-3.13 bound (about 63.4) the 1-norm rule still converges."""
    rng = np.random.default_rng(11)
    a = rng.normal(size=(10, 10)) + 1j * rng.normal(size=(10, 10))
    h = (a + a.conj().T) / 2
    A = sp.csr_matrix(-1j * 40.0 * h)
    assert np.abs(A.toarray() - np.trace(A.toarray()) / 10 * np.eye(10)).sum(axis=0).max() > 64
    v = rng.normal(size=10) + 1j * rng.normal(size=10)
    want = expm(A.toarray()) @ v
    got = kernel_expm_multiply(A, v)
    assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)


def test_expm_multiply_sums_duplicate_entries():
    """A CSR matrix holding an off-diagonal entry twice, and each diagonal entry once, acts as their sum."""
    rng = np.random.default_rng(8)
    coo = ((-0.4j) * hermitian_with_gaps()).tocoo()
    dup = np.flatnonzero((coo.row == 1) & (coo.col == 3))
    data = np.append(coo.data, coo.data[dup] / 2)
    data[dup] /= 2
    doubled = unsummed_csr(data, np.append(coo.row, 1), np.append(coo.col, 3), 6)
    A = coo.toarray()
    assert doubled.nnz == 37 and (doubled.toarray() == A).all()
    v = rng.normal(size=6) + 1j * rng.normal(size=6)
    want = expm(A) @ v
    assert np.linalg.norm(kernel_expm_multiply(doubled, v) - want) <= 1e-12 * np.linalg.norm(want)


def test_expm_multiply_rejects_a_nan_entry():
    A = hermitian_with_gaps().astype(complex)
    A.data[3] = np.nan
    with pytest.raises(FloatingPointError, match="1-norm"):
        kernel_expm_multiply(A, np.ones(6, dtype=complex))


def test_expm_multiply_rejects_a_missing_or_doubled_diagonal():
    """The kernel shifts A - mu I on the stored diagonal slots: one per row, no repair."""
    A = (-0.7j) * hermitian_with_gaps()
    v = np.ones(6, dtype=complex)
    coo = A.tocoo()
    keep = (coo.row != 2) | (coo.col != 2)
    missing = unsummed_csr(coo.data[keep], coo.row[keep], coo.col[keep], 6)
    assert missing.nnz == 35
    with pytest.raises(ValueError, match=r"exactly once; rows \[2\] "):
        kernel_expm_multiply(missing, v)
    # row 4 stores its diagonal entry twice, as two halves
    slot = np.flatnonzero((coo.row == 4) & (coo.col == 4))[0]
    data = np.append(coo.data, coo.data[slot] / 2)
    data[slot] /= 2
    doubled = unsummed_csr(data, np.append(coo.row, 4), np.append(coo.col, 4), 6)
    assert doubled.nnz == 37 and (doubled.toarray() == A.toarray()).all()
    with pytest.raises(ValueError, match=r"exactly once; rows \[4\] "):
        kernel_expm_multiply(doubled, v)


# ---------------------------------------------------------------------------
# K families in one batched kernel


def taylor_schedule(A) -> tuple[int, int]:
    """(m*, s) as algorithm 3.2 picks them for A: the 1-norm of A - mu I against the theta_m table."""
    a = A.toarray()
    norm = np.abs(a - np.trace(a) / len(a) * np.eye(len(a))).sum(axis=0).max()
    if norm == 0:
        return 0, 1
    rounds = np.ceil(norm / _THETA)
    best = int(np.argmin(_THETA_M * rounds))
    return int(_THETA_M[best]), int(rounds[best])


def block_csr(mats) -> sp.csr_matrix:
    """The block-diagonal CSR of the n x n CSR matrices `mats`, each block in its own stored order."""
    n = mats[0].shape[0]
    offsets = np.cumsum([0] + [m.nnz for m in mats])
    return sp.csr_matrix(
        (
            np.concatenate([m.data for m in mats]).astype(complex),
            np.concatenate([m.indices + k * n for k, m in enumerate(mats)]),
            np.concatenate([[0]] + [m.indptr[1:] + off for m, off in zip(mats, offsets)]),
        ),
        shape=(len(mats) * n, len(mats) * n),
    )


def scaled_families(family, f_list):
    """h0 at f = 0 and h0 + f sum_b g_b(t) B_b otherwise, the families gauge-schrodinger steps."""
    return [
        family.h0 if f == 0 else DrivenHamiltonian(family.h0, [(b, Scaled(f, g)) for b, g in family.blocks])
        for f in f_list
    ]


def test_batched_kernel_writes_each_block_s_own_bytes():
    """One K-column call gives each column the bytes of the one-block kernel, where (m*, s) differ too."""
    mats = [A for name in ("M8-dt0.0025", "M8-dt0.05", "M8-dt1.0") for A, _ in KERNEL_CASES[name]]
    mats.append(4.0 * mats[-1])  # past theta_55: more than one round
    n = mats[0].shape[0]
    # A = mu I: A - mu I is 0, so its column takes no term, only eta, which keeps the signs of its zeros
    mats.append(sp.csr_matrix((np.full(n, -0.25j), np.arange(n), np.arange(n + 1)), shape=(n, n)))
    schedules = [taylor_schedule(A) for A in mats]
    assert len({m for m, _ in schedules}) > 2 and len({s for _, s in schedules}) > 1
    rng = np.random.default_rng(6)
    vs = rng.normal(size=(len(mats), n)) + 1j * rng.normal(size=(len(mats), n))
    vs[-1, :3] = complex(-0.0, -0.0)
    work = block_csr(mats)
    got = fock._expm_shifted(work, fock._diagonal_slots(work.indptr, work.indices), vs)
    want = np.array([kernel_expm_multiply(A, v) for A, v in zip(mats, vs)])
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert want[-1].tobytes() == expm_multiply(mats[-1], vs[-1]).tobytes()  # scipy's zeros, signs and all


@pytest.mark.parametrize(
    "momenta, sector", [((0, 1), "spin"), ((0, 1), "all-states"), ((-1, 0, 1), "spin")],
    ids=["M8-spin", "M8-all-states", "M12-spin"],
)
def test_batch_writes_each_family_s_own_run(momenta, sector, monkeypatch):
    """Static and driven families, f from 0.05 to 30, stepped together: each records its one-family bytes."""
    family, omega = scan_family(momenta, spin=True)
    if sector == "all-states":
        omega = on_all_states(omega)
    hams = scaled_families(family, (0.0, 0.05, 0.3, 1.0, 5.0, 30.0))
    held = []
    original = fock._expm_shifted

    def recorded(work, diag, v):
        held.append(work.copy())
        return original(work, diag, v)

    monkeypatch.setattr(fock, "_expm_shifted", recorded)
    times, runs = evolve_schrodinger_batch(omega, hams, (0.0, 1.0), 40, record_every=7)
    assert len(held) == 40 and len(runs) == len(hams)
    monkeypatch.undo()
    # the columns take different Taylor degrees, so some leave the loop before others
    n = omega.basis.dim
    blocks = [[A[k * n : (k + 1) * n, k * n : (k + 1) * n] for k in range(len(hams))] for A in held]
    degrees = [{taylor_schedule(block)[0] for block in step} for step in blocks]
    assert any(len(d) > 1 for d in degrees)
    for ham, states in zip(hams, runs):
        want_t, want = evolve_schrodinger(omega, ham, (0.0, 1.0), 40, record_every=7)
        assert times.shape == want_t.shape and (times == want_t).all()
        amps = np.array([st.amplitudes for st in states])
        want_amps = np.array([st.amplitudes for st in want])
        assert amps.shape == want_amps.shape == (7, n) and amps.tobytes() == want_amps.tobytes()


def test_batch_raises_the_guard_error_of_the_family_that_trips():
    """A family past the step guard stops the batch with its own run's error: same step, time and value."""
    family, omega = scan_family((0, 1), spin=True)
    hams = scaled_families(family, (0.0, 0.1, 100.0, 1.0))
    for ham in hams[:2] + hams[3:]:
        evolve_schrodinger(omega, ham, (0.0, 1.0), 60, record_every=60)
    with pytest.raises(StepGuardError) as alone:
        evolve_schrodinger(omega, hams[2], (0.0, 1.0), 60)
    assert alone.value.step >= 16  # past the first chunk: the batch has stepped before it trips
    with pytest.raises(StepGuardError) as batch:
        evolve_schrodinger_batch(omega, hams, (0.0, 1.0), 60)
    got, want = batch.value, alone.value
    assert (got.step, got.time, got.value, str(got)) == (want.step, want.time, want.value, str(want))



def test_batch_needs_a_family():
    _, omega = scan_family((0, 1), spin=True)
    with pytest.raises(ValueError, match="at least one family"):
        evolve_schrodinger_batch(omega, [], (0.0, 1.0), 20)


# ---------------------------------------------------------------------------
# the bilinear table against the ladder operators


def ladder_quantize(h, ladders):
    """sum_ij h_ij c_i^dag c_j as M^2 sparse ladder products (the table's oracle)."""
    M = len(ladders)
    dim = ladders[0].shape[0]
    total = sp.csr_matrix((dim, dim), dtype=complex)
    cds = [c.conj().T.tocsr() for c in ladders]
    cs = list(ladders)
    for i in range(M):
        for j in range(M):
            if h[i, j] != 0.0:
                total = total + h[i, j] * (cds[i] @ cs[j])
    return total.tocsr()


def ladder_readout(amplitudes, ladders):
    """C_ij = <c_i psi | c_j psi> with one ladder product per mode (the readout's oracle)."""
    W = np.array([c @ amplitudes for c in ladders])
    return W.conj() @ W.T


@pytest.mark.parametrize(
    "M, particles", [(6, None), (8, None), (8, 5), (12, 7)], ids=["full-6", "full-8", "sector-8", "sector-12"]
)
def test_table_quantize_equals_ladder_sum(M, particles):
    basis = FockBasis(M, particles)
    want = ladder_quantize(random_hermitian(M, seed=M).matrix, build_ladders(M))
    got = quantize(random_hermitian(M, seed=M), basis).matrix.toarray()
    want = want[basis.states][:, basis.states].toarray()  # the sector's rows and columns
    off = ~np.eye(basis.dim, dtype=bool)
    assert (got[off] == want[off]).all()  # one ladder product per entry: exact
    assert np.abs(np.diag(got) - np.diag(want)).max() <= 1e-13  # a sum over occupied modes


@pytest.mark.parametrize("M, particles", [(8, None), (8, 5), (12, 7)])
def test_correlation_from_state_matches_ladder_readout(M, particles):
    basis = FockBasis(M, particles)
    rng = np.random.default_rng(M)
    amp = rng.normal(size=basis.dim) + 1j * rng.normal(size=basis.dim)
    state = FockState(amp / np.linalg.norm(amp), basis)
    want = ladder_readout(on_all_states(state).amplitudes, build_ladders(M))
    assert np.abs(correlation_from_state(state).matrix - want).max() <= 1e-12


def test_sector_evolution_equals_full_space_on_scan_subsets():
    """omega0 steps in its sector exactly as on all 2^M states, at each default gauge-schrodinger subset."""
    cfg = ScenarioConfig(n_steps=20)
    for momenta in cfg.scan_subsets:
        cat = _subset_catalog(cfg, momenta)
        chi = GaugeFunction(scan_profile(cat, cfg), cfg.envelope())
        pure = _pure_gauge(chi, cat.grid)
        sector = omega0_state(cat, cfg.mode1, cfg.mode2)
        finals = []
        for omega in (sector, on_all_states(sector)):
            h0q = quantize(h0_matrix(cat), omega.basis)
            family = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, pure, cfg.e))
            _, states = evolve_schrodinger(omega, family, (0.0, cfg.t_final), 20, record_every=20)
            finals.append((states[-1], expectation(states[-1], h0q)))
        (in_sector, e_sector), (full, e_full) = finals
        assert np.abs(on_all_states(in_sector).amplitudes - full.amplitudes).max() <= 1e-12
        assert abs(e_sector - e_full) <= 1e-12 * abs(e_full)


# ---------------------------------------------------------------------------
# bases, operators and the dimension they share


def test_index_of_occupations_checks_modes_and_reads_the_sector():
    full = FockBasis(4)
    assert full.index_of_occupations([0, 3]) == 0b1001
    for bad in ([1, 1], [4], [-1]):
        with pytest.raises(ValueError, match="distinct and within 0..3"):
            full.index_of_occupations(bad)
    sector = FockBasis(4, 2)
    assert sector.dim == 6
    assert list(sector.states) == [0b0011, 0b0101, 0b0110, 0b1001, 0b1010, 0b1100]
    assert sector.index_of_occupations([3, 0]) == 3
    with pytest.raises(ValueError, match="outside the 2-particle sector"):
        sector.index_of_occupations([0, 1, 2])
    with pytest.raises(ValueError, match="particle number 5"):
        FockBasis(4, 5)


def test_many_body_operator_needs_a_square_sparse_matrix():
    basis = FockBasis(3, 1)  # 3 states
    with pytest.raises(ValueError, match=r"ndarray of shape \(3, 3\)"):
        ManyBodyOperator(np.eye(3), basis)
    with pytest.raises(ValueError, match=r"shape \(2, 3\)"):
        ManyBodyOperator(sp.csr_matrix((2, 3)), basis)
    with pytest.raises(ValueError, match=r"needs a \(3, 3\) scipy sparse matrix, got csr_matrix of shape \(4, 4\)"):
        ManyBodyOperator(sp.identity(4, format="csr"), basis)
    op = ManyBodyOperator(sp.identity(3, format="coo"), basis)
    assert op.matrix.format == "csr"
    assert quantize(OneBodyOperator(np.eye(3)), basis).basis == basis


@pytest.mark.filterwarnings("ignore:invalid value encountered")  # inf - inf, the deviation of an infinite entry
def test_fock_validators_report_values_that_are_not_finite_as_numerical_trips():
    """A NaN compares false with every bound: the norm and hermiticity checks name it, as OneBodyOperator's does."""
    basis = FockBasis(2, 1)  # 2 states
    for bad, dev in ((np.nan, "nan"), (np.inf, "inf")):
        with pytest.raises(FloatingPointError, match=rf"^Fock state norm is not finite: deviation {dev}$"):
            FockState(np.array([bad, 0.0]), basis)
    with pytest.raises(ValueError, match="state norm 2.0 drifted beyond 1e-10"):
        FockState(np.array([2.0, 0.0]), basis)
    for entries in ([[np.nan, 0.0], [0.0, 1.0]], [[0.0, np.inf], [np.inf, 0.0]]):
        with pytest.raises(FloatingPointError, match=r"^many-body matrix is not finite: deviation nan$"):
            ManyBodyOperator(sp.csr_matrix(np.array(entries, dtype=complex)), basis)
    with pytest.raises(ValueError, match="hermiticity violated"):
        ManyBodyOperator(sp.csr_matrix(np.array([[0.0, 1.0], [2.0, 0.0]])), basis)


def test_operator_on_another_basis_names_both_dimensions():
    cat = restrict_catalog(catalog1d(n_max=1), [0, 1])
    omega = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1))
    wide = quantize(h0_matrix(cat), FockBasis(cat.size))
    msg = r"groups=None\) \(dimension 256\) != state on .*, 5\),\)\) \(dimension 56\)"
    with pytest.raises(ValueError, match=msg):
        expectation(omega, wide)
    # the stepper takes one-body operators, lifted onto the state's own basis; their size is the mode count
    with pytest.raises(ValueError, match="must be a OneBodyOperator"):
        evolve_schrodinger(omega, wide, (0.0, 1.0), n_steps=20)
    with pytest.raises(ValueError, match="matrix size 12 != mode count 8"):
        evolve_schrodinger(omega, h0_matrix(catalog1d(n_max=1)), (0.0, 1.0), n_steps=20)


def test_operator_on_a_sector_of_the_same_dimension_is_rejected():
    """C(8, 3) = C(8, 5) = 56: only the particle number tells the two sectors apart."""
    cat = restrict_catalog(catalog1d(n_max=1), [0, 1])
    omega = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1))
    other = quantize(h0_matrix(cat), FockBasis(8, 3))
    assert omega.basis == FockBasis(8, 5) and other.basis.dim == omega.basis.dim == 56
    msg = r", 3\),\)\) \(dimension 56\) != state on .*, 5\),\)\) \(dimension 56\)"
    with pytest.raises(ValueError, match=msg):
        expectation(omega, other)
    with pytest.raises(ValueError, match="must be a OneBodyOperator"):
        evolve_schrodinger(omega, other, (0.0, 1.0), n_steps=20)
    # on its own sector h0 reads the sea plus (E_0 + E_1) / 2 = -3.62, where the other read -2.62
    own = expectation(omega, quantize(h0_matrix(cat), omega.basis)).real
    assert own == pytest.approx(cat.sea_energy() + (1.0 + np.sqrt(2.0)) / 2, abs=1e-12)


# ---------------------------------------------------------------------------
# spin sectors: mode groups, each with its particle count


def test_fock_basis_groups_partition_the_modes_with_counts_in_range():
    assert FockBasis(4, 2) == FockBasis(4, [((3, 2, 1, 0), 2)])  # the int is one group of all modes
    spins = FockBasis(4, [((1, 3), 1), ((0, 2), 1)])
    assert spins == FockBasis(4, [((0, 2), 1), ((3, 1), 1)])  # groups are kept sorted
    assert spins != FockBasis(4, 2) and spins.groups == (((0, 2), 1), ((1, 3), 1))
    assert list(spins.states) == [0b0011, 0b0110, 0b1001, 0b1100]
    assert list(spins.group_of) == [0, 1, 0, 1]
    for groups in ([((0, 1), 1)], [((0, 1, 2), 1), ((2, 3), 1)], [((0, 1, 2, 3, 4), 1)], [((0, 1, 2, 3), 1), ((), 0)]):
        with pytest.raises(ValueError, match="do not partition the modes 0..3"):
            FockBasis(4, groups)
    for n in (-1, 3):
        with pytest.raises(ValueError, match=rf"particle number {n} outside 0..2 of the modes \(1, 3\)"):
            FockBasis(4, [((0, 2), 1), ((1, 3), n)])


def test_index_of_occupations_reads_the_spin_sector():
    spins = FockBasis(4, [((0, 2), 1), ((1, 3), 1)])
    assert spins.index_of_occupations([2, 1]) == 1
    for outside in ([0, 2], [1, 3], [0], [0, 1, 2]):
        with pytest.raises(ValueError, match=r"outside the 1\+1-particle sector"):
            spins.index_of_occupations(outside)


def test_quantize_rejects_a_spin_mixing_entry_naming_the_pair():
    cat = restrict_catalog(catalog1d(n_max=1), [0, 1])
    basis = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1), spin_groups(cat)).basis
    assert basis.dim == 24
    quantize(h0_matrix(cat), basis)  # diagonal: keeps every group's count
    up, down = spin_groups(cat)
    i, j = up[1], down[2]
    h = np.array(h0_matrix(cat).matrix)
    h[i, j] = h[j, i] = 0.25
    lo, hi = min(i, j), max(i, j)
    msg = rf"h\[{lo}, {hi}\] = 0.25\+0j couples modes {lo} and {hi} of different groups"
    with pytest.raises(ValueError, match=msg):
        quantize(OneBodyOperator(h), basis)
    # the stepper checks each operator of a family once, before any step
    state = omega0_state(cat, label(+1, 0.5, 0), label(+1, 0.5, 1), spin_groups(cat))
    mixing = DrivenHamiltonian(h0_matrix(cat), [(OneBodyOperator(h - h0_matrix(cat).matrix), Constant(1.0))])
    for ham in (OneBodyOperator(h), mixing):
        with pytest.raises(ValueError, match=msg):
            evolve_schrodinger(state, ham, (0.0, 1.0), n_steps=20)
    quantize(OneBodyOperator(h), FockBasis(cat.size, 5))  # one group holds every move


def embed(state, basis):
    """A state of a sector written on the larger sector `basis` that holds it."""
    amp = np.zeros(basis.dim, dtype=complex)
    amp[np.searchsorted(basis.states, state.basis.states)] = state.amplitudes
    return FockState(amp, basis)


@pytest.mark.parametrize("momenta", [(0, 1), (-1, 0, 1)], ids=["M8", "M12"])
def test_spin_sector_readout_matches_the_one_group_readout(momenta):
    """An evolved spin-sector state reads the one-group correlation; its cross-spin entries are 0."""
    family, omega = scan_family(momenta, spin=True)
    wide, omega_wide = scan_family(momenta)
    assert (omega.basis.dim, omega_wide.basis.dim) in ((24, 56), (300, 792))
    assert (embed(omega, omega_wide.basis).amplitudes == omega_wide.amplitudes).all()
    _, [_, final] = evolve_schrodinger(omega, family, (0.0, 1.0), n_steps=20, record_every=20)
    _, [_, final_wide] = evolve_schrodinger(omega_wide, wide, (0.0, 1.0), n_steps=20, record_every=20)
    assert np.abs(embed(final, omega_wide.basis).amplitudes - final_wide.amplitudes).max() <= 1e-13
    C = correlation_from_state(final).matrix
    assert np.abs(C - correlation_from_state(embed(final, omega_wide.basis)).matrix).max() <= 1e-14
    assert np.abs(C - correlation_from_state(final_wide).matrix).max() <= 1e-14
    group = omega.basis.group_of
    assert (C[group[:, None] != group] == 0).all()
