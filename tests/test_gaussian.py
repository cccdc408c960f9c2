"""Gaussian backend tests.

The exact Fock backend is the oracle: omega0 correlation entries, the
evolution index convention, and bilinear expectations are all compared
against 2^M linear algebra on an M = 8 momentum subset.
"""

import sys

import numpy as np
import pytest

from diracbox.experiments import ScenarioConfig, _evolved_series, _omega0
from diracbox.fock import (
    correlation_from_state,
    evolve_schrodinger,
    expectation,
    omega0_state,
    quantize,
)
from diracbox.gaussian import (
    EIGENVALUE_TOL,
    CorrelationMatrix,
    bilinear_expectation,
    evolve_correlation,
    excitation_correlation,
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
    assert CorrelationMatrix(np.diag([0.25, 0.0, 1.0])).spectrum == (0.0, 1.0)


def test_non_finite_values_fail_the_validations(monkeypatch):
    """A NaN compares false with every bound, so each check names it instead of passing it."""
    with pytest.raises(FloatingPointError, match="not finite"):
        CorrelationMatrix(np.diag([np.nan, 0.0]))
    with pytest.raises(FloatingPointError, match="not finite"):
        OneBodyPropagator([0.0], [np.diag([1.0, np.nan])])
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: np.full(len(a), np.nan))
    with pytest.raises(FloatingPointError, match="occupation eigenvalues are not finite"):
        CorrelationMatrix(np.eye(2))


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


@pytest.fixture
def gaussian_eigvalsh_calls(monkeypatch):
    """A list that gains one entry per eigvalsh call made from diracbox.gaussian."""
    calls = []
    original = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        if sys._getframe(1).f_globals.get("__name__") == "diracbox.gaussian":
            calls.append(np.shape(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_constructors_validate_their_result_once(gaussian_eigvalsh_calls):
    """vacuum, omega0 and the excitation each run eigvalsh once, on the matrix they return."""
    cat = build_catalog(MomentumGrid(d=1, length=2 * np.pi, n_max=2), 1.0)
    for build in (vacuum_correlation, omega0_correlation, excitation_correlation):
        before = len(gaussian_eigvalsh_calls)
        c = build(cat) if build is vacuum_correlation else build(cat, MODE1, MODE2)
        assert gaussian_eigvalsh_calls[before:] == [(cat.size, cat.size)]
    sea = vacuum_correlation(cat).matrix
    full = omega0_correlation(cat, MODE1, MODE2).matrix
    assert np.array_equal(c.matrix, full - sea)
    assert np.array_equal(np.flatnonzero(full - sea), c.support)


def _dense_hermiticity_verdict(mat):
    """'ok', or the error a dense max |C - C^dag| check raises, as type and message."""
    herm = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if not herm < np.inf:
        return f"FloatingPointError: correlation matrix is not finite: hermiticity deviation {herm}"
    if herm > 1e-10:
        return f"ValueError: correlation matrix not hermitian: {herm:.3e}"
    return "ok"


def _hermiticity_verdict(mat):
    """'ok' once `CorrelationMatrix(mat)` is past its hermiticity check, else its error."""
    try:
        CorrelationMatrix(mat)
    except (ValueError, FloatingPointError) as exc:
        if "hermit" in str(exc):
            return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_hermiticity_on_the_support_matches_the_dense_check():
    """One-sided entries (C_ij != 0, C_ji = 0), near-threshold and non-finite ones: the dense verdict."""
    rng = np.random.default_rng(8)
    base = np.diag([1.0, 0.0, 1.0, 0.0, 0.5]).astype(complex)
    cases = [np.zeros((0, 0)), np.zeros((4, 4)), base]
    for value in (0.3 + 0.2j, -2e-10j, 1.0000001e-10, 0.9999999e-10, np.nan, np.inf, complex(np.inf, 1.0)):
        for i, j in ((0, 3), (4, 1), (2, 2)):
            mat = base.copy()
            mat[i, j] += value
            cases.append(mat)
    for _ in range(20):  # random one-sided and two-sided perturbations of a few entries
        mat = base.copy()
        i, j = rng.integers(0, 5, size=(2, 3))
        mat[i, j] += 1e-10 * (rng.normal(size=3) + 1j * rng.normal(size=3)) * rng.choice([0.5, 1.5], 3)
        cases.append(mat)
    with np.errstate(invalid="ignore"):  # inf - inf on the diagonal
        verdicts = [_hermiticity_verdict(mat) for mat in cases]
        assert verdicts == [_dense_hermiticity_verdict(mat) for mat in cases]
    assert verdicts[:3] == ["ok"] * 3
    assert {v.split(":")[0] for v in verdicts} == {"ok", "ValueError", "FloatingPointError"}
    with pytest.raises(ValueError, match="not hermitian: 3.606e-01"):
        CorrelationMatrix(np.array([[0.5, 0.3 + 0.2j], [0.0, 0.5]]))
    with pytest.raises(FloatingPointError, match="hermiticity deviation nan"):
        CorrelationMatrix(np.array([[0.5, np.nan], [0.0, 0.5]]))


def test_support_of_raw_matrices_and_frames():
    """Raw data: its nonzero positions.  Frames: the block pairs they fill, read-only, one array per series."""
    assert CorrelationMatrix(np.zeros((0, 0))).support.size == 0
    assert CorrelationMatrix(np.zeros((3, 3))).spectrum == (0.0, 0.0)
    mat = np.diag([0.5, 0.0, 0.5]).astype(complex)
    mat[0, 2] = mat[2, 0] = 0.25
    c = CorrelationMatrix(mat)
    assert c.support.tolist() == [0, 2, 6, 8] and not c.support.flags.writeable
    cat = build_catalog(MomentumGrid(d=3, length=2 * np.pi, n_max=1), 1.0)
    c0 = omega0_correlation(cat, MODE1, MODE2)
    frames = evolve_correlation(c0, propagate(h0_matrix(cat), (0.0, 0.1), 4))
    assert np.array_equal(frames[0].support, c0.support)  # 1 x 1 blocks: the nonzero entries of C0
    assert len(c0.support) == cat.size // 2 + 4  # the sea and the rank-one 2 x 2 block
    assert all(f.support is frames[0].support for f in frames)
    assert "support" not in repr(frames[0])


def test_d3_frames_are_certified_without_eigvalsh(gaussian_eigvalsh_calls):
    """d = 3, n_max = 1 (M = 108), 20 steps: 21 frames, none of which recomputes its spectrum."""
    cfg = ScenarioConfig(d=3, n_max=1, n_steps=20, t_final=0.1)
    cat = cfg.catalog(1)
    start = _omega0("gaussian", cat, cfg)  # C0, built from raw data, runs eigvalsh
    built = len(gaussian_eigvalsh_calls)
    _, [series] = _evolved_series(start, cat, cfg, 20)
    assert len(series.times) == 21
    assert len(gaussian_eigvalsh_calls) == built


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _verdict(build):
    """'ok', or the type and message of the validation error `build` raises."""
    try:
        build()
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"
    return "ok"


def test_certified_frames_match_the_eigvalsh_verdict(gaussian_eigvalsh_calls):
    """Soundness sweep: a certified frame gets the verdict and message eigvalsh gives its matrix.

    The propagators carry defects up to the 1e-10 entrywise acceptance: u
    scaled by 1 + delta, a non-normal perturbation, and a hermitian one along
    ones/sqrt(n), whose 2-norm defect is n times its largest entry.  The
    correlations hold eigenvalues at 0, at 1, within 1e-11 of
    1 + EIGENVALUE_TOL and of -EIGENVALUE_TOL, and at 1 - 3e-10 along that
    same direction (0.5 across it).  Both routes, the certificate and its eigvalsh fallback,
    must run, and some frames must be rejected.
    """
    n = 8
    v = _unitary(n, 1)
    ones = np.full(n, 1.0 / np.sqrt(n))
    spectra = [
        [0, 0, 0, 1, 1, 1, 1, 0],
        [0, 0.5, 0.25, 1, 1 + EIGENVALUE_TOL - 1e-11, 0, 1, 0.75],
        [-EIGENVALUE_TOL + 1e-11, 0.5, 0, 1, 1, 0.25, 0, 1],
    ]
    correlations = [CorrelationMatrix((v * w) @ v.conj().T) for w in spectra]
    along = np.outer(ones, ones)
    correlations.append(CorrelationMatrix((1 - 3e-10) * along + 0.5 * (np.eye(n) - along)))
    w = _unitary(n, 2)
    nilpotent = np.zeros((n, n))
    nilpotent[0, 1] = 1.0
    propagators = [w]
    propagators += [(1 + delta) * w for delta in (1e-12, 1e-11, 2e-11, 4.9e-11)]
    propagators += [w @ (np.eye(n) + delta * nilpotent) for delta in (1e-11, 5e-11, 9.9e-11)]
    propagators += [np.eye(n) + eta * np.outer(ones, ones) for eta in (1e-11, 3.9e-10)]
    certified = fallbacks = rejected = 0
    for c in correlations:
        for u in propagators:
            prop = OneBodyPropagator([0.0], [u])
            before = len(gaussian_eigvalsh_calls)
            got = _verdict(lambda: evolve_correlation(c, prop))
            ran_eigvalsh = len(gaussian_eigvalsh_calls) > before
            want = _verdict(lambda: CorrelationMatrix(u.conj() @ c.matrix @ u.T))
            assert got == want
            certified += not ran_eigvalsh
            fallbacks += ran_eigvalsh
            rejected += want != "ok"
    assert certified and fallbacks and rejected
    assert certified + fallbacks == len(correlations) * len(propagators)


def test_certified_interval_holds_the_frame_spectrum():
    """A certified frame's recorded interval holds every eigenvalue eigvalsh gives it."""
    cat = catalog_m8()
    one_body = DrivenHamiltonian(h0_matrix(cat), interaction_term_matrices(cat, drive_potential()))
    prop = propagate(one_body, (0.0, 1.0), 60, record_every=6)
    assert 0.0 < prop.unitarity_defect <= 1e-12
    C0 = omega0_correlation(cat, MODE1, MODE2)
    for frame in evolve_correlation(C0, prop):
        w = np.linalg.eigvalsh(frame.matrix)
        lo, hi = frame.spectrum
        assert lo <= w.min() and w.max() <= hi
        assert C0.spectrum[0] - 1e-12 < lo and hi < C0.spectrum[1] + 1e-12
