"""Gaussian (correlation-matrix) backend.

Every state used here is Gaussian with conserved particle number, so it is
fully described by C_ij = <c_i^dag c_j>: hermitian, M x M, eigenvalues in
[0, 1].  Bilinear observables sum(h_ij c_i^dag c_j) contract as
sum_ij h_ij C_ij.  Under the one-body propagator u the correlation matrix
conjugates as

    C(t) = conj(u) C(0) u^T,

the index convention fixed against the exact Fock backend (see
tests/test_gaussian.py).  This scales polynomially in M and replaces the
2^M Fock space whenever only bilinear expectations are needed.

Validated once: every `CorrelationMatrix` is checked hermitian, and records
the interval [lo, hi] its constructor established for its spectrum, which
must lie in [-EIGENVALUE_TOL, 1 + EIGENVALUE_TOL].  A matrix built from raw
data gets that interval from eigvalsh.  A frame of `evolve_correlation` gets
its source's interval, widened by a bound on how far the frame's spectrum
can move under a propagator that was checked near-unitary when it was built
(its `unitarity_defect`); only a frame whose widened interval does not fit
runs eigvalsh, with the verdict and message of a raw matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .modes import BasisCatalog, ModeLabel
from .onebody import OneBodyOperator, OneBodyPropagator

EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationMatrix:
    """C_ij = <c_i^dag c_j> for a number-conserving Gaussian state.

    `spectrum` is an interval [lo, hi] that holds every eigenvalue eigvalsh
    returns for `matrix`: eigvalsh's own extremes for a matrix built from raw
    data, the certified interval of `evolve_correlation` for its frames.
    """

    matrix: np.ndarray
    spectrum: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {mat.shape}")
        herm = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if not herm < np.inf:  # NaN or inf
            raise FloatingPointError(f"correlation matrix is not finite: hermiticity deviation {herm}")
        if herm > 1e-10:
            raise ValueError(f"correlation matrix not hermitian: {herm:.3e}")
        # only `_certified_frame` sets the interval before this check runs
        lo, hi = self.__dict__.get("spectrum", (np.nan, np.nan))
        if not (lo >= -EIGENVALUE_TOL and hi <= 1.0 + EIGENVALUE_TOL):
            w = np.linalg.eigvalsh(mat)
            lo, hi = (float(w.min()), float(w.max())) if w.size else (0.0, 0.0)
            if not (np.isfinite(lo) and np.isfinite(hi)):
                raise FloatingPointError(f"occupation eigenvalues are not finite: [{lo}, {hi}]")
            if lo < -EIGENVALUE_TOL or hi > 1.0 + EIGENVALUE_TOL:
                raise ValueError(f"occupation eigenvalues outside [0, 1]: [{lo:.3e}, {hi:.3e}]")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "spectrum", (lo, hi))

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def particle_number(self) -> float:
        return float(np.trace(self.matrix).real)


def vacuum_correlation(catalog: BasisCatalog) -> CorrelationMatrix:
    """Filled sea: projector onto the negative-energy modes."""
    return CorrelationMatrix(np.diag((catalog.signs() == -1).astype(complex)))


def omega0_correlation(
    catalog: BasisCatalog, mode1: ModeLabel, mode2: ModeLabel
) -> CorrelationMatrix:
    """Sea projector plus the rank-one (e1 + e2)(e1 + e2)^dag / 2 block."""
    if mode1.lam != +1 or mode2.lam != +1:
        raise ValueError("omega0 modes must be positive-energy (lam = +1)")
    if mode1 == mode2:
        raise ValueError("omega0 modes must differ")
    base = vacuum_correlation(catalog).matrix.copy()
    vec = np.zeros(catalog.size, dtype=complex)
    vec[catalog.index_of(mode1)] = 1.0
    vec[catalog.index_of(mode2)] = 1.0
    return CorrelationMatrix(base + 0.5 * np.outer(vec, vec.conj()))


def excitation_correlation(
    catalog: BasisCatalog, mode1: ModeLabel, mode2: ModeLabel
) -> CorrelationMatrix:
    """Wavepacket-only correlation: the two-mode state minus the filled sea.

    Evolution is linear in C, so evolving this difference equals evolving the
    full state and the bare vacuum separately and subtracting — it yields the
    excitation fields directly, free of the sea background.  (The rank-one
    block has eigenvalue 1, so the difference is itself a valid correlation.)
    """
    full = omega0_correlation(catalog, mode1, mode2).matrix
    return CorrelationMatrix(full - vacuum_correlation(catalog).matrix)


# unit roundoff of float64
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# eigvalsh returns each eigenvalue of a hermitian A within p n u ||A||_2, p
# "a modestly growing function of n" (LAPACK Users' Guide, section 4.7)
_EIGVALSH_P = 20


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _abs_norm2_sq(a: np.ndarray) -> float:
    """||a||_1 ||a||_inf, a bound on || |a| ||_2^2 (so on ||a||_2^2) read off the absolute row and column sums."""
    size = np.abs(a)
    return float(size.sum(axis=0).max(initial=0.0) * size.sum(axis=1).max(initial=0.0))


def _certified_frame(mat: np.ndarray, spectrum: tuple[float, float]) -> CorrelationMatrix:
    """A `CorrelationMatrix` of `mat` whose constructor starts from the certified `spectrum`."""
    frame = object.__new__(CorrelationMatrix)
    object.__setattr__(frame, "matrix", mat)
    object.__setattr__(frame, "spectrum", spectrum)
    frame.__post_init__()
    return frame


def evolve_correlation(c: CorrelationMatrix, prop: OneBodyPropagator) -> list[CorrelationMatrix]:
    """C(t) = conj(u) C u^T at every recorded time of `prop`, each frame certified.

    Every frame is checked hermitian.  Its spectrum is not recomputed where
    a bound shows it inside [-EIGENVALUE_TOL, 1 + EIGENVALUE_TOL]: the frame
    records C's interval [lo, hi] widened by the slack s below, and runs
    eigvalsh, exactly as a raw matrix does, only when [lo - s, hi + s] does
    not fit.  So a frame that eigvalsh would reject is still rejected, with
    the same message.

    The bound.  Let n = M, u_r = 2^-53 and gamma_k = k u_r / (1 - k u_r).
    A computed complex product fl(AB) of inner dimension n is within
    g |A| |B| of AB entrywise, g = 2 gamma_{n+2} (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., sections 3.5-3.6, give
    sqrt(2) gamma_{n+2}).  eigvalsh returns each eigenvalue of a hermitian A
    within e ||A||_2, e = p n u_r with p = `_EIGVALSH_P` (an assumption on
    LAPACK, whose p(n) "grows modestly").  It reads the hermitian H = L(X)
    of the lower triangle and real diagonal of its argument X; L is
    real-linear and fixes a hermitian matrix.  Write C = H + K, so
    ||K||_F <= k / sqrt(2) with k = ||C - C^dag||_F.  Then
    c = sqrt(||C||_1 ||C||_inf) >= || |C| ||_2, r = c + k >= ||H||_2, and,
    as C's interval holds the values eigvalsh returns for it, H's spectrum
    lies in [lo - e r, hi + e r] and h = max(|lo|, |hi|) + e r >= ||H||_2.
    For each recorded u:
      - nu = ||u||_1 ||u||_inf >= || |u| ||_2^2 >= ||u||_2^2.
      - The propagator's `unitarity_defect` eps is the largest computed
        ||fl(u^dag u) - I||_F (the subtraction is exact by Sterbenz, the
        norm within relative gamma_{2 n^2 + 4}), so
        delta = eps / (1 - gamma_{2 n^2 + 4}) + g nu >= ||u^dag u - I||_2.
      - Polar decomposition u = W P, W unitary, P hermitian positive
        semidefinite: ||P - I||_2 <= ||P^2 - I||_2 = ||u^dag u - I||_2 <=
        delta.  With Q = P^T = conj(P), hermitian, conj(u) H u^T =
        conj(W) Q H Q conj(W)^dag is a unitary similarity of QHQ, and
        QHQ - H = (Q - I) H Q + H (Q - I) has 2-norm <= delta (2 + delta) h.
        By Weyl, no eigenvalue moves by more than that.
      - The computed frame is F = conj(u) H u^T + conj(u) K u^T + E, with
        |E| <= B = g (2 + g) |u| |C| |u|^T from the two rounded products.
        ||L(conj(u) K u^T)||_2 <= sqrt(2) ||u||_2^2 ||K||_F <= (1 + delta) k,
        and |L(E)| <= B + B^T entrywise, so ||L(E)||_2 <= 2 g (2 + g) nu c.
        By Weyl again, the eigenvalues of L(F) lie within
        s1 = delta (2 + delta) h + (1 + delta) k + 2 g (2 + g) nu c
        of those of H, and ||L(F)||_2 <= h + s1.
    So every eigenvalue eigvalsh returns for the frame lies within
    s1 (1 + e) + e (r + h) of [lo, hi].  Each norm above is computed within
    relative gamma_{2 n^2 + 4} of its value, so s, twice that, covers their
    rounding and that of lo - s and hi + s.  A NaN anywhere makes s NaN, and
    a NaN interval never fits, so such a frame runs eigvalsh.
    """
    if not isinstance(prop, OneBodyPropagator):
        raise TypeError(f"evolve_correlation needs a OneBodyPropagator, got {type(prop).__name__}")
    if prop.matrices.shape[1:] != c.matrix.shape:
        raise ValueError(f"propagator shape {prop.matrices.shape[1:]} != correlation {c.matrix.shape}")
    n = c.size
    g = 2.0 * _gamma(n + 2)
    e = _EIGVALSH_P * n * _UNIT_ROUNDOFF
    norm_c = np.sqrt(_abs_norm2_sq(c.matrix))
    k = float(np.linalg.norm(c.matrix - c.matrix.conj().T))
    r = norm_c + k
    lo, hi = c.spectrum
    h = max(abs(lo), abs(hi)) + e * r
    eps = prop.unitarity_defect / (1.0 - _gamma(2 * n * n + 4))
    frames = []
    for u in prop.matrices:
        nu = _abs_norm2_sq(u)
        delta = eps + g * nu
        s1 = delta * (2.0 + delta) * h + (1.0 + delta) * k + 2.0 * g * (2.0 + g) * nu * norm_c
        s = 2.0 * (s1 * (1.0 + e) + e * (r + h))
        frames.append(_certified_frame(u.conj() @ c.matrix @ u.T, (float(lo - s), float(hi + s))))
    return frames


def bilinear_expectation(c: CorrelationMatrix, h: OneBodyOperator) -> complex:
    """<sum_ij h_ij c_i^dag c_j> = sum_ij h_ij C_ij (single contraction)."""
    if h.size != c.size:
        raise ValueError(f"operator size {h.size} != correlation size {c.size}")
    return complex(np.sum(h.matrix * c.matrix))
