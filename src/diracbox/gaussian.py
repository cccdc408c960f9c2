"""Gaussian (correlation-matrix) backend.

Every state used here is Gaussian with conserved particle number, so it is
fully described by C_ij = <c_i^dag c_j>: hermitian, M x M, eigenvalues in
[0, 1].  Bilinear observables sum(h_ij c_i^dag c_j) contract as
sum_ij h_ij C_ij.  Under the one-body propagator u the correlation matrix
conjugates as

    C(t) = conj(u) C(0) u^T,

the index convention fixed against the exact Fock backend (see
tests/test_gaussian.py).  This scales polynomially in M and replaces the
2^M Fock space whenever only bilinear expectations are needed.  u is held
on its mode-group blocks (`OneBodyPropagator`), so the conjugation is taken
block pair by block pair, conj(u_I) C_IJ u_J^T: a block-diagonal C(0) costs
sum s^3 per frame, and the free h0's 1 x 1 blocks make it elementwise.

Every `CorrelationMatrix` records its `support`: the ascending flat
positions i M + j outside which its matrix is exactly zero.  A matrix built
from raw data gets its nonzero positions (NaN and inf count as nonzero); a
frame of `evolve_correlation` gets the positions of the block pairs it
fills, one array per series.  Frames stay dense M x M arrays; the readers
that would scan all M^2 entries (the hermiticity check here and
`observables._field_coefficients`) read the support alone.

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
from .onebody import OneBodyOperator, OneBodyPropagator, _product

EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationMatrix:
    """C_ij = <c_i^dag c_j> for a number-conserving Gaussian state.

    `spectrum` is an interval [lo, hi] that holds every eigenvalue eigvalsh
    returns for `matrix`: eigvalsh's own extremes for a matrix built from raw
    data, the certified interval of `evolve_correlation` for its frames.

    `support` holds the ascending flat positions p = i M + j outside which
    `matrix` is exactly zero (read-only): `np.flatnonzero` of a matrix built
    from raw data, the filled block pairs for a frame of `evolve_correlation`.
    The hermiticity deviation is the max over p in the support of
    |C[p] - conj(C[p^T])|, p^T = (p mod M) M + p div M, and equals the dense
    max |C - C^dag| bit for bit: a pair with both entries zero contributes
    0, and a pair with one entry off the support is covered by the other
    entry's term, of the same modulus (the real parts of the two differences
    are exact negatives, and their imaginary parts are the same sum).
    """

    matrix: np.ndarray
    spectrum: tuple[float, float] = field(init=False, repr=False, compare=False)
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {mat.shape}")
        # only `_certified_frame` sets the support and the interval before these checks run
        support = self.__dict__.get("support")
        if support is None:
            support = np.flatnonzero(mat)  # NaN and inf are nonzero
            support.setflags(write=False)
        # mat.T.flat[p] is the entry at p^T
        herm = np.abs(mat.ravel()[support] - mat.T.flat[support].conj()).max(initial=0.0)
        if not herm < np.inf:  # NaN or inf
            raise FloatingPointError(f"correlation matrix is not finite: hermiticity deviation {herm}")
        if herm > 1e-10:
            raise ValueError(f"correlation matrix not hermitian: {herm:.3e}")
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
        object.__setattr__(self, "support", support)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def particle_number(self) -> float:
        return float(np.trace(self.matrix).real)


def _sea(catalog: BasisCatalog) -> np.ndarray:
    """The projector onto the negative-energy modes, as a plain array."""
    return np.diag((catalog.signs() == -1).astype(complex))


def _pair(catalog: BasisCatalog, mode1: ModeLabel, mode2: ModeLabel) -> np.ndarray:
    """omega0's rank-one (e1 + e2)(e1 + e2)^dag / 2 block, as a plain array."""
    if mode1.lam != +1 or mode2.lam != +1:
        raise ValueError("omega0 modes must be positive-energy (lam = +1)")
    if mode1 == mode2:
        raise ValueError("omega0 modes must differ")
    vec = np.zeros(catalog.size, dtype=complex)
    vec[catalog.index_of(mode1)] = 1.0
    vec[catalog.index_of(mode2)] = 1.0
    return 0.5 * np.outer(vec, vec.conj())


def vacuum_correlation(catalog: BasisCatalog) -> CorrelationMatrix:
    """Filled sea: projector onto the negative-energy modes."""
    return CorrelationMatrix(_sea(catalog))


def omega0_correlation(
    catalog: BasisCatalog, mode1: ModeLabel, mode2: ModeLabel
) -> CorrelationMatrix:
    """Sea projector plus the rank-one (e1 + e2)(e1 + e2)^dag / 2 block."""
    return CorrelationMatrix(_sea(catalog) + _pair(catalog, mode1, mode2))


def excitation_correlation(
    catalog: BasisCatalog, mode1: ModeLabel, mode2: ModeLabel
) -> CorrelationMatrix:
    """Wavepacket-only correlation: the two-mode state minus the filled sea.

    Evolution is linear in C, so evolving this difference equals evolving the
    full state and the bare vacuum separately and subtracting — it yields the
    excitation fields directly, free of the sea background.  (The rank-one
    block has eigenvalue 1, so the difference is itself a valid correlation.)
    """
    sea = _sea(catalog)
    return CorrelationMatrix((sea + _pair(catalog, mode1, mode2)) - sea)


# unit roundoff of float64
_UNIT_ROUNDOFF = np.finfo(float).eps / 2.0
# eigvalsh returns each eigenvalue of a hermitian A within p n u ||A||_2, p
# "a modestly growing function of n" (LAPACK Users' Guide, section 4.7)
_EIGVALSH_P = 20


def _gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u) for the unit roundoff u."""
    return k * _UNIT_ROUNDOFF / (1.0 - k * _UNIT_ROUNDOFF)


def _abs_norm2_sq(blocks) -> float:
    """||a||_1 ||a||_inf of the block-diagonal a whose blocks are the stacks `blocks`.

    It bounds || |a| ||_2^2, so ||a||_2^2, and is read off the absolute
    column and row sums of the blocks: those of a are theirs.
    """
    size = [np.abs(b) for b in blocks]
    columns = np.max([a.sum(axis=-2).max(initial=0.0) for a in size])
    rows = np.max([a.sum(axis=-1).max(initial=0.0) for a in size])
    return float(columns * rows)


def _certified_frame(
    mat: np.ndarray, spectrum: tuple[float, float], support: np.ndarray
) -> CorrelationMatrix:
    """A `CorrelationMatrix` of `mat`, zero off `support`, whose constructor starts from the certified `spectrum`."""
    frame = object.__new__(CorrelationMatrix)
    object.__setattr__(frame, "matrix", mat)
    object.__setattr__(frame, "spectrum", spectrum)
    object.__setattr__(frame, "support", support)
    frame.__post_init__()
    return frame


def _block_pairs(c: np.ndarray, layout) -> list:
    """The block pairs (I, J) of `c` on the groups of `layout` whose C_IJ is not exactly zero.

    One entry per pair of size classes (a, b): (a, b, I, J, C_IJ stacked,
    flat positions of the C_IJ entries in the M x M matrix).  The positions
    of all entries are distinct, and every frame is zero off them.
    """
    n = len(c)
    pairs = []
    for a, rows_a in enumerate(layout):
        for b, rows_b in enumerate(layout):
            cab = c[rows_a[:, None, :, None], rows_b[None, :, None, :]]  # (n_a, n_b, s_a, s_b)
            i, j = np.nonzero(cab.any(axis=(2, 3)))
            where = (rows_a[i][:, :, None] * n + rows_b[j][:, None, :]).ravel()
            pairs.append((a, b, i, j, cab[i, j], where))
    return pairs


def evolve_correlation(c: CorrelationMatrix, prop: OneBodyPropagator) -> list[CorrelationMatrix]:
    """C(t) = conj(u) C u^T at every recorded time of `prop`, on u's blocks, each frame certified.

    u is block-diagonal on the groups of `prop.layout`, so the frame's block
    (I, J) is conj(u_I) C_IJ u_J^T, taken for the blocks of each pair of size
    classes in one stacked product (an elementwise one for a 1 x 1 class:
    (conj(u_i) C_ij) u_j); a pair whose C_IJ is exactly zero stays zero.  A
    block-diagonal C then costs sum s^3 per frame instead of M^3.

    Every frame is checked hermitian.  Its spectrum is not recomputed where
    a bound shows it inside [-EIGENVALUE_TOL, 1 + EIGENVALUE_TOL]: the frame
    records C's interval [lo, hi] widened by the slack s below, and runs
    eigvalsh, exactly as a raw matrix does, only when [lo - s, hi + s] does
    not fit.  So a frame that eigvalsh would reject is still rejected, with
    the same message.

    The bound.  Let n = M, u_r = 2^-53 and gamma_k = k u_r / (1 - k u_r).
    A computed complex product fl(AB) of inner dimension m is within
    2 gamma_{m+2} |A| |B| of AB entrywise (Higham, Accuracy and Stability of
    Numerical Algorithms, 2nd ed., sections 3.5-3.6, give sqrt(2)
    gamma_{m+2}).  Every product here is one of blocks, of inner dimension
    m = s <= n, and gamma_k grows with k, so g = 2 gamma_{n+2} bounds them
    all.  An entry of u off its blocks is exactly zero, and so is an entry
    of u^dag u or of conj(u) C u^T off the block pairs taken (for the
    frame, a pair whose C_IJ is zero): those entries are exact.  So each
    computed block-diagonal product is within g |A| |B| of the exact one
    entrywise, as a dense product would be.  eigvalsh returns each
    eigenvalue of a hermitian A within e ||A||_2, e = p n u_r with p =
    `_EIGVALSH_P` (an assumption on LAPACK, whose p(n) "grows modestly").
    It reads the hermitian H = L(X) of the lower triangle and real diagonal
    of its argument X; L is real-linear and fixes a hermitian matrix.  Write
    C = H + K, so ||K||_F <= k / sqrt(2) with k = ||C - C^dag||_F.  Then
    c = sqrt(||C||_1 ||C||_inf) >= || |C| ||_2, r = c + k >= ||H||_2, and,
    as C's interval holds the values eigvalsh returns for it, H's spectrum
    lies in [lo - e r, hi + e r] and h = max(|lo|, |hi|) + e r >= ||H||_2.
    For each recorded u:
      - nu = ||u||_1 ||u||_inf >= || |u| ||_2^2 >= ||u||_2^2, read off the
        blocks (`_abs_norm2_sq`).
      - The propagator's `unitarity_defect` eps is the largest computed
        ||fl(u^dag u) - I||_F, the root sum of squares of the blocks' norms
        (the subtraction is exact by Sterbenz, the norm, a sum of at most
        n^2 squares, within relative gamma_{2 n^2 + 4}), so
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
    if (prop.size, prop.size) != c.matrix.shape:
        raise ValueError(f"propagator shape {(prop.size, prop.size)} != correlation {c.matrix.shape}")
    n = c.size
    g = 2.0 * _gamma(n + 2)
    e = _EIGVALSH_P * n * _UNIT_ROUNDOFF
    norm_c = np.sqrt(_abs_norm2_sq([c.matrix]))
    k = float(np.linalg.norm(c.matrix - c.matrix.conj().T))
    r = norm_c + k
    lo, hi = c.spectrum
    h = max(abs(lo), abs(hi)) + e * r
    eps = prop.unitarity_defect / (1.0 - _gamma(2 * n * n + 4))
    pairs = _block_pairs(c.matrix, prop.layout)
    support = np.sort(np.concatenate([where for *_, where in pairs]))
    support.setflags(write=False)
    frames = []
    for t in range(len(prop.times)):
        us = [u[t] for u in prop.blocks]
        nu = _abs_norm2_sq(us)
        delta = eps + g * nu
        s1 = delta * (2.0 + delta) * h + (1.0 + delta) * k + 2.0 * g * (2.0 + g) * nu * norm_c
        s = 2.0 * (s1 * (1.0 + e) + e * (r + h))
        mat = np.zeros(n * n, dtype=complex)
        for a, b, i, j, cij, where in pairs:
            mat[where] = _product(_product(us[a][i].conj(), cij), us[b][j].swapaxes(-1, -2)).ravel()
        frames.append(_certified_frame(mat.reshape(n, n), (float(lo - s), float(hi + s)), support))
    return frames


def bilinear_expectation(c: CorrelationMatrix, h: OneBodyOperator) -> complex:
    """<sum_ij h_ij c_i^dag c_j> = sum_ij h_ij C_ij (single contraction)."""
    if h.size != c.size:
        raise ValueError(f"operator size {h.size} != correlation size {c.size}")
    return complex(np.sum(h.matrix * c.matrix))
