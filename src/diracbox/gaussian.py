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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .modes import BasisCatalog, ModeLabel
from .onebody import OneBodyOperator, OneBodyPropagator

EIGENVALUE_TOL = 1e-10


@dataclass(frozen=True)
class CorrelationMatrix:
    """C_ij = <c_i^dag c_j> for a number-conserving Gaussian state."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"correlation matrix must be square, got {mat.shape}")
        herm = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if herm > 1e-10:
            raise ValueError(f"correlation matrix not hermitian: {herm:.3e}")
        w = np.linalg.eigvalsh(mat)
        if w.size and (w.min() < -EIGENVALUE_TOL or w.max() > 1.0 + EIGENVALUE_TOL):
            raise ValueError(
                f"occupation eigenvalues outside [0, 1]: [{w.min():.3e}, {w.max():.3e}]"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

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


def evolve_correlation(c: CorrelationMatrix, prop: OneBodyPropagator) -> list[CorrelationMatrix]:
    """C(t) = conj(u) C u^T at every recorded time of `prop`.

    Each u was checked unitary within 1e-10 when `prop` was built.
    """
    if not isinstance(prop, OneBodyPropagator):
        raise TypeError(f"evolve_correlation needs a OneBodyPropagator, got {type(prop).__name__}")
    if prop.matrices.shape[1:] != c.matrix.shape:
        raise ValueError(f"propagator shape {prop.matrices.shape[1:]} != correlation {c.matrix.shape}")
    return [CorrelationMatrix(u.conj() @ c.matrix @ u.T) for u in prop.matrices]


def bilinear_expectation(c: CorrelationMatrix, h: OneBodyOperator) -> complex:
    """<sum_ij h_ij c_i^dag c_j> = sum_ij h_ij C_ij (single contraction)."""
    if h.size != c.size:
        raise ValueError(f"operator size {h.size} != correlation size {c.size}")
    return complex(np.sum(h.matrix * c.matrix))
