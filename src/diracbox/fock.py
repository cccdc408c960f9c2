"""Exact Fock-space backend.

The M catalog modes generate a 2^M-dimensional Fock space.  Basis state
|n> is the integer n whose bit i is the occupation of mode i, ordered

    |n> = (c_0^dag)^{n_0} (c_1^dag)^{n_1} ... |empty>,

so annihilating mode i picks up (-1)^(number of occupied modes below i)
(Jordan-Wigner sign string).  The physical vacuum is the filled sea: every
negative-energy mode occupied.  Electron operators b destroy positive-energy
modes; positron operators d create negative-energy ones, so both annihilate
the vacuum.

A one-body matrix h lifts to the bilinear sum_ij h_ij c_i^dag c_j (no normal
ordering; the sea energy is kept).  Time evolution uses the same
midpoint-exponential rule as the one-body layer, applied with sparse
matrix-exponential action.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from .gaussian import CorrelationMatrix
from .modes import BasisCatalog, ModeLabel
from .onebody import DrivenHamiltonian, OneBodyOperator, _check_hermitian, time_grid

FOCK_MODE_CAP = 14
CAR_TOL = 1e-12


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis bookkeeping for M modes."""

    n_modes: int

    def __post_init__(self):
        if not 1 <= self.n_modes <= FOCK_MODE_CAP:
            raise ValueError(
                f"mode count {self.n_modes} outside 1..{FOCK_MODE_CAP} "
                "(Fock dimension 2^M); use the gaussian backend or a momentum subset"
            )

    @property
    def dim(self) -> int:
        return 1 << self.n_modes

    def index_of_occupations(self, occupied) -> int:
        return sum(1 << i for i in occupied)


def _annihilator(M: int, i: int) -> sp.csr_matrix:
    """Sparse c_i with the Jordan-Wigner sign string over modes < i."""
    dim = 1 << M
    cols = np.arange(dim, dtype=np.int64)
    hit = (cols >> i) & 1 == 1
    cols = cols[hit]
    rows = cols - (1 << i)
    below = cols & ((1 << i) - 1)
    # popcount of the lower bits; vectorized over the column indices
    signs = np.ones(len(cols))
    v = below.copy()
    parity = np.zeros(len(cols), dtype=np.int64)
    while v.any():
        parity ^= v & 1
        v >>= 1
    signs[parity == 1] = -1.0
    return sp.csr_matrix((signs, (rows, cols)), shape=(dim, dim), dtype=complex)


@dataclass(frozen=True)
class LadderSet:
    """Annihilators c_i (and adjoints) for each catalog slot.

    Built either from a BasisCatalog (physical runs) or a bare mode count
    (algebra-only checks).
    """

    basis: FockBasis
    lowering: tuple[sp.csr_matrix, ...] = field(repr=False)
    catalog: BasisCatalog | None = None

    @property
    def n_modes(self) -> int:
        return self.basis.n_modes

    def c(self, i: int) -> sp.csr_matrix:
        return self.lowering[i]

    def cdag(self, i: int) -> sp.csr_matrix:
        return self.lowering[i].conj().T.tocsr()

    def _physical_index(self, lbl: ModeLabel) -> int:
        if self.catalog is None:
            raise ValueError("ladder set was built without a catalog")
        return self.catalog.index_of(lbl)

    def electron_annihilator(self, lbl: ModeLabel) -> sp.csr_matrix:
        """b_{s,p}: destroys the positive-energy mode."""
        if lbl.lam != +1:
            raise ValueError("electron operator needs a lam = +1 label")
        return self.c(self._physical_index(lbl))

    def positron_annihilator(self, lbl: ModeLabel) -> sp.csr_matrix:
        """d_{s,p}: fills the negative-energy mode back up."""
        if lbl.lam != -1:
            raise ValueError("positron operator needs a lam = -1 label")
        return self.cdag(self._physical_index(lbl))


def build_ladders(source: BasisCatalog | int) -> LadderSet:
    """Jordan-Wigner ladder operators for a catalog or a bare mode count."""
    if isinstance(source, BasisCatalog):
        catalog, M = source, source.size
    else:
        catalog, M = None, int(source)
    basis = FockBasis(M)
    lowering = tuple(_annihilator(M, i) for i in range(M))
    return LadderSet(basis, lowering, catalog)


def car_residual(ladders: LadderSet) -> float:
    """Max deviation from {c_i, c_j^dag} = delta_ij, {c_i, c_j} = 0."""
    M = ladders.n_modes
    eye = sp.identity(ladders.basis.dim, dtype=complex, format="csr")
    worst = 0.0
    cs = [ladders.c(i) for i in range(M)]
    cds = [ladders.cdag(i) for i in range(M)]
    for i in range(M):
        for j in range(M):
            mixed = cs[i] @ cds[j] + cds[j] @ cs[i]
            if i == j:
                mixed = mixed - eye
            same = cs[i] @ cs[j] + cs[j] @ cs[i]
            for residual in (mixed, same):
                if residual.nnz:
                    worst = max(worst, float(np.abs(residual.data).max()))
    return worst


@dataclass(frozen=True)
class FockState:
    """Normalized amplitude vector over the occupation basis."""

    amplitudes: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError(f"amplitude shape {amp.shape} != ({self.basis.dim},)")
        norm = np.linalg.norm(amp)
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm {norm} drifted beyond 1e-10")
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)

    def overlap(self, other: "FockState") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))


@dataclass(frozen=True)
class ManyBodyOperator:
    """Hermitian sparse operator on the Fock space, checked when built."""

    matrix: sp.csr_matrix

    def __post_init__(self):
        dev = self.matrix - self.matrix.conj().T
        if dev.nnz and np.abs(dev.data).max() > 1e-12:
            raise ValueError("hermiticity violated")


def vacuum_state(ladders: LadderSet) -> FockState:
    """Filled sea: all negative-energy modes occupied, positive empty."""
    if ladders.catalog is None:
        raise ValueError("vacuum needs the physical catalog (energy signs)")
    occupied = [
        i for i, mode in enumerate(ladders.catalog.modes) if mode.label.lam == -1
    ]
    amp = np.zeros(ladders.basis.dim, dtype=complex)
    amp[ladders.basis.index_of_occupations(occupied)] = 1.0
    return FockState(amp, ladders.basis)


def quantize(h: OneBodyOperator, ladders: LadderSet) -> ManyBodyOperator:
    """Lift an M x M matrix to sum_ij h_ij c_i^dag c_j."""
    M = ladders.n_modes
    if h.size != M:
        raise ValueError(f"matrix size {h.size} != mode count {M}")
    dim = ladders.basis.dim
    total = sp.csr_matrix((dim, dim), dtype=complex)
    cds = [ladders.cdag(i) for i in range(M)]
    cs = [ladders.c(j) for j in range(M)]
    for i in range(M):
        row = h.matrix[i]
        for j in range(M):
            if row[j] != 0.0:
                total = total + row[j] * (cds[i] @ cs[j])
    return ManyBodyOperator(total.tocsr())


def expectation(state: FockState, op: ManyBodyOperator) -> complex:
    return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))


def commutator_identity_check(h: OneBodyOperator, ladders: LadderSet) -> float:
    """Max residual of [quantize(h), c_i] = -sum_j h_ij c_j over modes i."""
    H = quantize(h, ladders).matrix
    worst = 0.0
    for i in range(ladders.n_modes):
        ci = ladders.c(i)
        lhs = H @ ci - ci @ H
        rhs = -sum(h.matrix[i, j] * ladders.c(j) for j in range(ladders.n_modes))
        residual = lhs - rhs
        if residual.nnz:
            worst = max(worst, float(np.abs(residual.data).max()))
    return worst


def omega0_state(ladders: LadderSet, mode1: ModeLabel, mode2: ModeLabel) -> FockState:
    """Equal-amplitude two-mode electron state (b1^dag + b2^dag)|vac>/sqrt(2)."""
    if mode1.lam != +1 or mode2.lam != +1:
        raise ValueError("omega0 modes must be positive-energy (lam = +1)")
    if mode1 == mode2:
        raise ValueError("omega0 modes must differ")
    vac = vacuum_state(ladders).amplitudes
    b1d = ladders.electron_annihilator(mode1).conj().T
    b2d = ladders.electron_annihilator(mode2).conj().T
    amp = (b1d @ vac + b2d @ vac) / np.sqrt(2.0)
    return FockState(amp, ladders.basis)


def h0_spectrum_check(ladders: LadderSet) -> dict[str, float]:
    """Exact diagonalization facts about the quantized free Hamiltonian.

    Returns the minimum eigenvalue, its deviation from the filled-sea energy
    -sum E_p, the occupation-basis off-diagonal weight, whether the minimum
    sits exactly on the vacuum bitstring, and the gap to the next level
    (which equals the lightest single-mode energy: one extra electron or one
    hole).
    """
    from .onebody import h0_matrix

    if ladders.catalog is None:
        raise ValueError("spectrum check needs the physical catalog")
    catalog = ladders.catalog
    H = quantize(h0_matrix(catalog), ladders).matrix.toarray()
    diag = np.real(np.diag(H).copy())
    off_diag = float(np.abs(H - np.diag(np.diag(H))).max())
    order = np.argsort(diag)
    e_min = float(diag[order[0]])
    gap = float(diag[order[1]] - diag[order[0]])
    vac_index = int(np.argmax(np.abs(vacuum_state(ladders).amplitudes)))
    return {
        "min_eigenvalue": e_min,
        "sea_energy_deviation": abs(e_min - catalog.sea_energy()),
        "off_diagonal_weight": off_diag,
        "min_is_vacuum": float(order[0] == vac_index),
        "gap": gap,
        "lightest_mode_energy": float(catalog.energies().min()),
    }


def evolve_schrodinger(
    state: FockState,
    hamiltonian: DrivenHamiltonian | Callable[[float], ManyBodyOperator] | ManyBodyOperator,
    t_span: tuple[float, float],
    n_steps: int,
    record_every: int = 1,
) -> tuple[np.ndarray, list[FockState]]:
    """Midpoint-exponential evolution of a Fock state.

    psi(t + dt) = exp(-i H(t + dt/2) dt) psi(t), applied with sparse
    matrix-exponential action.  Returns (recorded times, recorded states);
    the FockState constructor enforces the 1e-10 norm-drift bound.  A static
    operator is a `DrivenHamiltonian` with no blocks; a family was validated
    when built, while any other callable's operator is checked every step.
    """
    dt, t_mid, times, kept = time_grid(t_span, n_steps, record_every)
    if isinstance(hamiltonian, ManyBodyOperator):
        hamiltonian = DrivenHamiltonian(hamiltonian, ())
    if isinstance(hamiltonian, DrivenHamiltonian):
        if not isinstance(hamiltonian.h0, ManyBodyOperator):
            raise ValueError("hamiltonian must yield hermitian ManyBodyOperator")
        h_at = hamiltonian.at
    else:
        def h_at(t):
            return _check_hermitian(hamiltonian(t), ManyBodyOperator)
    psi = state.amplitudes.copy()
    states = [state]
    for step, t in enumerate(t_mid, 1):
        psi = expm_multiply((-1j * dt) * h_at(t), psi)
        if step in kept:
            states.append(FockState(psi.copy(), state.basis))
    return times, states


def correlation_from_state(state: FockState, ladders: LadderSet) -> CorrelationMatrix:
    """One-body correlation C_ij = <c_i^dag c_j> of a Fock state, validated once.

    The one bridge from the Fock backend to the observable layer.
    """
    M = ladders.n_modes
    W = np.empty((M, state.basis.dim), dtype=complex)
    for i in range(M):
        W[i] = ladders.c(i) @ state.amplitudes
    return CorrelationMatrix(W.conj() @ W.T)
