"""Exact Fock-space backend.

The M catalog modes generate a 2^M-dimensional Fock space.  Basis state
|n> is the integer n whose bit i is the occupation of mode i, ordered

    |n> = (c_0^dag)^{n_0} (c_1^dag)^{n_1} ... |empty>,

so annihilating mode i picks up (-1)^(number of occupied modes below i)
(Jordan-Wigner sign string).  The physical vacuum is the filled sea: every
negative-energy mode occupied.  Electron operators b destroy positive-energy
modes; positron operators d create negative-energy ones, so both annihilate
the vacuum.

Every Hamiltonian here is a number-conserving bilinear, so a state of N
particles stays in the sector of bitstrings with N set bits; one that moves
particles only within groups of modes (the spins of a d = 1 pure-gauge
drive) also keeps the particle count of each group.  A `FockBasis` is such a
sector, given by its mode groups and their counts (one group of all modes is
the N-particle sector), or the whole space.  Its `BilinearTable` holds every
c_i^dag c_j within a group on one sparse pattern, built once by bit
arithmetic: `quantize`, the driven family and `correlation_from_state` all
read it.  The annihilators of the whole space, a tuple from `build_ladders`,
serve the anticommutator and commutator checks and the tests' oracle; the
spectrum check reads the full `FockBasis` of a catalog.

A one-body matrix h lifts to the bilinear sum_ij h_ij c_i^dag c_j (no normal
ordering; the sea energy is kept).  Time evolution uses the same
midpoint-exponential rule as the one-body layer; each step applies
exp(-i H dt) to the state with a truncated Taylor series on the stored
entries of H (Al-Mohy & Higham 2011).  `evolve_schrodinger` steps a static
operator or the driven family of `onebody.DrivenHamiltonian`, the one family
both pictures step, and does the work of its sparsity pattern (its diagonal
slots and one CSR holder) once per evolution; `expm_multiply` is the same
arithmetic for one matrix.

scipy.sparse holds the CSR matrices.  It is imported inside the functions
that build or check one, so `import diracbox` loads no scipy and only a
process that does Fock work pays its import time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .gaussian import CorrelationMatrix
from .modes import BasisCatalog, ModeLabel
from .onebody import _THETA, _THETA_M, DrivenHamiltonian, OneBodyOperator, _check_hermitian, h0_matrix, time_grid

if TYPE_CHECKING:
    import scipy.sparse as sp

FOCK_MODE_CAP = 14


def _popcount(v: np.ndarray) -> np.ndarray:
    """Number of set bits of each entry."""
    v = v.copy()
    count = np.zeros_like(v)
    while v.any():
        count += v & 1
        v >>= 1
    return count


@dataclass(frozen=True)
class FockBasis:
    """Occupation-number basis of M modes: all 2^M states, or one sector.

    A sector fixes the particle count of each group of modes: `groups` is
    ((modes, count), ...), the groups partitioning the modes 0..M-1, or an
    int N, the N-particle sector (one group of all modes).  Groups are kept
    sorted, so two bases are equal exactly when they hold the same states.
    """

    n_modes: int
    groups: tuple[tuple[tuple[int, ...], int], ...] | int | None = None

    def __post_init__(self):
        M = self.n_modes
        if not 1 <= M <= FOCK_MODE_CAP:
            raise ValueError(
                f"mode count {M} outside 1..{FOCK_MODE_CAP} "
                "(Fock dimension 2^M); use the gaussian backend or a momentum subset"
            )
        if self.groups is None:
            return
        groups = ((range(M), self.groups),) if isinstance(self.groups, (int, np.integer)) else self.groups
        groups = tuple(sorted((tuple(sorted(int(i) for i in modes)), int(n)) for modes, n in groups))
        if sorted(i for modes, _ in groups for i in modes) != list(range(M)) or not all(m for m, _ in groups):
            raise ValueError(f"mode groups {[m for m, _ in groups]} do not partition the modes 0..{M - 1}")
        for modes, n in groups:
            if not 0 <= n <= len(modes):
                raise ValueError(f"particle number {n} outside 0..{len(modes)} of the modes {modes}")
        object.__setattr__(self, "groups", groups)

    @cached_property
    def group_of(self) -> np.ndarray:
        """The group index of each mode (all 0 for the whole space)."""
        of = np.zeros(self.n_modes, dtype=np.int64)
        for g, (modes, _) in enumerate(self.groups or ()):
            of[list(modes)] = g
        return of

    @cached_property
    def states(self) -> np.ndarray:
        """The basis bitstrings in increasing order; position = basis index."""
        every = np.arange(1 << self.n_modes, dtype=np.int64)
        keep = np.ones(every.shape, dtype=bool)
        for modes, n in self.groups or ():
            keep &= _popcount(every & sum(1 << i for i in modes)) == n
        return every[keep]

    @property
    def dim(self) -> int:
        return len(self.states)

    @cached_property
    def table(self) -> "BilinearTable":
        return BilinearTable.build(self)

    def index_of_occupations(self, occupied) -> int:
        """Basis index of the state with exactly the `occupied` modes filled."""
        modes = [int(i) for i in occupied]
        if len(set(modes)) != len(modes) or not all(0 <= i < self.n_modes for i in modes):
            raise ValueError(f"occupied modes {modes} must be distinct and within 0..{self.n_modes - 1}")
        bits = sum(1 << i for i in modes)
        idx = int(np.searchsorted(self.states, bits))
        if idx == self.dim or self.states[idx] != bits:
            counts = "+".join(str(n) for _, n in self.groups)
            raise ValueError(f"occupied modes {sorted(modes)} are outside the {counts}-particle sector of {self}")
        return idx


@dataclass(frozen=True)
class BilinearTable:
    """Every c_i^dag c_j within a mode group of one basis as the entries of one CSR pattern.

    Slot k is the entry (rows[k], indices[k]); rows run in order and columns
    are sorted within a row.  Off the diagonal, moving one particle from mode
    j to mode i of the same group fixes the ordered pair (a move between
    groups leaves the sector): gather[k] = i*M + j and the entry of
    c_i^dag c_j is sign[k], (-1)^(occupied modes strictly between i and j).
    On the diagonal gather[k] = M*M + row and sign[k] = 1: the entry of
    sum_i h_ii c_i^dag c_i is `occupation` (dim x M) times diag(h).
    """

    indptr: np.ndarray
    indices: np.ndarray
    rows: np.ndarray
    gather: np.ndarray
    sign: np.ndarray
    occupation: np.ndarray

    @classmethod
    def build(cls, basis: FockBasis) -> "BilinearTable":
        M, states = basis.n_modes, basis.states
        dim = len(states)
        occ = ((states[:, None] >> np.arange(M)) & 1).astype(np.int8)
        group = basis.group_of
        i, j = np.nonzero((group[:, None] == group) & ~np.eye(M, dtype=bool))
        # c_i^dag c_j needs mode j occupied and mode i empty
        pair, col = np.nonzero((occ[:, j] & (1 - occ[:, i])).T)
        i, j, src = i[pair], j[pair], states[col]
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        sign = 1.0 - 2.0 * (_popcount(src & ((1 << hi) - (2 << lo))) & 1)
        row = np.searchsorted(states, src ^ (1 << i) ^ (1 << j))
        diag = np.arange(dim)
        rows = np.concatenate([row, diag])
        cols = np.concatenate([col, diag])
        order = np.lexsort((cols, rows))
        indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=dim))])
        arrays = dict(
            indptr=indptr.astype(np.int32),
            indices=cols[order].astype(np.int32),
            rows=rows[order],
            gather=np.concatenate([i * M + j, M * M + diag])[order],
            sign=np.concatenate([sign, np.ones(dim)])[order],
            occupation=occ.astype(float),
        )
        # every quantized operator of the basis shares indptr and indices
        for a in arrays.values():
            a.setflags(write=False)
        return cls(**arrays)


def _annihilator(M: int, i: int) -> sp.csr_matrix:
    """Sparse c_i on all 2^M states with the Jordan-Wigner sign string over modes < i."""
    import scipy.sparse as sp

    dim = 1 << M
    cols = np.arange(dim, dtype=np.int64)
    cols = cols[(cols >> i) & 1 == 1]
    rows = cols - (1 << i)
    signs = 1.0 - 2.0 * (_popcount(cols & ((1 << i) - 1)) & 1)
    return sp.csr_matrix((signs, (rows, cols)), shape=(dim, dim), dtype=complex)


def build_ladders(M: int) -> tuple[sp.csr_matrix, ...]:
    """Jordan-Wigner annihilators c_0 .. c_{M-1} on all 2^M states."""
    FockBasis(M)  # raises for M outside 1..FOCK_MODE_CAP
    return tuple(_annihilator(M, i) for i in range(M))


def car_residual(ladders: tuple[sp.csr_matrix, ...]) -> float:
    """Max deviation of the annihilators `ladders` from {c_i, c_j^dag} = delta_ij, {c_i, c_j} = 0."""
    import scipy.sparse as sp

    eye = sp.identity(ladders[0].shape[0], dtype=complex, format="csr")
    worst = 0.0
    cds = [c.conj().T.tocsr() for c in ladders]
    for i, ci in enumerate(ladders):
        for j, cj in enumerate(ladders):
            mixed = ci @ cds[j] + cds[j] @ ci
            if i == j:
                mixed = mixed - eye
            same = ci @ cj + cj @ ci
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


@dataclass(frozen=True)
class ManyBodyOperator:
    """Hermitian sparse operator on the Fock basis it acts on, checked when built (stored as CSR)."""

    matrix: sp.csr_matrix
    basis: FockBasis

    def __post_init__(self):
        import scipy.sparse as sp

        m, dim = self.matrix, self.basis.dim
        if not sp.issparse(m) or m.shape != (dim, dim):
            raise ValueError(
                f"ManyBodyOperator on {self.basis} needs a ({dim}, {dim}) scipy sparse matrix, "
                f"got {type(m).__name__} of shape {np.shape(m)}"
            )
        m = m.tocsr()
        dev = m - m.conj().T
        if dev.nnz and np.abs(dev.data).max() > 1e-12:
            raise ValueError("hermiticity violated")
        object.__setattr__(self, "matrix", m)


def _on_basis(op, state: FockState):
    """The matrix of the ManyBodyOperator `op`, once `op` acts on the state's basis."""
    matrix = _check_hermitian(op, ManyBodyOperator)
    if op.basis != state.basis:
        raise ValueError(
            f"operator on {op.basis} (dimension {op.basis.dim}) != "
            f"state on {state.basis} (dimension {state.basis.dim})"
        )
    return matrix


def _sea(catalog: BasisCatalog) -> list[int]:
    """Catalog indices of the negative-energy modes, all occupied in the vacuum."""
    return [i for i, mode in enumerate(catalog.modes) if mode.label.lam == -1]


def vacuum_state(catalog: BasisCatalog) -> FockState:
    """Filled sea: all negative-energy modes occupied, positive empty, in the sea's sector."""
    sea = _sea(catalog)
    basis = FockBasis(catalog.size, len(sea))
    amp = np.zeros(basis.dim, dtype=complex)
    amp[basis.index_of_occupations(sea)] = 1.0
    return FockState(amp, basis)


def quantize(h: OneBodyOperator, basis: FockBasis) -> ManyBodyOperator:
    """Lift an M x M matrix to sum_ij h_ij c_i^dag c_j, gathered onto the basis' table.

    The basis' sector must be invariant: an entry h_ij between two mode
    groups would move a particle out of it, so it raises a ValueError
    naming (i, j).
    """
    import scipy.sparse as sp

    M = basis.n_modes
    if h.size != M:
        raise ValueError(f"matrix size {h.size} != mode count {M}")
    group = basis.group_of
    leaks = np.argwhere((group[:, None] != group) & (h.matrix != 0))
    if len(leaks):
        i, j = leaks[0]
        raise ValueError(
            f"h[{i}, {j}] = {h.matrix[i, j]:.3g} couples modes {i} and {j} of different groups "
            f"of {basis}; the sector is not invariant"
        )
    table = basis.table
    values = np.concatenate([h.matrix.ravel(), table.occupation @ np.diag(h.matrix)])
    data = table.sign * values[table.gather]
    return ManyBodyOperator(
        sp.csr_matrix((data, table.indices, table.indptr), shape=(basis.dim, basis.dim)), basis
    )


def expectation(state: FockState, op: ManyBodyOperator) -> complex:
    psi = state.amplitudes
    return complex(np.vdot(psi, _on_basis(op, state) @ psi))


def commutator_identity_check(h: OneBodyOperator, ladders: tuple[sp.csr_matrix, ...]) -> float:
    """Max residual of [quantize(h), c_i] = -sum_j h_ij c_j over the annihilators c_i of `ladders`.

    `quantize` reads the bilinear table, so this checks the table against
    the ladder operators.
    """
    M = len(ladders)
    H = quantize(h, FockBasis(M)).matrix
    worst = 0.0
    for i, ci in enumerate(ladders):
        lhs = H @ ci - ci @ H
        rhs = -sum(h.matrix[i, j] * ladders[j] for j in range(M))
        residual = lhs - rhs
        if residual.nnz:
            worst = max(worst, float(np.abs(residual.data).max()))
    return worst


def omega0_state(
    catalog: BasisCatalog, mode1: ModeLabel, mode2: ModeLabel, groups=None
) -> FockState:
    """Equal-amplitude two-mode electron state (b1^dag + b2^dag)|vac>/sqrt(2).

    It lives in the sector of its particle number, the sea's plus one, or,
    given `groups` (mode index lists partitioning the catalog), in the sector
    of each group's particle count; mode2 must then be in mode1's group.
    """
    if mode1.lam != +1 or mode2.lam != +1:
        raise ValueError("omega0 modes must be positive-energy (lam = +1)")
    if mode1 == mode2:
        raise ValueError("omega0 modes must differ")
    sea = _sea(catalog)
    occupied = set(sea) | {catalog.index_of(mode1)}
    if groups is None:
        basis = FockBasis(catalog.size, len(occupied))
    else:
        basis = FockBasis(catalog.size, [(modes, len(occupied.intersection(modes))) for modes in groups])
    amp = np.zeros(basis.dim, dtype=complex)
    for mode in (mode1, mode2):
        i = catalog.index_of(mode)
        # b^dag = c_i^dag passes the Jordan-Wigner string of the sea modes below i
        sign = -1.0 if sum(k < i for k in sea) % 2 else 1.0
        amp[basis.index_of_occupations(sea + [i])] = sign / np.sqrt(2.0)
    return FockState(amp, basis)


def h0_spectrum_check(catalog: BasisCatalog) -> dict[str, float]:
    """Exact diagonalization facts about the quantized free Hamiltonian.

    Returns the minimum eigenvalue, its deviation from the filled-sea energy
    -sum E_p, the occupation-basis off-diagonal weight, whether the minimum
    sits exactly on the vacuum bitstring, and the gap to the next level
    (which equals the lightest single-mode energy: one extra electron or one
    hole).  Read on all 2^M states of the catalog's modes.
    """
    basis = FockBasis(catalog.size)
    H = quantize(h0_matrix(catalog), basis).matrix.toarray()
    diag = np.real(np.diag(H).copy())
    off_diag = float(np.abs(H - np.diag(np.diag(H))).max())
    order = np.argsort(diag)
    e_min = float(diag[order[0]])
    gap = float(diag[order[1]] - diag[order[0]])
    vac_index = basis.index_of_occupations(_sea(catalog))
    return {
        "min_eigenvalue": e_min,
        "sea_energy_deviation": abs(e_min - catalog.sea_energy()),
        "off_diagonal_weight": off_diag,
        "min_is_vacuum": float(order[0] == vac_index),
        "gap": gap,
        "lightest_mode_energy": float(catalog.energies().min()),
    }


def expm_multiply(A: sp.csr_matrix, v: np.ndarray) -> np.ndarray:
    """exp(A) v for a square CSR matrix A and one vector v.

    Algorithm 3.2 of Al-Mohy & Higham (2011) at tolerance 2^-53, in the order
    scipy.sparse.linalg.expm_multiply runs it, on the stored entries of A:
    shift by mu = tr(A)/n on the diagonal slots, pick the degree m* and the
    number of rounds s minimizing m*s over the theta_m table with the exact
    1-norm of A - mu I, then take s rounds of the truncated Taylor series
    with its early exit.  The 1-norm bound is used at every norm (scipy
    switches to estimated norms of powers above about 63; the 1-norm bound
    is the more conservative one).

    Contract: A stores each diagonal entry exactly once (an explicit zero
    counts), so the shift is one subtraction per diagonal slot.  `quantize`
    and a `DrivenHamiltonian`'s `pattern` store such matrices.  Raises
    ValueError naming the rows whose diagonal entry is missing or doubled,
    and FloatingPointError if the 1-norm of A - mu I is not finite.
    """
    import scipy.sparse as sp

    n = A.shape[0]
    if A.shape != (n, n) or np.shape(v) != (n,):
        raise ValueError(f"expm_multiply needs a square matrix and a vector, got {A.shape} and {np.shape(v)}")
    diag = _diagonal_slots(A.indptr, A.indices)
    work = sp.csr_matrix((A.data.astype(np.result_type(A.dtype, float)), A.indices, A.indptr), shape=A.shape)
    return _expm_shifted(work, diag, v)


def _diagonal_slots(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """The slots of a CSR pattern's diagonal entries; ValueError unless each row stores one."""
    n = len(indptr) - 1
    rows = np.repeat(np.arange(n), np.diff(indptr))
    diag = np.flatnonzero(indices == rows)
    bad = np.flatnonzero(np.bincount(rows[diag], minlength=n) != 1)
    if bad.size:
        raise ValueError(
            f"expm_multiply needs each diagonal entry of A stored exactly once; rows {bad.tolist()} "
            "store theirs missing or doubled (quantize and a DrivenHamiltonian's pattern store each once)"
        )
    return diag


def _expm_shifted(work: sp.csr_matrix, diag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(A) v for A held in `work`, whose data becomes A - mu I; `diag` holds its diagonal slots."""
    n, data = work.shape[0], work.data
    mu = data[diag].sum() / float(n)
    data[diag] -= mu
    norm = np.bincount(work.indices, np.abs(data), n).max()
    if not np.isfinite(norm):
        raise FloatingPointError(f"expm_multiply: 1-norm of A - mu I is {norm}")
    if norm == 0:
        m_star, s = 0, 1
    else:
        rounds = np.ceil(norm / _THETA)
        best = int(np.argmin(_THETA_M * rounds))  # the first minimum, as scipy takes it
        m_star, s = int(_THETA_M[best]), int(rounds[best])
    tol = 2.0**-53
    eta = np.exp(mu / float(s))
    f = b = v
    for _ in range(s):
        c1 = np.abs(b).max()
        for j in range(m_star):
            b = (1.0 / (s * (j + 1))) * (work @ b)
            c2 = np.abs(b).max()
            f = f + b
            if c1 + c2 <= tol * np.abs(f).max():
                break
            c1 = c2
        f = eta * f
        b = f
    return f


def evolve_schrodinger(
    state: FockState,
    hamiltonian: ManyBodyOperator | DrivenHamiltonian,
    t_span: tuple[float, float],
    n_steps: int,
    record_every: int = 1,
) -> tuple[np.ndarray, list[FockState]]:
    """Midpoint-exponential evolution of a Fock state in its basis.

    psi(t + dt) = exp(-i H(t + dt/2) dt) psi(t), applied by the
    `expm_multiply` arithmetic on the stored entries of H.  Returns (recorded
    times, recorded states); the FockState constructor enforces the 1e-10
    norm-drift bound.  `hamiltonian` is a static `ManyBodyOperator`, stepped
    as a `DrivenHamiltonian` with no blocks, or a `DrivenHamiltonian` of
    them; anything else raises a ValueError.  A family was validated when
    built, and its pattern work is done once per call: its diagonal slots are
    found and checked against the kernel's contract, and one CSR holder is
    built, into whose data each step writes -i dt h(t).
    """
    import scipy.sparse as sp

    dt, t_mid, times, kept = time_grid(t_span, n_steps, record_every)
    if isinstance(hamiltonian, ManyBodyOperator):
        hamiltonian = DrivenHamiltonian(hamiltonian, ())
    if not (isinstance(hamiltonian, DrivenHamiltonian) and isinstance(hamiltonian.h0, ManyBodyOperator)):
        raise ValueError("hamiltonian must be a ManyBodyOperator or a DrivenHamiltonian of ManyBodyOperators")
    _on_basis(hamiltonian.h0, state)
    indices, indptr = hamiltonian.pattern
    diag = _diagonal_slots(indptr, indices)
    work = sp.csr_matrix((np.zeros(len(indices), complex), indices, indptr), shape=hamiltonian.h0.matrix.shape)
    psi = state.amplitudes.copy()
    states = [state]
    for s, t in enumerate(t_mid, 1):
        np.multiply(hamiltonian.data_at(t), -1j * dt, out=work.data)
        psi = _expm_shifted(work, diag, psi)
        if s in kept:
            states.append(FockState(psi.copy(), state.basis))
    return times, states


def correlation_from_state(state: FockState) -> CorrelationMatrix:
    """One-body correlation C_ij = <c_i^dag c_j> of a Fock state, validated once.

    The one bridge from the Fock backend to the observable layer; it reads
    the table of the state's basis.
    """
    basis, psi = state.basis, state.amplitudes
    table, M = basis.table, basis.n_modes
    w = psi[table.rows].conj() * table.sign * psi[table.indices]
    n = M * M + basis.dim
    flat = np.bincount(table.gather, w.real, n) + 1j * np.bincount(table.gather, w.imag, n)
    occupied = table.occupation.T @ flat[M * M:].real
    return CorrelationMatrix(flat[: M * M].reshape(M, M) + np.diag(occupied))
