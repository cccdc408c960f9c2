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
particles only within groups of modes (`onebody.mode_groups`, e.g. the
spins of a d = 1 pure-gauge drive) keeps each group's count.  A `FockBasis`
is such a sector, given by its mode groups and their counts (one group of
all modes is the N-particle sector), or the whole space.  Its
`BilinearTable` holds every c_i^dag c_j within a group on one sparse
pattern, built once by bit arithmetic: `quantize`, `evolve_schrodinger` and
`correlation_from_state` all read it.  The annihilators of the whole space,
a tuple from `build_ladders`, serve the anticommutator and commutator checks
and the tests' oracle; the spectrum check reads the full `FockBasis` of a
catalog.

A one-body matrix h lifts to the bilinear sum_ij h_ij c_i^dag c_j (no normal
ordering; the sea energy is kept), one gather on the table (`_lift`).  Time
evolution uses the same midpoint-exponential rule, time grid and step guard
as the one-body layer: `evolve_schrodinger` steps what `onebody.propagate`
steps, a static `OneBodyOperator` or a `DrivenHamiltonian`, by the same
route (`onebody._route`): the one family of both pictures, read only on its
mode-group blocks, whose guarded entries at each midpoint it lifts onto the
state's basis.  Each
step applies exp(-i H dt) to the state with a truncated Taylor series on the
stored entries of H (Al-Mohy & Higham 2011).  One core steps them all:
`evolve_schrodinger_batch` advances one state under K families of one basis
together, their H(t) the blocks of one block-diagonal CSR, so each Taylor
term is one sparse product for all K; `_expm_shifted` keeps each column's
own schedule, so every family gets the bytes of its own run.
`evolve_schrodinger` is that core at K = 1, and `expm_multiply` is its
kernel for one matrix.

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
from .onebody import (
    _THETA,
    _THETA_M,
    DrivenHamiltonian,
    OneBodyOperator,
    _check_hermitian,
    _route,
    _step_chunks,
    _tolerance_error,
    h0_matrix,
    time_grid,
)

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
    """Normalized amplitude vector over the occupation basis, within 1e-10.

    A norm off 1 is a ValueError, or a FloatingPointError where some
    amplitude (or the norm) is not finite (`onebody._tolerance_error`).
    """

    amplitudes: np.ndarray
    basis: FockBasis

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (self.basis.dim,):
            raise ValueError(f"amplitude shape {amp.shape} != ({self.basis.dim},)")
        norm = np.linalg.norm(amp)
        if not abs(norm - 1.0) <= 1e-10:
            raise _tolerance_error(
                abs(norm - 1.0), norm, 1e-10, "Fock state norm", f"state norm {norm} drifted beyond 1e-10"
            )
        amp.setflags(write=False)
        object.__setattr__(self, "amplitudes", amp)


@dataclass(frozen=True)
class ManyBodyOperator:
    """Hermitian sparse operator on the Fock basis it acts on, checked when built (stored as CSR).

    A deviation above 1e-12 is a ValueError, or a FloatingPointError where
    it is a numerical trip (`onebody._tolerance_error`), a NaN or inf entry
    among them.
    """

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
        gap = np.abs(dev.data).max() if dev.nnz else 0.0
        if not gap <= 1e-12:
            raise _tolerance_error(gap, np.abs(m.data).max(), 1e-12, "many-body matrix", "hermiticity violated")
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


def _check_sector(h: np.ndarray, basis: FockBasis):
    """ValueError unless the M x M matrix h keeps the particle count of each mode group of `basis`.

    An entry h_ij between two groups would move a particle out of the
    sector; the error names (i, j).
    """
    M = basis.n_modes
    if len(h) != M:
        raise ValueError(f"matrix size {len(h)} != mode count {M}")
    group = basis.group_of
    leaks = np.argwhere((group[:, None] != group) & (h != 0))
    if len(leaks):
        i, j = leaks[0]
        raise ValueError(
            f"h[{i}, {j}] = {h[i, j]:.3g} couples modes {i} and {j} of different groups "
            f"of {basis}; the sector is not invariant"
        )


def _lift(
    entries: np.ndarray, occupation: np.ndarray, diagonal: np.ndarray, where: np.ndarray, sign: np.ndarray
) -> np.ndarray:
    """The entries of sum_ij h_ij c_i^dag c_j at table slots, from some `entries` of h.

    `diagonal` holds the positions of h_00 ... h_(M-1)(M-1) in `entries`.  A
    slot of gather i*M + j reads `entries` at position where = that of h_ij,
    a diagonal slot of gather M*M + row reads where = len(entries) + row, its
    `occupation` times diag(h); `sign` is the slot's.
    """
    return sign * np.concatenate([entries, occupation @ entries[diagonal]])[where]


def quantize(h: OneBodyOperator, basis: FockBasis) -> ManyBodyOperator:
    """Lift an M x M matrix to sum_ij h_ij c_i^dag c_j, gathered onto the basis' table.

    The basis' sector must be invariant (`_check_sector`).
    """
    import scipy.sparse as sp

    _check_sector(h.matrix, basis)
    table, M = basis.table, basis.n_modes
    data = _lift(h.matrix.ravel(), table.occupation, np.arange(M) * (M + 1), table.gather, table.sign)
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
    is the more conservative one).  This is the batched kernel
    `_expm_shifted` with one column.

    Contract: A stores each diagonal entry exactly once (an explicit zero
    counts), so the shift is one subtraction per diagonal slot.  `quantize`
    stores such matrices, as `evolve_schrodinger` does.  Raises
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
            "store theirs missing or doubled (quantize stores each once)"
        )
    return diag


def _on_rows(ks: list[int], new: np.ndarray, old: np.ndarray, K: int) -> np.ndarray:
    """The K equal rows of the flat `old`, with the rows `ks` taken from `new`."""
    out = old.reshape(K, -1).copy()
    out[ks] = new.reshape(K, -1)[ks]
    return out.ravel()


def _expm_shifted(work: sp.csr_matrix, diag: np.ndarray, v: np.ndarray) -> np.ndarray:
    """exp(A_k) v_k for each diagonal block A_k of the matrix held in `work` and each row v_k of v.

    v is (K, n), or (n,) for K = 1; the result has its shape.  `work`'s data
    becomes A_k - mu_k I on each block; `diag` holds its diagonal slots in
    row order.  Each column runs `expm_multiply`'s arithmetic alone: its own
    mu, 1-norm, (m*, s), eta and early exit.  Every Taylor term is one
    product by `work` for all columns, and csr_matvec sums each row in stored
    order, so column k gets the bytes of a product by A_k alone.  A column
    past its rounds, its terms or its early exit is left out of the f and eta
    updates, and the loops end once no column is left.
    """
    n, data = v.shape[-1], work.data
    K = work.shape[0] // n
    starts = np.arange(0, K * n, n)
    shifted = data[diag]
    mu = np.add.reduce(shifted.reshape(K, n), axis=1) / float(n)
    data[diag] = shifted - mu.repeat(n)
    norm = np.maximum.reduceat(np.bincount(work.indices, np.abs(data), K * n), starts)
    worst = np.maximum.reduce(norm)
    if not worst < np.inf:  # NaN or inf
        raise FloatingPointError(f"expm_multiply: 1-norm of A - mu I is {worst}")
    rounds = np.ceil(np.divide.outer(norm, _THETA))
    best = (_THETA_M * rounds).argmin(axis=1)  # the first minimum, as scipy takes it
    s = np.maximum(rounds[np.arange(K), best], 1.0)  # a zero A - mu I takes one round, of no terms
    eta = np.exp(mu / s)[:, None]
    s = s.astype(int).tolist()
    terms = _THETA_M[best].tolist()
    nonzero = norm.tolist()
    # one Python number while every column takes the same number of rounds (always at K = 1):
    # the per-column array alone, same bytes, made a one-family 400-step evolution at M = 8
    # and 12 take 8-23% longer (best of 7 and of 9, interleaved, one BLAS thread, 2-core Xeon)
    scale = s[0] if s.count(s[0]) == K else np.repeat(np.array(s, dtype=float), n)
    tol = 2.0**-53
    f = v.reshape(-1)
    for r in range(max(s)):
        rows = [k for k in range(K) if r < s[k]]
        b = f
        c1 = np.maximum.reduceat(np.abs(b), starts).tolist()
        live = [k for k in rows if nonzero[k]]
        for j in range(max(terms)):
            if not live:
                break
            b = (1.0 / (scale * (j + 1))) * (work @ b)
            c2 = np.maximum.reduceat(np.abs(b), starts).tolist()
            f = f + b if len(live) == K else _on_rows(live, f + b, f, K)
            top = np.maximum.reduceat(np.abs(f), starts).tolist()
            live = [k for k in live if j + 1 < terms[k] and not c1[k] + c2[k] <= tol * top[k]]
            c1 = c2
        # eta on the left, as the scalar kernel has it: the rounding of a complex product can
        # depend on the order of its operands (fused multiply-add)
        stepped = (eta * f.reshape(K, n)).ravel()
        f = stepped if len(rows) == K else _on_rows(rows, stepped, f, K)
    return f.reshape(v.shape)


def evolve_schrodinger(
    state: FockState,
    hamiltonian: OneBodyOperator | DrivenHamiltonian,
    t_span: tuple[float, float],
    n_steps: int,
    record_every: int = 1,
) -> tuple[np.ndarray, list[FockState]]:
    """Midpoint-exponential evolution of a Fock state in its basis.

    psi(t + dt) = exp(-i H(t + dt/2) dt) psi(t), with H the lift of the
    one-body h(t + dt/2), applied by the `expm_multiply` arithmetic on the
    stored entries of H.  Returns (recorded times, recorded states); the
    FockState constructor enforces the 1e-10 norm-drift bound.

    `hamiltonian` is what `onebody.propagate` steps, a static
    `OneBodyOperator` or a `DrivenHamiltonian` of them, checked by the same
    `_step_guard` (a StepGuardError at the step `propagate` raises at).  This
    is `evolve_schrodinger_batch` with one family.
    """
    times, [states] = evolve_schrodinger_batch(state, [hamiltonian], t_span, n_steps, record_every)
    return times, states


def evolve_schrodinger_batch(
    state: FockState,
    hamiltonians: list[OneBodyOperator | DrivenHamiltonian],
    t_span: tuple[float, float],
    n_steps: int,
    record_every: int = 1,
) -> tuple[np.ndarray, list[list[FockState]]]:
    """`evolve_schrodinger` of one state under each of K >= 1 families, stepped together.

    Returns (recorded times, the recorded states of each family); each
    family's states are the bytes of its own one-family evolution.  Every
    family is what `onebody.propagate` steps, read by the same `_route`
    (anything else raises a ValueError), and each operator must keep the
    state's sector (`_check_sector`).  Its chunks come from the same
    `_step_chunks`, guarded there, so a family that trips raises the
    StepGuardError of its own run, and of `propagate`'s.

    The K lifted H(t) sit on one block-diagonal CSR, built once.  Block k
    holds family k's slots: those of the basis' table on its support, and
    every diagonal slot, as the kernel needs each stored once.  Beside them
    each support maps the slots' gather to positions in a chunk's entries
    (the `_route` index of the family's mode-group blocks); families of one
    support share both.  Each step lifts every h_k(t) from its chunk's
    entries onto its block with `quantize`'s arithmetic (`_lift`), and
    `_expm_shifted` steps all K states with one CSR product per Taylor term.
    """
    import scipy.sparse as sp

    if not hamiltonians:
        raise ValueError("evolve_schrodinger_batch needs at least one family")
    dt, t_mid, times, kept = time_grid(t_span, n_steps, record_every)
    routes = [_route(ham) for ham in hamiltonians]
    basis, table = state.basis, state.basis.table
    dim, K, M = basis.dim, len(hamiltonians), basis.n_modes
    by_support: dict[bytes, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
    lifts = []  # (slots, diagonal, where, sign) of each family
    for family, _, index in routes:
        for op in (family.h0, *(op for op, _ in family.blocks)):
            _check_sector(op.matrix, basis)
        key = family.support.tobytes()
        if key not in by_support:
            slots = np.flatnonzero(np.concatenate([family.support.ravel(), np.ones(dim, dtype=bool)])[table.gather])
            # position of each gather value among a chunk's entries, then of each diagonal lift after them
            position = np.zeros(M * M + dim, dtype=np.intp)
            position[index] = np.arange(len(index))
            position[M * M :] = len(index) + np.arange(dim)
            by_support[key] = slots, position[np.arange(M) * (M + 1)], position[table.gather[slots]], table.sign[slots]
        lifts.append(by_support[key])
    bounds = np.cumsum([0] + [len(slots) for slots, *_ in lifts])
    counts = np.concatenate([np.bincount(table.rows[slots], minlength=dim) for slots, *_ in lifts])
    work = sp.csr_matrix(
        (
            np.zeros(bounds[-1], complex),
            np.concatenate([table.indices[slots] + k * dim for k, (slots, *_) in enumerate(lifts)]),
            np.concatenate([[0], np.cumsum(counts)]).astype(table.indptr.dtype),
        ),
        shape=(K * dim, K * dim),
    )
    diag = np.concatenate([lo + np.flatnonzero(table.gather[slots] >= M * M) for lo, (slots, *_) in zip(bounds, lifts)])
    held = [work.data[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:])]
    occupation = table.occupation.astype(complex)  # the cast quantize's matmul makes on every call
    chunks = [_step_chunks(family, layout, index, dt, t_mid) for family, layout, index in routes]
    psi = np.tile(state.amplitudes, (K, 1))
    runs = [[state] for _ in range(K)]
    current = [(0, ())] * K  # each family's chunk: (first step, its entries)
    for n in range(n_steps):
        for k in range(K):
            first, entries = current[k]
            if n == first + len(entries):
                current[k] = first, entries = next(chunks[k])[:2]
            np.multiply(_lift(entries[n - first], occupation, *lifts[k][1:]), -1j * dt, out=held[k])
        psi = _expm_shifted(work, diag, psi)
        if n + 1 in kept:
            for run, amplitudes in zip(runs, psi):
                run.append(FockState(amplitudes.copy(), basis))
    return times, runs


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
