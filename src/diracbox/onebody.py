"""One-body (first-quantized) layer on the truncated mode basis.

The free Hamiltonian is diagonal, h0 = diag(lam * E_p).  A classical
potential enters through

    v(t) = -e alpha . A(x, t) + e A_0(x, t),

with A and A_0 band-limited Fourier sums on the box.  A Fourier component at
wave vector k couples momentum n to n + k (grid units); couplings whose
target leaves the grid are dropped, which keeps the matrix hermitian because
the +-k partners drop together.

Gauge data chi(x, t) = sum_k chi_k e^{ikx} g(t) produces the transformed
potential A' = A - grad(chi), A_0' = A_0 + d(chi)/dt (`gauge_transform`).
Its d(chi)/dt block is e X_1, the multiplication by chi_1 = chi / g, so the
gauge phase exp(-i e X(t)) is exp(-i g(t) e X_1) on the same mode groups.

Time evolution is the midpoint-exponential stepper

    u(t + dt) = exp(-i h(t + dt/2) dt) u(t),

second-order accurate (the second-order Magnus integrator).  The midpoint
Hamiltonians never depend on the state, so their exponentials are taken in
batches of `_STEP_CHUNK` steps ahead of the chain of products.  Every
chunk that passes the step guard steps by a truncated Taylor polynomial,
its degree read off the theta_m table of Al-Mohy & Higham (SIAM J. Sci.
Comput. 33, 488 (2011)) that the Fock kernel reads too; it is unitary to
roundoff.  The guard (`_step_guard`) bounds ||h||_2 * dt; a chunk is
metered by eigvalsh only when its 1-norm, an upper bound, exceeds that.
Both steppers take one route (`_route`): every Hamiltonian is a
`DrivenHamiltonian` family (a static operator one with no blocks), read
only on the blocks of the invariant mode groups (`mode_groups`) of the
support it records when built: the spin blocks of a pure-gauge family in
d = 1, the 1 x 1 blocks of the diagonal h0, which step as exact phases.
`_step_chunks` builds each chunk's h(t) on those blocks alone and guards
it; `propagate` steps u on the blocks and records it there (a
`OneBodyPropagator` holds no dense u), and `fock.evolve_schrodinger` lifts
the same entries onto its Fock basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .modes import ALPHA, BasisCatalog, IntVec, MomentumGrid, as_int_vec

HERMITICITY_TOL = 1e-12


# ---------------------------------------------------------------------------
# envelopes

class CosineRamp:
    """g(t) = (1 - cos(omega t)) / (1 - cos(omega t_final)).

    Smooth switch-on with g(0) = 0, g'(0) = 0, normalized so g(t_final) = 1.
    The default omega = pi / t_final rises monotonically over one half period.
    """

    def __init__(self, t_final: float, omega: float | None = None):
        if t_final <= 0:
            raise ValueError("t_final must be positive")
        self.t_final = float(t_final)
        self.omega = float(omega) if omega is not None else np.pi / self.t_final
        denom = 1.0 - np.cos(self.omega * self.t_final)
        if abs(denom) < 1e-12:
            raise ValueError("omega * t_final hits a full period; ramp cannot be normalized")
        self._norm = 1.0 / denom

    def value(self, t: float) -> float:
        return (1.0 - np.cos(self.omega * t)) * self._norm

    def dot(self, t: float) -> float:
        return self.omega * np.sin(self.omega * t) * self._norm

    def ddot(self, t: float) -> float:
        return self.omega**2 * np.cos(self.omega * t) * self._norm

    def __repr__(self):
        return f"CosineRamp(t_final={self.t_final}, omega={self.omega})"


class Constant:
    """Time-independent envelope."""

    def __init__(self, c: float = 1.0):
        self.c = float(c)

    def value(self, t: float) -> float:
        return self.c

    def dot(self, t: float) -> float:
        return 0.0

    def ddot(self, t: float) -> float:
        return 0.0

    def __repr__(self):
        return f"Constant({self.c})"


class TimeDerivative:
    """View of another envelope's time derivative (used for d(chi)/dt)."""

    def __init__(self, base):
        self.base = base

    def value(self, t: float) -> float:
        return self.base.dot(t)

    def dot(self, t: float) -> float:
        return self.base.ddot(t)

    def __repr__(self):
        return f"TimeDerivative({self.base!r})"


class Scaled:
    """A constant factor times another envelope: a drive's strength carried by its weight."""

    def __init__(self, factor: float, base):
        self.factor = float(factor)
        self.base = base

    def value(self, t: float) -> float:
        return self.factor * self.base.value(t)

    def __repr__(self):
        return f"Scaled({self.factor}, {self.base!r})"


# ---------------------------------------------------------------------------
# potential and gauge data

# a deviation within this fraction of the data's largest magnitude is their rounding
_ROUNDOFF_REL = 64 * np.finfo(float).eps


def _tolerance_error(dev: float, scale: float, tol: float, what: str, violation: str) -> Exception:
    """The error for a deviation `dev` (NaN included) over `tol`, on data of largest magnitude `scale`.

    A numerical trip is a FloatingPointError: data (or a deviation) that are
    not finite, or a deviation within `_ROUNDOFF_REL` of the data's own
    magnitude, which only the absolute `tol` rejects.  Anything else is the
    ValueError `violation`.
    """
    if not (dev < np.inf and scale < np.inf):  # NaN or inf
        return FloatingPointError(f"{what} is not finite: deviation {dev}")
    if dev <= _ROUNDOFF_REL * scale:
        return FloatingPointError(
            f"{what} of magnitude {scale:.3e} misses the tolerance {tol:g} by its rounding alone (deviation {dev:.3e})"
        )
    return ValueError(violation)


def _check_reality(amps: Mapping[IntVec, complex], what: str):
    """A real field needs amp(-k) = conj(amp(k)) for every stored k, within 1e-13 (an inf leaves a gap of NaN)."""
    for k, val in amps.items():
        mk = (-k[0], -k[1], -k[2])
        if mk not in amps:
            raise ValueError(f"{what}: missing -k partner for k = {k}")
        gap = np.abs(val - np.conj(amps[mk])).max()
        if not gap <= 1e-13:
            scale = np.max([np.abs(val).max(), np.abs(amps[mk]).max()])
            raise _tolerance_error(
                gap, scale, 1e-13, f"{what}: amplitude at k = {k}", f"{what}: reality violated at k = {k}"
            )


def _check_band(keys, grid: MomentumGrid):
    """Hard band-limit check: |k_i| <= 2 n_max, on-axis for d = 1."""
    for k in keys:
        if grid.d == 1 and (k[0] != 0 or k[1] != 0):
            raise ValueError(f"wave vector {k} off the 1-d grid axis")
        if max(abs(c) for c in k) > 2 * grid.n_max:
            raise ValueError(
                f"wave vector {k} beyond band limit 2*n_max = {2 * grid.n_max}"
            )


def _norm_scalar_map(amps) -> dict[IntVec, complex]:
    return {as_int_vec(k): complex(v) for k, v in (amps or {}).items()}


def _norm_vector_map(amps) -> dict[IntVec, np.ndarray]:
    out = {}
    for k, v in (amps or {}).items():
        arr = np.asarray(v, dtype=complex)
        if arr.shape != (3,):
            raise ValueError(f"vector amplitude at {k} must have 3 components")
        arr.setflags(write=False)
        out[as_int_vec(k)] = arr
    return out


@dataclass(frozen=True)
class PotentialTerm:
    """One (a0, a, envelope) Fourier block of the potential."""

    a0: Mapping[IntVec, complex]
    a: Mapping[IntVec, np.ndarray]
    envelope: object

    def __post_init__(self):
        object.__setattr__(self, "a0", _norm_scalar_map(self.a0))
        object.__setattr__(self, "a", _norm_vector_map(self.a))
        _check_reality(self.a0, "a0")
        _check_reality(self.a, "a")


@dataclass(frozen=True)
class PotentialSpec:
    """Classical potential as a sum of Fourier blocks with own envelopes.

    A single block is the common case; gauge_transform appends the
    -grad(chi) and d(chi)/dt blocks, whose time profiles (g and g') differ
    from the original envelope.
    """

    terms: tuple[PotentialTerm, ...] = ()

    @classmethod
    def single(cls, a0=None, a=None, envelope=None) -> "PotentialSpec":
        return cls((PotentialTerm(a0 or {}, a or {}, envelope or Constant(1.0)),))

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls(())


@dataclass(frozen=True)
class GaugeFunction:
    """chi(x, t) = sum_k chi_k e^{ikx} g(t); g(0) = 0 and g'(0) = 0.

    The initial-time constraints keep the transformed potential compatible
    with A(0) = dA/dt(0) = 0 initial conditions.
    """

    chi: Mapping[IntVec, complex]
    envelope: object

    def __post_init__(self):
        object.__setattr__(self, "chi", _norm_scalar_map(self.chi))
        _check_reality(self.chi, "chi")
        if abs(self.envelope.value(0.0)) > 1e-12 or abs(self.envelope.dot(0.0)) > 1e-12:
            raise ValueError("gauge envelope must satisfy g(0) = 0 and g'(0) = 0")

    def band(self) -> int:
        return max((max(abs(c) for c in k) for k in self.chi), default=0)


# ---------------------------------------------------------------------------
# operators

@dataclass(frozen=True)
class OneBodyOperator:
    """Hermitian M x M matrix on catalog mode coefficients, checked when built.

    A deviation above `HERMITICITY_TOL` is a ValueError, or a
    FloatingPointError where it is a numerical trip (`_tolerance_error`):
    some entry is not finite, or the deviation is rounding of entries too
    large for the absolute tolerance.
    """

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        dev = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
        if not dev <= HERMITICITY_TOL:
            raise _tolerance_error(
                dev, np.abs(mat).max(), HERMITICITY_TOL, "one-body matrix",
                f"hermiticity violated: max deviation {dev:.3e}",
            )
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]


def h0_matrix(catalog: BasisCatalog) -> OneBodyOperator:
    """Free Hamiltonian, diagonal with entries lam * E_p."""
    return OneBodyOperator(np.diag(catalog.signs() * catalog.energies()).astype(complex))


def _coupling_matrix(
    catalog: BasisCatalog,
    scalar: Mapping[IntVec, complex],
    vector: Mapping[IntVec, np.ndarray],
) -> np.ndarray:
    """Assemble sum_k [scalar_k * I4 + alpha . vector_k] plane-wave couplings.

    Element (target, source) = u_target^dag (scalar_k + alpha.vector_k)
    u_source with n_target = n_source + k; off-grid targets are dropped.
    Every k must lie within the grid's band (`_check_band`).
    """
    keys = set(scalar) | set(vector)
    _check_band(keys, catalog.grid)
    M = catalog.size
    out = np.zeros((M, M), dtype=complex)
    tables = catalog.tables
    for k in keys:
        block = scalar.get(k, 0.0) * np.eye(4, dtype=complex)
        vec = vector.get(k)
        if vec is not None:
            block = block + np.tensordot(vec, ALPHA, axes=(0, 0))
        # pairs (target, source) with n_target - n_source = k; a target off the kept momenta never matches
        hit = (tables.wave_vectors == np.negative(k)).all(axis=1)[tables.wave_index]
        out[hit] += tables.coupling(block)[hit]
    return out


def interaction_term_matrices(
    catalog: BasisCatalog, pot: PotentialSpec, e: float = 1.0
) -> list[tuple[OneBodyOperator, object]]:
    """Static matrix of each potential block, paired with its envelope.

    The full interaction at time t is the envelope-weighted sum: the blocks
    of a `DrivenHamiltonian`.
    """
    out = []
    for term in pot.terms:
        a_scaled = {k: -e * v for k, v in term.a.items()}  # -e alpha . A
        a0_scaled = {k: e * v for k, v in term.a0.items()}  # +e A_0
        mat = _coupling_matrix(catalog, a0_scaled, a_scaled)
        out.append((OneBodyOperator(mat), term.envelope))
    return out


# No driver calls it; perfbench/tracing.py still names it.
def gauge_phase(x_op: OneBodyOperator, e: float = 1.0) -> np.ndarray:
    """Unitary exp(-i e X) through the hermitian eigendecomposition of X."""
    return unitary_step(x_op.matrix, e)


def gauge_transform(
    pot: PotentialSpec, chi: GaugeFunction, grid: MomentumGrid
) -> PotentialSpec:
    """A' = A - grad(chi), A_0' = A_0 + d(chi)/dt as appended Fourier blocks.

    The electric and magnetic fields are unchanged: the new blocks cancel in
    -dA/dt - grad(A_0) and grad x A.  chi must lie within the grid's band;
    the blocks of `pot` are checked where they meet a catalog.
    """
    _check_band(chi.chi, grid)
    dk = grid.dk
    grad_block = PotentialTerm(
        a0={},
        a={k: -1j * dk * np.array(k, dtype=float) * v for k, v in chi.chi.items()},
        envelope=chi.envelope,
    )
    dt_block = PotentialTerm(
        a0=dict(chi.chi),
        a={},
        envelope=TimeDerivative(chi.envelope),
    )
    return PotentialSpec(pot.terms + (grad_block, dt_block))


def efield_coefficients(pot: PotentialSpec, grid: MomentumGrid, t: float) -> dict[IntVec, np.ndarray]:
    """Fourier coefficients of E = -dA/dt - grad(A_0) at time t."""
    out: dict[IntVec, np.ndarray] = {}
    for term in pot.terms:
        for k, v in term.a.items():
            out[k] = out.get(k, np.zeros(3, complex)) - v * term.envelope.dot(t)
        for k, v in term.a0.items():
            kvec = grid.dk * np.array(k, dtype=float)
            out[k] = out.get(k, np.zeros(3, complex)) - 1j * kvec * (v * term.envelope.value(t))
    return out


def bfield_coefficients(pot: PotentialSpec, grid: MomentumGrid, t: float) -> dict[IntVec, np.ndarray]:
    """Fourier coefficients of B = grad x A at time t."""
    out: dict[IntVec, np.ndarray] = {}
    for term in pot.terms:
        for k, v in term.a.items():
            kvec = grid.dk * np.array(k, dtype=float)
            out[k] = out.get(k, np.zeros(3, complex)) + 1j * np.cross(kvec, v * term.envelope.value(t))
    return out


# ---------------------------------------------------------------------------
# propagation

def unitary_step(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i h dt) for hermitian h via eigendecomposition (exactly unitary); a stack of them broadcasts."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)[..., None, :]) @ v.conj().swapaxes(-1, -2)


class StepGuardError(ValueError):
    """A midpoint step whose ||h||*dt exceeds the accuracy bound."""

    def __init__(self, step: int, time: float, value: float, bound: float):
        super().__init__(
            f"step too coarse: ||h||*dt = {value:.4g} > {bound} "
            f"at step {step} (t_mid = {time:.6g})"
        )
        self.step = step
        self.time = time
        self.value = value
        self.bound = bound


def _check_hermitian(op, kind=OneBodyOperator) -> np.ndarray:
    """The matrix of `op`; an instance of `kind` was checked hermitian when built."""
    if not isinstance(op, kind):
        raise ValueError(f"expected a hermitian {kind.__name__}, got {type(op).__name__}")
    return op.matrix


@dataclass(frozen=True)
class DrivenHamiltonian:
    """h(t) = h0 + sum_b g_b(t) B_b with static hermitian blocks B_b.

    One family for both pictures, and the only Hamiltonian `propagate` and
    `fock.evolve_schrodinger` step (`_route` makes a static operator one
    with no blocks): h0 and the blocks are `OneBodyOperator`s (the blocks
    of `interaction_term_matrices`), each validated once, here.  A sum of
    hermitian blocks with real weights is hermitian, so h(t) needs no
    per-step check.  `support`, recorded here too, holds the entries
    nonzero in h0 or some block: every h(t) is zero off it, and both
    steppers read it.
    """

    h0: OneBodyOperator
    blocks: tuple[tuple[OneBodyOperator, object], ...]
    support: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        h0 = _check_hermitian(self.h0)
        support = h0 != 0
        for op, _ in self.blocks:
            if _check_hermitian(op).shape != h0.shape:
                raise ValueError("driven blocks must match the shape of h0")
            support |= op.matrix != 0
        support.setflags(write=False)
        object.__setattr__(self, "support", support)

    def data_at(self, t: float) -> np.ndarray:
        """The matrix h(t)."""
        return self.stack([t])[0]

    def stack(self, times) -> np.ndarray:
        """h(t) at every t in `times`, one dense (n, M, M) array.

        Each h(t) is h0 with g_b(t) B_b added in block order, none where
        g_b(t) = 0: the sums `_step_chunks` takes on the mode-group blocks
        alone, so this is their dense oracle.  No stepper reads it.
        """
        h = np.empty((len(times),) + self.h0.matrix.shape, dtype=complex)
        h[:] = self.h0.matrix
        for op, env in self.blocks:
            for h_t, t in zip(h, times):
                g = env.value(t)
                if g != 0.0:
                    h_t += g * op.matrix
        return h


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for stacks of matrices; an inner dimension of 1 is the elementwise product, broadcast."""
    return a * b if a.shape[-1] == 1 else a @ b


@dataclass(frozen=True)
class OneBodyPropagator:
    """Mode-basis propagator u(t) sampled on the recorded time grid, held on its mode-group blocks.

    u is block-diagonal on the groups of `layout`, a `_route` layout (one
    (n_blocks, size) index array per size class), and zero off them:
    `blocks` holds, per size class, the (n_times, n_blocks, size, size)
    stack of u's blocks (a dense u is one block of all M modes).

    u(times[0]) = identity; each block of each stored u is unitary within
    1e-10, entrywise, checked once, here, so u is.  The same products give
    `unitarity_defect`, the largest ||u^dag u - I||_F over the stored times:
    u^dag u - I is block-diagonal, so that is the root sum of squares of
    its blocks' Frobenius norms.  It bounds ||u^dag u - I||_2, which the
    entrywise check does not, and `gaussian.evolve_correlation` certifies
    its frames from it.  `matrices` and `final` are read-only dense views,
    built on first use.
    """

    times: np.ndarray
    blocks: tuple = field(repr=False)
    layout: tuple = field(repr=False)
    unitarity_defect: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        stacks = [np.asarray(b, dtype=complex) for b in self.blocks]
        layout = [np.asarray(rows) for rows in self.layout]
        if any(len(u) != len(times) for u in stacks):
            raise ValueError("one matrix per recorded time required")
        modes = np.sort(np.concatenate([rows.ravel() for rows in layout]))
        shapes = [rows.shape + rows.shape[-1:] for rows in layout]
        if [u.shape[1:] for u in stacks] != shapes or (modes != np.arange(modes.size)).any():
            raise ValueError("blocks must cover every mode once, on the groups of their layout")
        drift, defect = [], np.zeros(len(times))
        for u in stacks:
            gap = np.abs(_product(u.conj().swapaxes(-1, -2), u) - np.eye(u.shape[-1]))
            drift.append(gap.max(initial=0.0))
            defect += (gap**2).sum(axis=(1, 2, 3))
        drift, defect = np.max(drift), np.sqrt(defect).max()
        if not drift < np.inf:  # NaN or inf
            raise FloatingPointError(f"propagator is not finite: unitarity drift {drift}")
        if drift > 1e-10:
            raise ValueError(f"propagator lost unitarity: {drift:.3e}")
        for a in (times, *stacks, *layout):
            a.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "blocks", tuple(stacks))
        object.__setattr__(self, "layout", tuple(layout))
        object.__setattr__(self, "unitarity_defect", float(defect))

    @property
    def size(self) -> int:
        return sum(rows.size for rows in self.layout)

    @cached_property
    def matrices(self) -> np.ndarray:
        """The dense (n_times, M, M) stack of u."""
        return _join(zip(self.layout, self.blocks), self.size)

    @cached_property
    def final(self) -> np.ndarray:
        """The dense M x M u at the last recorded time."""
        return _join([(rows, u[-1]) for rows, u in zip(self.layout, self.blocks)], self.size)


# midpoint steps per batch; longer chunks cost memory, not time
_STEP_CHUNK = 16
# accuracy guard of both steppers: the largest ||h(t_mid)||_2 * dt of one step
MAX_STEP_NORM = 0.1
# theta_m, the largest 1-norm for which m Taylor terms reach tolerance 2^-53:
# m <= 30 from table A.3 of Higham & Al-Mohy, Acta Numerica 19, 159 (2010),
# m >= 35 from table 3.1 of Al-Mohy & Higham, SIAM J. Sci. Comput. 33, 488
# (2011); the values scipy.sparse.linalg.expm_multiply uses.  Both pictures
# pick their Taylor degree from it: `_guarded_steps` and `fock.expm_multiply`.
_THETA_M = np.array([*range(1, 31), 35, 40, 45, 50, 55])
_THETA = np.array([
    2.29e-16, 2.58e-8, 1.39e-5, 3.40e-4, 2.40e-3, 9.07e-3, 2.38e-2, 5.00e-2, 8.96e-2, 1.44e-1,
    2.14e-1, 3.00e-1, 4.00e-1, 5.14e-1, 6.41e-1, 7.81e-1, 9.31e-1, 1.09, 1.26, 1.44,
    1.62, 1.82, 2.01, 2.22, 2.43, 2.64, 2.86, 3.08, 3.31, 3.54,
    4.7, 6.0, 7.2, 8.5, 9.9,
])


def _taylor_degree(norm: float) -> int:
    """The least degree m with `norm` <= theta_m: the Taylor degree for a 1-norm of A = -i h dt."""
    return int(_THETA_M[np.searchsorted(_THETA, norm)])


# the Taylor coefficients c_k = 1/k! up to the largest degree of the theta_m table
_INV_FACTORIAL = [1.0 / math.factorial(k) for k in range(_THETA_M[-1] + 1)]
# the Paterson-Stockmeyer block size s of each degree m: the fewest matmuls,
# s - 1 + (m - 1) // s, and the least s on a tie
_PS_BLOCK = [0] + [
    min(range(1, m + 1), key=lambda s: (s - 1 + (m - 1) // s, s)) for m in range(1, _THETA_M[-1] + 1)
]


def _diagonal(p: np.ndarray) -> np.ndarray:
    """A writable view of the diagonals of a C-contiguous stack of square matrices."""
    return p.reshape(p.shape[:-2] + (-1,))[..., :: p.shape[-1] + 1]


def _exp_taylor(h: np.ndarray, dt: float, m: int) -> np.ndarray:
    """exp(-i h dt) as the degree-m Taylor polynomial of A = -i h dt; a stack of them broadcasts.

    Paterson & Stockmeyer (SIAM J. Comput. 2, 60 (1973)): with the powers
    A^2 ... A^s formed once, the polynomial is Horner's rule in A^s over
    blocks B_j = sum_{i < s} c_{js+i} A^i of the coefficients c_k = 1/k!.
    The top block starts at j = (m - 1) // s and holds c_m A^{m - js}, so
    a top block of c_m I alone joins the block below it as c_m A^s.  That
    is s - 1 + (m - 1) // s matmuls for the s of `_PS_BLOCK` (Horner's
    m - 1 for m <= 3; 2, 3, 3, 4, 4, 4, 5 for m = 4 ... 10).  Beside the
    powers, two buffers the size of A serve every block: they alternate as
    the accumulator and the matmul output, and the free one takes each
    scaled power.
    """
    c = _INV_FACTORIAL
    s = _PS_BLOCK[m]
    powers = [None, h * (-1j * dt)]  # powers[i] = A^i
    for _ in range(s - 1):
        powers.append(powers[-1] @ powers[1])
    p, q = (np.empty(powers[1].shape, dtype=complex) for _ in range(2))  # C-contiguous, for `_diagonal`
    j = (m - 1) // s
    np.multiply(powers[m - j * s], c[m], out=p)
    for first in range(j * s, -1, -s):  # block B_j starts at c_first, first = js
        if first < j * s:
            np.matmul(p, powers[s], out=q)
            p, q = q, p
        for k in range(min(first + s, m) - 1, first, -1):
            np.multiply(powers[k - first], c[k], out=q)  # q is free until the next product
            p += q
        diagonal = _diagonal(p)
        diagonal += c[first]
    return p


def _step_guard(hs: list[np.ndarray], dt: float, t_mid: list[float], first: int) -> float:
    """The step guard of both pictures; returns the chunk's largest ||h_n||_1 * dt.

    `hs` holds a chunk's stacks of the invariant blocks of hermitian
    h_n = h(t_mid[n]), as `_step_chunks` builds them for both steppers.
    The guard bounds ||h_n||_2 * dt by
    `MAX_STEP_NORM`.  Since ||h||_2 <= ||h||_1 for hermitian h, a chunk
    whose largest ||h_n||_1 * dt is within that bound passes as it stands;
    any other chunk is metered by eigvalsh, as the max over blocks of
    max|w_n| * dt, and raises at the first step (global index `first` + n)
    over the bound.  A chunk whose 1-norm is NaN or inf raises
    FloatingPointError.
    """
    norm = np.max([np.abs(h).sum(axis=-2).max() for h in hs]) * dt
    if not norm < np.inf:  # NaN or inf
        raise FloatingPointError(f"step guard: ||h||_1*dt = {norm} is not finite in the chunk from step {first}")
    if norm > MAX_STEP_NORM:
        size = np.max([np.abs(np.linalg.eigvalsh(h)).reshape(len(h), -1).max(axis=1) for h in hs], axis=0) * dt
        over = np.flatnonzero(size > MAX_STEP_NORM)
        if over.size:
            n = int(over[0])
            raise StepGuardError(first + n, t_mid[n], float(size[n]), MAX_STEP_NORM)
    return norm


def _guarded_steps(hs: list[np.ndarray], dt: float, norm: float):
    """exp(-i h_n dt) on each stack of hermitian blocks of a chunk that passed `_step_guard` at 1-norm `norm`.

    The 1 x 1 blocks step as exact phases, the others as the Taylor
    polynomial of the least degree whose theta_m bounds the chunk's largest
    1-norm (`_taylor_degree`).  The lookup needs that 1-norm within
    theta_max = 9.9: a passing step has ||h||_1 * dt <= sqrt(n) * 0.1 for
    its largest block size n <= M, which holds for M <= 9 801.  A chunk
    whose 1-norm is within the guard's 0.1 < theta_10 takes degree m <= 10,
    so at most 5 matmuls per step (`_exp_taylor`; the driven chunks of the
    default scenarios take degrees 4 to 6, 2 or 3 matmuls).
    """
    m = _taylor_degree(norm)
    return [np.exp(-1j * h.real * dt) if h.shape[-1] == 1 else _exp_taylor(h, dt, m) for h in hs]


def mode_groups(support: np.ndarray) -> list[np.ndarray]:
    """The invariant mode groups of a `support`: its connected components as sorted index arrays, by least index."""
    labels = _components(support)
    return [np.flatnonzero(labels == label) for label in np.unique(labels)]


def _route(hamiltonian):
    """(family, layout, index): how both steppers read `hamiltonian`, before any step.

    The family is `hamiltonian` itself, or for a static `OneBodyOperator` a
    `DrivenHamiltonian` of it with no blocks; anything else raises a
    ValueError.  The layout is the `mode_groups` of its support grouped by
    size, one (n_blocks, size) index array per size, and the index holds
    the flat M x M position of every entry of those blocks, size by size,
    each block's entries in row order.
    """
    if isinstance(hamiltonian, OneBodyOperator):
        hamiltonian = DrivenHamiltonian(hamiltonian, ())
    if not isinstance(hamiltonian, DrivenHamiltonian):
        raise ValueError("hamiltonian must be a OneBodyOperator or a DrivenHamiltonian of OneBodyOperators")
    size = hamiltonian.h0.size
    by_size: dict[int, list] = {}
    for rows in mode_groups(hamiltonian.support):
        by_size.setdefault(len(rows), []).append(rows)
    layout = [np.array(rows) for rows in by_size.values()]
    index = np.concatenate([(rows[:, :, None] * size + rows[:, None, :]).ravel() for rows in layout])
    return hamiltonian, layout, index


def _step_chunks(family: DrivenHamiltonian, layout: list, index: np.ndarray, dt: float, t_mid: list[float]):
    """Each `_STEP_CHUNK` midpoint times of `t_mid` as (first step, entries, stacks, 1-norm), past `_step_guard`.

    `entries` holds h(t_mid[first + n]) at `index` (`_route`) in row n: h0,
    then g_b(t) B_b added in block order, none where g_b(t) = 0, the sums
    `DrivenHamiltonian.stack` takes on the whole matrix.  `stacks` are its
    views as one (n, n_blocks, size, size) stack per size class of `layout`,
    and the 1-norm is the guard's, so both steppers read one guarded chunk.
    """
    h0 = family.h0.matrix.ravel()[index]
    terms = [(op.matrix.ravel()[index], env) for op, env in family.blocks]
    bounds = np.cumsum([0] + [rows.size * rows.shape[1] for rows in layout])
    for first in range(0, len(t_mid), _STEP_CHUNK):
        chunk = t_mid[first : first + _STEP_CHUNK]
        h = np.empty((len(chunk), len(index)), dtype=complex)
        h[:] = h0
        for b, env in terms:
            for h_t, t in zip(h, chunk):
                g = env.value(t)
                if g != 0.0:
                    h_t += g * b
        hs = [
            h[:, lo:hi].reshape(len(chunk), *rows.shape, rows.shape[1])
            for rows, lo, hi in zip(layout, bounds, bounds[1:])
        ]
        yield first, h, hs, _step_guard(hs, dt, chunk, first)


def _components(pattern: np.ndarray) -> np.ndarray:
    """Connected components of a square boolean pattern, taken as undirected.

    Each index is labelled with the smallest index it reaches: every label
    drops to the least label among its neighbours until none moves.
    """
    rows, cols = np.nonzero(pattern | pattern.T)
    labels = np.arange(len(pattern))
    while (labels[cols] < labels[rows]).any():
        np.minimum.at(labels, rows, labels[cols])
    return labels


def _split(u: np.ndarray, layout: list[np.ndarray]) -> list:
    """u on the blocks of a `_route` layout, as [(rows, u_blocks)]: each (n_blocks, size, size) stack with its rows."""
    return [(rows, u[rows[:, :, None], rows[:, None, :]]) for rows in layout]


def _join(blocks, size: int) -> np.ndarray:
    """The read-only size x size matrix of a block-diagonal u held as `_split` gives it; a stack of them broadcasts."""
    blocks = list(blocks)
    u = np.zeros(blocks[0][1].shape[:-3] + (size, size), dtype=complex)
    for rows, ub in blocks:
        u[..., rows[:, :, None], rows[:, None, :]] = ub
    u.setflags(write=False)
    return u


def _chain(blocks: list, steps: list):
    """u on its blocks after each step of a chunk, in step order: s[n] @ u per block and step.

    Where every block is 1 x 1 the chain is elementwise: one cumulative
    product down the chunk's steps, u first, with the products of the
    per-step loop.
    """
    if len(blocks) == 1 and blocks[0][1].shape[-1] == 1:
        rows, u = blocks[0]
        chain = np.concatenate([u[None], steps[0]])
        for u in np.cumprod(chain, axis=0, out=chain)[1:]:
            yield [(rows, u)]
        return
    for n in range(len(steps[0])):
        blocks = [(rows, s[n] @ ub) for (rows, ub), s in zip(blocks, steps)]
        yield blocks


def time_grid(t_span: tuple[float, float], n_steps: int, record_every: int):
    """The midpoint grid both pictures step on: (dt, t_mid, times, kept).

    Step s runs at t_mid[s] = t0 + (s + 0.5) dt.  The state after s steps is
    recorded when s is in `kept` (each `record_every`-th and the last);
    `times` are the recorded grid times, t0 first.
    """
    t0, t1 = map(float, t_span)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if record_every < 1:
        raise ValueError("record_every must be >= 1")
    if t1 <= t0:
        raise ValueError("t_span must advance forward")
    dt = (t1 - t0) / n_steps
    t_mid = [t0 + (step + 0.5) * dt for step in range(n_steps)]
    kept = [s for s in range(1, n_steps + 1) if s % record_every == 0 or s == n_steps]
    return dt, t_mid, np.array([t0] + [t0 + s * dt for s in kept]), set(kept)


def propagate(
    hamiltonian: OneBodyOperator | DrivenHamiltonian,
    t_span: tuple[float, float],
    n_steps: int,
    record_every: int = 1,
) -> OneBodyPropagator:
    """Midpoint-exponential propagation of i du/dt = h(t) u, u(t0) = 1.

    Records u at every `record_every`-th grid time (the final time is always
    recorded).  Raises `StepGuardError` if ||h||_2 * dt exceeds `MAX_STEP_NORM`
    (accuracy guard).

    `hamiltonian` is a static `OneBodyOperator` or a `DrivenHamiltonian`
    of them, read by `_route` (anything else raises a ValueError): u is
    split once, before the first step, on the blocks of its mode groups,
    and every chunk of `_step_chunks`, built and guarded on those blocks
    alone, steps by the phases or Taylor polynomials of `_guarded_steps`.
    Each block is chain-multiplied on its own, and the propagator keeps
    the recorded u on the same blocks, never dense.  1 x 1 blocks alone
    (the diagonal h0, a family whose blocks are all zero) chain their
    phases in one cumulative product per chunk (`_chain`), with the bytes
    of a product per step.
    """
    dt, t_mid, times, kept = time_grid(t_span, n_steps, record_every)
    family, layout, index = _route(hamiltonian)
    blocks = _split(np.eye(family.h0.size, dtype=complex), layout)
    recorded = [[ub for _, ub in blocks]]
    for first, _, hs, norm in _step_chunks(family, layout, index, dt, t_mid):
        for n, blocks in enumerate(_chain(blocks, _guarded_steps(hs, dt, norm))):
            if first + n + 1 in kept:
                recorded.append([ub for _, ub in blocks])
    return OneBodyPropagator(times, [np.array(u) for u in zip(*recorded)], layout)
