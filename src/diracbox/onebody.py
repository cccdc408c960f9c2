"""One-body (first-quantized) layer on the truncated mode basis.

The free Hamiltonian is diagonal, h0 = diag(lam * E_p).  A classical
potential enters through

    v(t) = -e alpha . A(x, t) + e A_0(x, t),

with A and A_0 band-limited Fourier sums on the box.  A Fourier component at
wave vector k couples momentum n to n + k (grid units); couplings whose
target leaves the grid are dropped, which keeps the matrix hermitian because
the +-k partners drop together.

Gauge data chi(x, t) = sum_k chi_k e^{ikx} g(t) produces the multiplication
matrix X(t), the unitary gauge phase exp(-i e X), and the transformed
potential A' = A - grad(chi), A_0' = A_0 + d(chi)/dt.

Time evolution is the midpoint-exponential stepper

    u(t + dt) = exp(-i h(t + dt/2) dt) u(t),

unitary by construction and second-order accurate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping

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


# ---------------------------------------------------------------------------
# potential and gauge data

def _check_reality(amps: Mapping[IntVec, complex], what: str, vector: bool):
    """A real field needs amp(-k) = conj(amp(k)) for every stored k."""
    for k, val in amps.items():
        mk = (-k[0], -k[1], -k[2])
        if mk not in amps:
            raise ValueError(f"{what}: missing -k partner for k = {k}")
        other = np.conj(amps[mk])
        mine = np.asarray(val)
        if not np.allclose(mine, other, rtol=0, atol=1e-13):
            raise ValueError(f"{what}: reality violated at k = {k}")
        if vector and mine.shape != (3,):
            raise ValueError(f"{what}: amplitude at {k} must be a 3-vector")


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
        _check_reality(self.a0, "a0", vector=False)
        _check_reality(self.a, "a", vector=True)

    def band(self) -> int:
        keys = list(self.a0) + list(self.a)
        return max((max(abs(c) for c in k) for k in keys), default=0)


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

    def band(self) -> int:
        return max((t.band() for t in self.terms), default=0)

    def validate_against(self, grid: MomentumGrid):
        for term in self.terms:
            _check_band(list(term.a0) + list(term.a), grid)


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
        _check_reality(self.chi, "chi", vector=False)
        if abs(self.envelope.value(0.0)) > 1e-12 or abs(self.envelope.dot(0.0)) > 1e-12:
            raise ValueError("gauge envelope must satisfy g(0) = 0 and g'(0) = 0")

    def band(self) -> int:
        return max((max(abs(c) for c in k) for k in self.chi), default=0)

    def validate_against(self, grid: MomentumGrid):
        _check_band(self.chi, grid)


# ---------------------------------------------------------------------------
# operators

@dataclass(frozen=True)
class OneBodyOperator:
    """M x M matrix on catalog mode coefficients."""

    matrix: np.ndarray
    hermitian: bool = True

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"matrix must be square, got shape {mat.shape}")
        if self.hermitian:
            dev = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
            if dev > HERMITICITY_TOL:
                raise ValueError(f"hermiticity violated: max deviation {dev:.3e}")
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
    """
    M = catalog.size
    out = np.zeros((M, M), dtype=complex)
    tables = catalog.tables
    for k in set(scalar) | set(vector):
        block = scalar.get(k, 0.0) * np.eye(4, dtype=complex)
        vec = vector.get(k)
        if vec is not None:
            block = block + np.tensordot(vec, ALPHA, axes=(0, 0))
        # pairs whose target would leave the kept momenta never match k
        hit = (tables.delta_n == k).all(axis=-1)
        out[hit] += tables.coupling(block)[hit]
    return out


def interaction_term_matrices(
    catalog: BasisCatalog, pot: PotentialSpec, e: float = 1.0
) -> list[tuple[OneBodyOperator, object]]:
    """Static matrix of each potential block, paired with its envelope.

    The full interaction at time t is the envelope-weighted sum; splitting it
    this way lets many-body drivers quantize each block once.
    """
    pot.validate_against(catalog.grid)
    out = []
    for term in pot.terms:
        a_scaled = {k: -e * v for k, v in term.a.items()}  # -e alpha . A
        a0_scaled = {k: e * v for k, v in term.a0.items()}  # +e A_0
        mat = _coupling_matrix(catalog, a0_scaled, a_scaled)
        out.append((OneBodyOperator(mat), term.envelope))
    return out


def interaction_matrix(
    catalog: BasisCatalog, pot: PotentialSpec, t: float, e: float = 1.0
) -> OneBodyOperator:
    """v(t) = -e alpha.A(t) + e A_0(t) on the mode basis."""
    M = catalog.size
    total = np.zeros((M, M), dtype=complex)
    for op, env in interaction_term_matrices(catalog, pot, e):
        total += env.value(t) * op.matrix
    return OneBodyOperator(total)


def chi_matrix(catalog: BasisCatalog, chi: GaugeFunction, t: float) -> OneBodyOperator:
    """Multiplication by chi(x, t) projected onto the mode basis."""
    chi.validate_against(catalog.grid)
    mat = _coupling_matrix(catalog, {k: v * chi.envelope.value(t) for k, v in chi.chi.items()}, {})
    return OneBodyOperator(mat)


def grad_chi_matrix(catalog: BasisCatalog, chi: GaugeFunction, t: float) -> OneBodyOperator:
    """Matrix of alpha . grad(chi)(x, t); grad brings down i k."""
    chi.validate_against(catalog.grid)
    dk = catalog.grid.dk
    g = chi.envelope.value(t)
    vec = {
        k: 1j * dk * np.array(k, dtype=float) * (v * g) for k, v in chi.chi.items()
    }
    mat = _coupling_matrix(catalog, {}, vec)
    return OneBodyOperator(mat)


def gauge_phase(x_op: OneBodyOperator, e: float = 1.0) -> np.ndarray:
    """Unitary exp(-i e X) through the hermitian eigendecomposition of X."""
    if not x_op.hermitian:
        raise ValueError("gauge phase needs a hermitian generator")
    w, v = np.linalg.eigh(x_op.matrix)
    return (v * np.exp(-1j * e * w)) @ v.conj().T


def gauge_transform(
    pot: PotentialSpec, chi: GaugeFunction, grid: MomentumGrid
) -> PotentialSpec:
    """A' = A - grad(chi), A_0' = A_0 + d(chi)/dt as appended Fourier blocks.

    The electric and magnetic fields are unchanged: the new blocks cancel in
    -dA/dt - grad(A_0) and grad x A.
    """
    chi.validate_against(grid)
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
    combined = PotentialSpec(pot.terms + (grad_block, dt_block))
    combined.validate_against(grid)
    return combined


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
    """exp(-i h dt) for hermitian h via eigendecomposition (exactly unitary)."""
    w, v = np.linalg.eigh(h)
    return (v * np.exp(-1j * w * dt)) @ v.conj().T


@dataclass(frozen=True)
class OneBodyPropagator:
    """Mode-basis propagator u(t) sampled on the recorded time grid.

    u(times[0]) = identity; each stored matrix is unitary within 1e-10.
    """

    times: np.ndarray
    matrices: np.ndarray = field(repr=False)

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if mats.shape[0] != times.shape[0]:
            raise ValueError("one matrix per recorded time required")
        eye = np.eye(mats.shape[1])
        drift = max(np.abs(m.conj().T @ m - eye).max() for m in mats)
        if drift > 1e-10:
            raise ValueError(f"propagator lost unitarity: {drift:.3e}")
        times.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)

    @property
    def final(self) -> np.ndarray:
        return self.matrices[-1]

    def at(self, t: float) -> np.ndarray:
        idx = np.argmin(np.abs(self.times - t))
        if abs(self.times[idx] - t) > 1e-9:
            raise KeyError(f"time {t} not on the recorded grid")
        return self.matrices[idx]


def propagate(
    hamiltonian: Callable[[float], OneBodyOperator] | OneBodyOperator,
    t_span: tuple[float, float],
    n_steps: int,
    record_every: int = 1,
    max_step_norm: float = 0.1,
) -> OneBodyPropagator:
    """Midpoint-exponential propagation of i du/dt = h(t) u, u(t0) = 1.

    Records u at every `record_every`-th grid time (the final time is always
    recorded).  Raises if ||h|| * dt exceeds `max_step_norm` (accuracy guard;
    relax explicitly for coarse scans).
    """
    t0, t1 = map(float, t_span)
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    if t1 <= t0:
        raise ValueError("t_span must advance forward")
    h_of_t = hamiltonian if callable(hamiltonian) else (lambda t: hamiltonian)
    dt = (t1 - t0) / n_steps
    first = h_of_t(t0 + 0.5 * dt)
    if not isinstance(first, OneBodyOperator) or not first.hermitian:
        raise ValueError("hamiltonian must yield hermitian OneBodyOperator")
    M = first.size
    u = np.eye(M, dtype=complex)
    times = [t0]
    mats = [u]
    h_mid = first
    for step in range(n_steps):
        t_mid = t0 + (step + 0.5) * dt
        if step > 0:
            h_mid = h_of_t(t_mid)
            if not h_mid.hermitian:
                raise ValueError("hamiltonian must stay hermitian")
        norm = np.linalg.norm(h_mid.matrix, 2)
        if norm * dt > max_step_norm:
            raise ValueError(
                f"step too coarse: ||h||*dt = {norm * dt:.3f} > {max_step_norm}"
            )
        u = unitary_step(h_mid.matrix, dt) @ u
        if (step + 1) % record_every == 0 or step + 1 == n_steps:
            times.append(t0 + (step + 1) * dt)
            mats.append(u)
    return OneBodyPropagator(np.array(times), np.array(mats))


def gauge_identity_residual(
    catalog: BasisCatalog,
    chi: GaugeFunction,
    t: float,
    e: float = 1.0,
    window: int | None = None,
) -> dict[str, float]:
    """Truncation residual of h0 e^{-ieX} = e^{-ieX} (-e alpha.grad(chi) + h0).

    The operator identity is exact in the untruncated theory; on the grid it
    fails near the momentum boundary where e^{-ieX} couples out of the basis.
    Returns the max absolute residual entry over all rows ("all"), over rows
    at least one chi band inside the cutoff ("interior"), and over rows with
    max|n_i| <= window ("window", if given).  The interior max sits at a
    fixed distance from the moving edge, so comparisons across cutoffs should
    use a window held fixed over the scan; rows at fixed momentum gain edge
    distance as n_max grows and their residual drops steeply.
    """
    x_op = chi_matrix(catalog, chi, t)
    phase = gauge_phase(x_op, e)
    h0 = h0_matrix(catalog).matrix
    grad = grad_chi_matrix(catalog, chi, t).matrix
    residual = h0 @ phase - phase @ (-e * grad + h0)
    abs_res = np.abs(residual)
    caps = catalog.tables.caps
    interior = caps <= catalog.n_max - chi.band()
    out = {
        "interior": float(abs_res[interior].max()) if interior.any() else 0.0,
        "all": float(abs_res.max()),
    }
    if window is not None:
        sel = caps <= window
        out["window"] = float(abs_res[sel].max()) if sel.any() else 0.0
    return out
