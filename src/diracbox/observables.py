"""Charge density, current, and free-energy observables.

All observables are bilinears in the field, so they reduce to contractions
of one-body matrices against a correlation matrix C_ij = <c_i^dag c_j>:

    rho(x) = e/V sum_ij (u_i^dag u_j) e^{i(p_j - p_i).x} C_ij,
    J_a(x) = e/V sum_ij (u_i^dag alpha_a u_j) e^{i(p_j - p_i).x} C_ij.

No normal ordering: the filled sea contributes its uniform background.  The
same contraction serves both pictures; a Heisenberg run conjugates the
correlation matrix with the one-body propagator, a Schrodinger/Fock run
extracts C from the evolved state (exact for bilinears).

The free two-electron state has one oscillating density harmonic; its
closed-form time derivative and current divergence are the oracles the
simulated series are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fock import FockState, LadderSet, correlation_from_state, expectation, quantize
from .gaussian import CorrelationMatrix, bilinear_expectation
from .modes import ALPHA, BasisCatalog, IntVec, SpinorMode
from .onebody import GaugeFunction, OneBodyOperator, h0_matrix


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic sampling grid over the box.

    points_per_axis defaults to 4 n_max + 1, the minimum that resolves every
    bilinear harmonic |Delta n| <= 2 n_max exactly (so FFT divergence and
    mean-value quadrature are exact for band-limited fields).
    """

    catalog_d: int
    length: float
    points_per_axis: int

    def __post_init__(self):
        if self.points_per_axis < 1:
            raise ValueError("need at least one sample point per axis")
        if self.catalog_d not in (1, 3):
            raise ValueError("spatial grid dimension must be 1 or 3")

    @classmethod
    def for_catalog(cls, catalog: BasisCatalog, points_per_axis: int | None = None):
        n = points_per_axis or 4 * catalog.n_max + 1
        return cls(catalog.d, catalog.grid.length, n)

    @property
    def axis(self) -> np.ndarray:
        return np.arange(self.points_per_axis) * (self.length / self.points_per_axis)

    @property
    def n_points(self) -> int:
        return self.points_per_axis**self.catalog_d

    def points(self) -> np.ndarray:
        """(N, 3) sample coordinates; d = 1 runs along the z axis."""
        ax = self.axis
        if self.catalog_d == 1:
            pts = np.zeros((len(ax), 3))
            pts[:, 2] = ax
            return pts
        xg, yg, zg = np.meshgrid(ax, ax, ax, indexing="ij")
        return np.stack([xg.ravel(), yg.ravel(), zg.ravel()], axis=1)


def _as_points(x) -> np.ndarray:
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    if pts.shape[-1] != 3:
        raise ValueError("sample points must have 3 coordinates")
    return pts


def _as_correlation(state_or_c, ladders: LadderSet | None) -> np.ndarray:
    if isinstance(state_or_c, CorrelationMatrix):
        return state_or_c.matrix
    if isinstance(state_or_c, FockState):
        if ladders is None:
            raise ValueError("Fock states need the ladder set to extract correlations")
        return correlation_from_state(state_or_c, ladders)
    raise TypeError(f"expected CorrelationMatrix or FockState, got {type(state_or_c)}")


def density_matrix(catalog: BasisCatalog, x, e: float = 1.0) -> OneBodyOperator:
    """One-body matrix of the charge density at a single point x."""
    t = catalog.tables
    w = t.waves(_as_points(x))[0]
    return OneBodyOperator((e / catalog.volume) * t.scalar * np.outer(w.conj(), w))


def current_matrix(catalog: BasisCatalog, x, e: float = 1.0) -> list[OneBodyOperator]:
    """One-body matrices of the three current components at a point x."""
    t = catalog.tables
    w = t.waves(_as_points(x))[0]
    phase = np.outer(w.conj(), w)
    return [OneBodyOperator((e / catalog.volume) * t.alpha[a] * phase) for a in range(3)]


def charge_density(
    state_or_c, catalog: BasisCatalog, x, ladders: LadderSet | None = None, e: float = 1.0
) -> np.ndarray:
    """rho = e <psi^dag psi> at the given points (sea background included)."""
    C = _as_correlation(state_or_c, ladders)
    t = catalog.tables
    w = t.waves(_as_points(x))
    weighted = t.scalar * C
    vals = np.einsum("xi,ij,xj->x", w.conj(), weighted, w) * (e / catalog.volume)
    if np.abs(vals.imag).max() > 1e-9:
        raise FloatingPointError("charge density acquired an imaginary part")
    return vals.real


def current_density(
    state_or_c, catalog: BasisCatalog, x, ladders: LadderSet | None = None, e: float = 1.0
) -> np.ndarray:
    """J = e <psi^dag alpha psi> at the given points, shape (N, 3)."""
    C = _as_correlation(state_or_c, ladders)
    t = catalog.tables
    w = t.waves(_as_points(x))
    out = np.empty((w.shape[0], 3))
    for a in range(3):
        vals = np.einsum("xi,ij,xj->x", w.conj(), t.alpha[a] * C, w) * (e / catalog.volume)
        if np.abs(vals.imag).max() > 1e-9:
            raise FloatingPointError("current density acquired an imaginary part")
        out[:, a] = vals.real
    return out


# ---------------------------------------------------------------------------
# closed-form oracles for the free two-mode state

def _cross_phase(points, t, mode1: SpinorMode, mode2: SpinorMode):
    dp = mode2.p - mode1.p
    de = mode2.energy - mode1.energy
    return np.exp(1j * (points @ dp - de * t)), de, dp


def drho_dt_oracle(
    x, t: float, mode1: SpinorMode, mode2: SpinorMode, e: float = 1.0
) -> np.ndarray:
    """Analytic d(rho)/dt of the free (b1 + b2) cross term.

    rho_cross = (e/2V)[u1^dag u2 e^{i((p2-p1).x - (E2-E1)t)} + c.c.]; the time
    derivative brings down -i(E2 - E1).
    """
    if mode1.label.lam != +1 or mode2.label.lam != +1:
        raise ValueError("oracle modes must be positive-energy")
    pts = _as_points(x)
    phase, de, _ = _cross_phase(pts, t, mode1, mode2)
    ov = complex(np.vdot(mode1.u, mode2.u))
    V = mode1.grid.volume
    return (e / V) * np.real(-1j * de * ov * phase)


def div_current_oracle(
    x, t: float, mode1: SpinorMode, mode2: SpinorMode, e: float = 1.0
) -> np.ndarray:
    """Analytic div J of the free cross term; gradient brings down i(p2-p1)."""
    if mode1.label.lam != +1 or mode2.label.lam != +1:
        raise ValueError("oracle modes must be positive-energy")
    pts = _as_points(x)
    phase, _, dp = _cross_phase(pts, t, mode1, mode2)
    alpha_ov = np.array(
        [complex(np.vdot(mode1.u, ALPHA[a] @ mode2.u)) for a in range(3)]
    )
    V = mode1.grid.volume
    return (e / V) * np.real(1j * (dp @ alpha_ov) * phase)


# ---------------------------------------------------------------------------
# field series and continuity

@dataclass(frozen=True)
class FieldSeries:
    """rho/J/energy samples on (times x spatial grid) with provenance tag."""

    times: np.ndarray
    spatial: SpatialGrid
    rho: np.ndarray  # (T, N)
    current: np.ndarray  # (T, N, 3)
    energy: np.ndarray  # (T,) free-Hamiltonian expectation
    provenance: str = ""
    points: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        T, N = len(self.times), self.spatial.n_points
        if self.rho.shape != (T, N) or self.current.shape != (T, N, 3):
            raise ValueError("series shapes inconsistent with times x grid")
        if self.points is None:
            object.__setattr__(self, "points", self.spatial.points())


def field_series(
    catalog: BasisCatalog,
    times,
    correlations,
    points_per_axis: int | None = None,
    provenance: str = "",
    e: float = 1.0,
) -> FieldSeries:
    """Evaluate rho, J, and free energy for a correlation-matrix trajectory.

    Raw-array frames (the Fock readout) are validated here, once each.
    """
    sgrid = SpatialGrid.for_catalog(catalog, points_per_axis)
    pts = sgrid.points()
    h0 = h0_matrix(catalog)
    times = np.asarray(times, dtype=float)
    rho = np.empty((len(times), sgrid.n_points))
    cur = np.empty((len(times), sgrid.n_points, 3))
    energy = np.empty(len(times))
    for k, C in enumerate(correlations):
        wrapped = _wrap(C)
        rho[k] = charge_density(wrapped, catalog, pts, e=e)
        cur[k] = current_density(wrapped, catalog, pts, e=e)
        energy[k] = bilinear_expectation(wrapped, h0).real
    return FieldSeries(times, sgrid, rho, cur, energy, provenance)


def spectral_divergence(series: FieldSeries) -> np.ndarray:
    """div J on the sample grid by exact Fourier differentiation, (T, N)."""
    sg = series.spatial
    n = sg.points_per_axis
    k1d = 2.0 * np.pi * np.fft.fftfreq(n, d=sg.length / n)
    if sg.catalog_d == 1:
        jz = series.current[:, :, 2]
        return np.real(np.fft.ifft(1j * k1d[None, :] * np.fft.fft(jz, axis=1), axis=1))
    shape = (len(series.times), n, n, n)
    out = np.zeros(shape)
    for axis, comp in ((1, 0), (2, 1), (3, 2)):
        j = series.current[:, :, comp].reshape(shape)
        kshape = [1, 1, 1, 1]
        kshape[axis] = n
        out += np.real(
            np.fft.ifft(1j * k1d.reshape(kshape) * np.fft.fft(j, axis=axis), axis=axis)
        )
    return out.reshape(len(series.times), sg.n_points)


def continuity_residual(series: FieldSeries) -> float:
    """max |d(rho)/dt + div J| with centered time differences.

    The time derivative uses interior recorded times only; the divergence is
    exact for band-limited J, so the residual measures stepping plus centered
    difference error.
    """
    if len(series.times) < 3:
        raise ValueError("need at least three recorded times")
    dts = np.diff(series.times)
    if not np.allclose(dts, dts[0], rtol=1e-9, atol=0):
        raise ValueError("continuity residual needs a uniform time grid")
    dt = dts[0]
    drho = (series.rho[2:] - series.rho[:-2]) / (2.0 * dt)
    div = spectral_divergence(series)[1:-1]
    return float(np.abs(drho + div).max())


def total_charge(series: FieldSeries) -> np.ndarray:
    """Volume quadrature of rho per recorded time (exact for band-limited rho)."""
    V = series.spatial.length ** series.spatial.catalog_d
    return series.rho.mean(axis=1) * V


# ---------------------------------------------------------------------------
# Fourier data and the energy identity

def _cmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b elementwise, unfused like a scalar complex product (SIMD loops may fuse)."""
    out = np.empty(a.shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def field_fourier(
    state_or_c, catalog: BasisCatalog, ladders: LadderSet | None = None, e: float = 1.0
) -> tuple[dict[IntVec, complex], dict[IntVec, complex]]:
    """Fourier coefficients {k: rho_k} and {k: (div J)_k} of the bilinear fields.

    rho(x) = sum_k rho_k e^{ik.x} with k on the integer lattice (grid units);
    exact mode-sum bookkeeping, no sampling involved.
    """
    C = _as_correlation(state_or_c, ladders)
    t = catalog.tables
    i, j = np.nonzero(C != 0.0)  # row-major, so np.add.at sums in (i, j) order
    keys, group = np.unique(t.delta_n[j, i], axis=0, return_inverse=True)  # n_j - n_i
    w = (e / catalog.volume) * C[i, j]
    dp = t.momenta[j] - t.momenta[i]
    dp_alpha = (
        dp[:, 0] * t.alpha[0, i, j] + dp[:, 1] * t.alpha[1, i, j] + dp[:, 2] * t.alpha[2, i, j]
    )
    rho, divj = np.zeros((2, len(keys)), dtype=complex)
    np.add.at(rho, group, _cmul(t.scalar[i, j], w))
    np.add.at(divj, group, _cmul(1j * w, dp_alpha))
    dns = [tuple(k) for k in keys.tolist()]
    return dict(zip(dns, rho)), dict(zip(dns, divj))


def delta_xi(mode1: SpinorMode, mode2: SpinorMode) -> float:
    """Free energy gap of the equal-weight two-mode state: (E1 + E2)/2."""
    return 0.5 * (mode1.energy + mode2.energy)


def energy_identity_rhs(
    chi: GaugeFunction,
    t: float,
    divj_fourier: dict[IntVec, complex],
    dxi: float,
    volume: float,
) -> float:
    """Delta xi + integral chi (div J) dx by exact Fourier pairing.

    integral sum_k chi_k e^{ikx} sum_k' d_k' e^{ik'x} dx = V sum_k chi_k d_{-k}.
    """
    g = chi.envelope.value(t)
    acc = 0.0 + 0.0j
    for k, amp in chi.chi.items():
        mk = (-k[0], -k[1], -k[2])
        acc += amp * g * divj_fourier.get(mk, 0.0)
    val = dxi + volume * acc
    if abs(val.imag) > 1e-9:
        raise FloatingPointError("energy identity RHS acquired an imaginary part")
    return float(val.real)


# ---------------------------------------------------------------------------
# free-Hamiltonian energies

def free_energy_schrodinger(
    state_or_c, catalog: BasisCatalog, ladders: LadderSet | None = None
) -> float:
    """<H_0> of an evolved state against the fixed free Hamiltonian.

    Fock states are contracted directly through the quantized operator (the
    independent 2^M route); correlation matrices through the bilinear sum.
    """
    h0 = h0_matrix(catalog)
    if isinstance(state_or_c, FockState):
        if ladders is None:
            raise ValueError("Fock route needs the ladder set")
        val = expectation(state_or_c, quantize(h0, ladders))
    else:
        val = bilinear_expectation(_wrap(state_or_c), h0)
    if abs(val.imag) > 1e-9:
        raise FloatingPointError("free energy acquired an imaginary part")
    return float(val.real)


def free_energy_heisenberg(
    initial_state_or_c,
    u: np.ndarray,
    catalog: BasisCatalog,
    ladders: LadderSet | None = None,
) -> float:
    """<u^dag h0 u> quantized, in the fixed initial state."""
    h0 = h0_matrix(catalog)
    conj = OneBodyOperator(u.conj().T @ h0.matrix @ u)
    if isinstance(initial_state_or_c, FockState):
        if ladders is None:
            raise ValueError("Fock route needs the ladder set")
        val = expectation(initial_state_or_c, quantize(conj, ladders))
    else:
        val = bilinear_expectation(_wrap(initial_state_or_c), conj)
    if abs(val.imag) > 1e-9:
        raise FloatingPointError("free energy acquired an imaginary part")
    return float(val.real)


def _wrap(state_or_c) -> CorrelationMatrix:
    if isinstance(state_or_c, CorrelationMatrix):
        return state_or_c
    return CorrelationMatrix(np.asarray(state_or_c))
