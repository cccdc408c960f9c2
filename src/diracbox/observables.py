"""Charge density, current, and free-energy observables.

All observables are bilinears in the field, so they reduce to contractions
of one-body matrices against a correlation matrix C_ij = <c_i^dag c_j>:

    rho(x) = e/V sum_ij (u_i^dag u_j) e^{i(p_j - p_i).x} C_ij,
    J_a(x) = e/V sum_ij (u_i^dag alpha_a u_j) e^{i(p_j - p_i).x} C_ij.

The fields are band-limited: they hold only the wave vectors k = n_j - n_i
of the mode pairs (`SpinorTables.wave_vectors`, in units of 2 pi/L), so
their Fourier coefficients, binned from a frame's C by k, are the fields.
Every reading goes through those coefficients: sampling sums them with the
phases e^{i dk k.x}, and `field_fourier` reads them off.  So div J, whose
coefficients are i dk k.J_k, is exact at any sample grid.

No normal ordering: the filled sea contributes its uniform background.  The
same contraction serves both pictures, and every entry point reads one type,
a validated `CorrelationMatrix`: a Heisenberg run conjugates it with the
one-body propagator, a Schrodinger/Fock run extracts it from the evolved
state with `fock.correlation_from_state` (exact for bilinears).

The free two-electron state has one oscillating density harmonic; its
closed-form time derivative and current divergence are the oracles the
simulated series are tested against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gaussian import CorrelationMatrix, bilinear_expectation
from .modes import ALPHA, BasisCatalog, IntVec, SpinorMode
from .onebody import GaugeFunction, OneBodyOperator, h0_matrix


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic sampling grid over the box.

    points_per_axis defaults to 4 n_max + 1, the minimum that resolves every
    bilinear harmonic |Delta n| <= 2 n_max exactly, so that the mean over the
    points is the exact volume average of a band-limited field.
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
        n = 4 * catalog.n_max + 1 if points_per_axis is None else points_per_axis
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


def _matrix_of(c: CorrelationMatrix) -> np.ndarray:
    if not isinstance(c, CorrelationMatrix):
        raise TypeError(f"expected CorrelationMatrix, got {type(c).__name__}")
    return c.matrix


def density_matrix(catalog: BasisCatalog, x, e: float = 1.0) -> OneBodyOperator:
    """One-body matrix of the charge density at a single point x."""
    t = catalog.tables
    phase = _phases(catalog, _as_points(x))[0][t.wave_index]
    return OneBodyOperator((e / catalog.volume) * t.scalar * phase)


def current_matrix(catalog: BasisCatalog, x, e: float = 1.0) -> list[OneBodyOperator]:
    """One-body matrices of the three current components at a point x."""
    t = catalog.tables
    phase = _phases(catalog, _as_points(x))[0][t.wave_index]
    return [OneBodyOperator((e / catalog.volume) * t.alpha[a] * phase) for a in range(3)]


def _field_coefficients(c: CorrelationMatrix, catalog: BasisCatalog, e: float) -> np.ndarray:
    """(K, 5) Fourier coefficients of rho, J_x, J_y, J_z and div J at `tables.wave_vectors`.

    The coefficient at k of a field with table T sums (e/V) C_ij T_ij over the
    mode pairs with n_j - n_i = k, in row-major pair order (one bincount per
    table); (div J)_k = i dk k.J_k.
    """
    t = catalog.tables
    w = (e / catalog.volume) * _matrix_of(c).ravel()
    bins = t.wave_index.ravel()
    out = np.empty((len(t.wave_vectors), 5), dtype=complex)
    for a, table in enumerate((t.scalar, *t.alpha)):
        tw = table.ravel() * w
        out.real[:, a] = np.bincount(bins, tw.real, len(out))
        out.imag[:, a] = np.bincount(bins, tw.imag, len(out))
    out[:, 4] = 1j * (catalog.grid.dk * t.wave_vectors * out[:, 1:4]).sum(axis=1)
    return out


def _phases(catalog: BasisCatalog, points: np.ndarray) -> np.ndarray:
    """(N, K) plane waves e^{i dk k.x} of the field wave vectors at the points."""
    return np.exp(1j * points @ (catalog.grid.dk * catalog.tables.wave_vectors).T)


def _fields(c: CorrelationMatrix, catalog: BasisCatalog, phases: np.ndarray, e: float) -> np.ndarray:
    """(N, 5) rho, J_x, J_y, J_z and div J at the points whose `_phases` are given."""
    vals = phases @ _field_coefficients(c, catalog, e)
    if not np.isfinite(vals).all():
        raise FloatingPointError("bilinear field is not finite")
    if np.abs(vals.imag).max() > 1e-9:
        raise FloatingPointError("bilinear field acquired an imaginary part")
    return vals.real


def charge_density(c: CorrelationMatrix, catalog: BasisCatalog, x, e: float = 1.0) -> np.ndarray:
    """rho = e <psi^dag psi> at the given points (sea background included)."""
    return _fields(c, catalog, _phases(catalog, _as_points(x)), e)[:, 0]


def current_density(c: CorrelationMatrix, catalog: BasisCatalog, x, e: float = 1.0) -> np.ndarray:
    """J = e <psi^dag alpha psi> at the given points, shape (N, 3)."""
    return _fields(c, catalog, _phases(catalog, _as_points(x)), e)[:, 1:4]


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
    """rho/J/div J/energy samples on (times x spatial grid)."""

    times: np.ndarray
    spatial: SpatialGrid
    rho: np.ndarray  # (T, N)
    current: np.ndarray  # (T, N, 3)
    divergence: np.ndarray  # (T, N) div J
    energy: np.ndarray  # (T,) free-Hamiltonian expectation
    points: np.ndarray = field(repr=False)  # (N, 3) the spatial grid's points

    def __post_init__(self):
        T, N = len(self.times), self.spatial.n_points
        shapes = (self.rho.shape, self.current.shape, self.divergence.shape)
        if shapes != ((T, N), (T, N, 3), (T, N)):
            raise ValueError("series shapes inconsistent with times x grid")


def field_series(
    catalog: BasisCatalog,
    times,
    correlations,
    points_per_axis: int | None = None,
    e: float = 1.0,
) -> FieldSeries:
    """Evaluate rho, J, div J and free energy for a `CorrelationMatrix` per time.

    Each frame's fields and <H0> (`free_energy_schrodinger`) raise
    `FloatingPointError` on a value that is not finite or an imaginary part
    above 1e-9.
    """
    times = np.asarray(times, dtype=float)
    correlations = list(correlations)
    if len(correlations) != len(times):
        raise ValueError(f"field_series got {len(correlations)} correlations for {len(times)} times")
    sgrid = SpatialGrid.for_catalog(catalog, points_per_axis)
    points = sgrid.points()
    phases = _phases(catalog, points)  # once per series, shared by every frame
    h0 = h0_matrix(catalog)
    fields = np.empty((len(times), sgrid.n_points, 5))
    energy = np.empty(len(times))
    for k, c in enumerate(correlations):
        fields[k] = _fields(c, catalog, phases, e)
        energy[k] = free_energy_schrodinger(c, h0)
    rho, cur, div = fields[..., 0], fields[..., 1:4], fields[..., 4]
    return FieldSeries(times, sgrid, rho, cur, div, energy, points)


def spectral_divergence(series: FieldSeries) -> np.ndarray:
    """div J on the sample grid, (T, N): summed from the Fourier coefficients of J, so exact."""
    return series.divergence


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

def field_fourier(
    c: CorrelationMatrix, catalog: BasisCatalog, e: float = 1.0
) -> tuple[dict[IntVec, complex], dict[IntVec, complex]]:
    """Fourier coefficients {k: rho_k} and {k: (div J)_k} of the bilinear fields.

    rho(x) = sum_k rho_k e^{i dk k.x} with k on the integer lattice, one key
    per wave vector of the catalog's mode pairs; exact mode-sum bookkeeping,
    no sampling involved.
    """
    coefficients = _field_coefficients(c, catalog, e)
    keys = [tuple(k) for k in catalog.tables.wave_vectors.tolist()]
    return dict(zip(keys, coefficients[:, 0])), dict(zip(keys, coefficients[:, 4]))


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
    if not np.isfinite(val):
        raise FloatingPointError(f"energy identity RHS is not finite: {val}")
    if abs(val.imag) > 1e-9:
        raise FloatingPointError("energy identity RHS acquired an imaginary part")
    return float(val.real)


# ---------------------------------------------------------------------------
# free-Hamiltonian energies

def free_energy_schrodinger(c: CorrelationMatrix, h0: OneBodyOperator) -> float:
    """<H_0> of an evolved correlation matrix against the free Hamiltonian `h0` (`h0_matrix`)."""
    _matrix_of(c)  # the type check
    val = bilinear_expectation(c, h0)
    if not np.isfinite(val):
        raise FloatingPointError(f"free energy is not finite: {val}")
    if abs(val.imag) > 1e-9:
        raise FloatingPointError("free energy acquired an imaginary part")
    return float(val.real)


def free_energy_heisenberg(c0: CorrelationMatrix, u: np.ndarray, h0: OneBodyOperator) -> float:
    """<u^dag h0 u> quantized, in the fixed initial correlation matrix; `h0` from `h0_matrix`."""
    return free_energy_schrodinger(c0, OneBodyOperator(u.conj().T @ h0.matrix @ u))
