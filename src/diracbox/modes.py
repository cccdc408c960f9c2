"""Plane-wave mode basis for a Dirac field in a periodic box.

Momenta live on the lattice p = (2*pi/L) * n with integer n and a hard cutoff
|n_i| <= n_max.  Every momentum carries four modes: two spin orientations
(s = +-1/2, quantized along z) times two energy signs (lam = +-1).  The mode
spinors are the orthonormal eigenvectors of the free Dirac matrix

    h(p) = alpha . p + beta * m,

in the standard (Dirac) representation, with eigenvalue lam * E_p and
E_p = sqrt(|p|^2 + m^2).  A one-dimensional box keeps the full 4-spinor
structure with momenta along the z axis.

Units: hbar = c = 1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

IntVec = tuple[int, int, int]

SPIN_UP = Fraction(1, 2)
SPIN_DOWN = Fraction(-1, 2)

# Dirac representation.  beta = diag(1, 1, -1, -1); alpha_i has sigma_i on the
# off-diagonal 2x2 blocks.
_SIGMA = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

ALPHA = np.zeros((3, 4, 4), dtype=complex)
for _i in range(3):
    ALPHA[_i, :2, 2:] = _SIGMA[_i]
    ALPHA[_i, 2:, :2] = _SIGMA[_i]


def mode_energy(p, m: float) -> float:
    """Positive branch energy E_p = sqrt(|p|^2 + m^2)."""
    p = np.asarray(p, dtype=float)
    if m < 0:
        raise ValueError("mass must be nonnegative")
    return float(np.sqrt(p @ p + m * m))


@dataclass(frozen=True)
class MomentumGrid:
    """Cubic momentum lattice p = (2*pi/L) n, |n_i| <= n_max.

    d = 1 restricts momenta to the z axis (n_x = n_y = 0); spinors stay
    four-component.
    """

    d: int
    length: float
    n_max: int

    def __post_init__(self):
        if self.d not in (1, 3):
            raise ValueError(f"d must be 1 or 3, got {self.d}")
        if self.length <= 0:
            raise ValueError(f"box length must be positive, got {self.length}")
        if self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    @property
    def dk(self) -> float:
        """Lattice spacing 2*pi/L."""
        return 2.0 * np.pi / self.length

    @property
    def volume(self) -> float:
        return self.length**self.d

    def contains(self, n: IntVec) -> bool:
        if self.d == 1 and (n[0] != 0 or n[1] != 0):
            return False
        return all(abs(c) <= self.n_max for c in n)

    def momentum(self, n: IntVec) -> np.ndarray:
        """Physical momentum vector for integer lattice coordinates."""
        return self.dk * np.asarray(n, dtype=float)

    def sites(self) -> list[IntVec]:
        """All lattice points, lexicographically ordered."""
        r = range(-self.n_max, self.n_max + 1)
        if self.d == 1:
            return [(0, 0, nz) for nz in r]
        return list(itertools.product(r, r, r))


def as_int_vec(n) -> IntVec:
    """Coerce a momentum index to a canonical integer 3-tuple.

    Accepts a bare int (z component, d=1 shorthand) or a length-3 sequence.
    """
    if isinstance(n, (int, np.integer)):
        return (0, 0, int(n))
    t = tuple(int(c) for c in n)
    if len(t) != 3 or any(t[i] != n[i] for i in range(3)):
        raise ValueError(f"momentum index must be an integer 3-vector, got {n!r}")
    return t


@dataclass(frozen=True, order=True)
class ModeLabel:
    """Quantum numbers of one mode: energy sign, spin, lattice momentum.

    lam is +1 (positive energy) or -1 (negative energy / sea); s is +-1/2;
    n holds the momentum in units of 2*pi/L so that coupling targets n + k
    stay exact integers.
    """

    lam: int
    s: Fraction
    n: IntVec

    def __post_init__(self):
        if self.lam not in (+1, -1):
            raise ValueError(f"lam must be +-1, got {self.lam}")
        if self.s not in (SPIN_UP, SPIN_DOWN):
            raise ValueError(f"s must be +-1/2, got {self.s}")
        object.__setattr__(self, "n", as_int_vec(self.n))


def label(lam: int, s, n) -> ModeLabel:
    """Convenience constructor; s may be +-0.5 or a Fraction."""
    return ModeLabel(lam, Fraction(s).limit_denominator(2), as_int_vec(n))


@dataclass(frozen=True)
class SpinorMode:
    """One basis mode: label, physical momentum, normalized spinor, energy."""

    label: ModeLabel
    p: np.ndarray = field(compare=False)
    u: np.ndarray = field(compare=False)
    energy: float
    grid: MomentumGrid


def dirac_spinor(lbl: ModeLabel, m: float, grid: MomentumGrid) -> SpinorMode:
    """Spinor eigenvector of alpha.p + beta*m with eigenvalue lam * E_p.

    Closed form in the Dirac representation: with chi_s the spin-s Pauli
    spinor, q = sigma.p / (E + m) and N = sqrt((E + m) / (2E)),

        u(+1, s) = N (chi_s, q chi_s),    u(-1, s) = N (-q chi_s, chi_s).

    The construction fixes the phase: the largest-magnitude upper component is
    real and nonnegative for lam = +1 (lower component for lam = -1), and
    u dagger u = 1.  m = 0 with p = 0 is degenerate and rejected.
    """
    if not grid.contains(lbl.n):
        raise ValueError(f"momentum {lbl.n} not on grid (d={grid.d}, n_max={grid.n_max})")
    p = grid.momentum(lbl.n)
    if m == 0.0 and not p.any():
        raise ValueError("m = 0 with p = 0 is degenerate")
    energy = mode_energy(p, m)
    chi = np.array([1.0, 0.0]) if lbl.s == SPIN_UP else np.array([0.0, 1.0])
    q = np.tensordot(p, _SIGMA, axes=(0, 0)) / (energy + m)
    norm = np.sqrt((energy + m) / (2.0 * energy))
    u = np.empty(4, dtype=complex)
    if lbl.lam == +1:
        u[:2] = chi
        u[2:] = q @ chi
    else:
        u[:2] = -(q @ chi)
        u[2:] = chi
    u *= norm
    u.setflags(write=False)
    return SpinorMode(lbl, p, u, energy, grid)


@dataclass(frozen=True)
class SpinorTables:
    """Spinor contractions of a catalog: the one place they are computed.

    caps[i] = max_a |n_i,a| is mode i's lattice distance from the origin.
    The mode pairs carry the wave vectors n_j - n_i: wave_vectors lists each
    distinct one, and wave_index[i, j] is the row that holds n_j - n_i.  So
    a bilinear field couples source j to target i at wave vector
    -wave_vectors[wave_index[i, j]], and its pair (i, j) carries the phase
    e^{i dk wave_vectors[wave_index[i, j]].x}.
    """

    spinors: np.ndarray  # (M, 4) u_i
    scalar: np.ndarray  # (M, M) u_i^dag u_j
    alpha: np.ndarray  # (3, M, M) u_i^dag alpha_a u_j
    caps: np.ndarray  # (M,) integer
    wave_vectors: np.ndarray  # (K, 3) integer
    wave_index: np.ndarray  # (M, M) integer

    def coupling(self, block: np.ndarray) -> np.ndarray:
        """(M, M) matrix u_i^dag block u_j for a 4 x 4 spinor-space block."""
        # One matrix-vector product per spinor rounds exactly like the pairwise
        # np.vdot(u_i, block @ u_j); a single block @ spinors.T product does not.
        images = (block @ self.spinors[:, :, None])[:, :, 0]
        return self.spinors.conj() @ images.T


@dataclass(frozen=True)
class BasisCatalog:
    """Deterministically ordered mode list with label -> index lookup.

    Full catalogs hold all 4 (2 n_max + 1)^d modes sorted by (lam descending,
    n lexicographic, s descending).  Restricted catalogs (see
    restrict_catalog) keep the same order on a momentum subset.
    """

    grid: MomentumGrid
    m: float
    modes: tuple[SpinorMode, ...]
    index: dict[ModeLabel, int] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.modes)

    @property
    def d(self) -> int:
        return self.grid.d

    @property
    def n_max(self) -> int:
        return self.grid.n_max

    @property
    def volume(self) -> float:
        return self.grid.volume

    @cached_property
    def tables(self) -> SpinorTables:
        """Spinor contraction tables, built on first use and freed with the catalog."""
        us = np.array([mode.u for mode in self.modes])
        n = np.array([mode.label.n for mode in self.modes])
        wave_vectors, wave_index = np.unique((n[None, :] - n[:, None]).reshape(-1, 3), axis=0, return_inverse=True)
        return SpinorTables(
            spinors=us,
            scalar=us.conj() @ us.T,
            alpha=np.einsum("ia,kab,jb->kij", us.conj(), ALPHA, us),
            caps=np.abs(n).max(axis=1),
            wave_vectors=wave_vectors,
            wave_index=wave_index.reshape(self.size, self.size),
        )

    def index_of(self, lbl: ModeLabel) -> int:
        try:
            return self.index[lbl]
        except KeyError:
            raise KeyError(f"mode {lbl} not in catalog") from None

    def energies(self) -> np.ndarray:
        return np.array([mode.energy for mode in self.modes])

    def signs(self) -> np.ndarray:
        return np.array([mode.label.lam for mode in self.modes])

    def sea_energy(self) -> float:
        """Energy of the filled sea: -sum of E_p over negative-sign modes."""
        return float(-(self.energies()[self.signs() == -1]).sum())


def _sort_key(lbl: ModeLabel):
    return (-lbl.lam, lbl.n, -lbl.s)


def _assemble(grid: MomentumGrid, m: float, labels: list[ModeLabel]) -> BasisCatalog:
    labels = sorted(labels, key=_sort_key)
    modes = tuple(dirac_spinor(lbl, m, grid) for lbl in labels)
    index = {mode.label: i for i, mode in enumerate(modes)}
    if len(index) != len(modes):
        raise ValueError("duplicate mode labels")
    return BasisCatalog(grid, m, modes, index)


def build_catalog(grid: MomentumGrid, m: float) -> BasisCatalog:
    """Full catalog over the grid: every (lam, s, n) combination, ordered."""
    if m <= 0:
        # m = 0 would make the p = 0 point degenerate.
        raise ValueError("catalog requires m > 0")
    labels = [
        ModeLabel(lam, s, n)
        for lam in (+1, -1)
        for n in grid.sites()
        for s in (SPIN_UP, SPIN_DOWN)
    ]
    return _assemble(grid, m, labels)


def restrict_catalog(catalog: BasisCatalog, momenta) -> BasisCatalog:
    """Sub-catalog keeping all four modes at each requested momentum.

    Used for small-M scenarios (e.g. M = 8 from momenta {0, 1}); couplings
    whose target leaves the subset are dropped by the matrix builders exactly
    as at the full-grid cutoff.
    """
    keep = {as_int_vec(n) for n in momenta}
    missing = [n for n in keep if not catalog.grid.contains(n)]
    if missing:
        raise ValueError(f"momenta {missing} not on grid")
    labels = [mode.label for mode in catalog.modes if mode.label.n in keep]
    return _assemble(catalog.grid, catalog.m, labels)
