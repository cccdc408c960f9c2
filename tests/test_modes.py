"""Mode basis tests.

The oracle here is the explicit 4x4 matrix alpha.p + beta*m written out
numerically below, independent of the package's own construction.
"""

import numpy as np
import pytest
from fractions import Fraction
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbox.modes import (
    ModeLabel,
    MomentumGrid,
    build_catalog,
    dirac_spinor,
    label,
    mode_energy,
    restrict_catalog,
)

TOL = 1e-12


def oracle_dirac_matrix(p, m):
    """Independent alpha.p + beta*m, Dirac representation, written in full."""
    px, py, pz = p
    return np.array(
        [
            [m, 0, pz, px - 1j * py],
            [0, m, px + 1j * py, -pz],
            [pz, px - 1j * py, -m, 0],
            [px + 1j * py, -pz, 0, -m],
        ],
        dtype=complex,
    )


def test_mode_energy_345_triangle():
    assert mode_energy((0.0, 0.0, 3.0), 4.0) == pytest.approx(5.0, abs=1e-15)


def test_mode_energy_massless_is_momentum_magnitude():
    p = (0.3, -1.2, 0.4)
    assert mode_energy(p, 0.0) == pytest.approx(np.linalg.norm(p), abs=1e-15)


def test_mode_energy_rejects_negative_mass():
    with pytest.raises(ValueError):
        mode_energy((0, 0, 1), -1.0)


def grid1d(n_max=2, L=2 * np.pi):
    return MomentumGrid(d=1, length=L, n_max=n_max)


def test_rest_frame_spinor_is_unit_vector():
    mode = dirac_spinor(label(+1, 0.5, 0), m=1.0, grid=grid1d())
    assert np.allclose(mode.u, [1, 0, 0, 0], atol=TOL)
    assert mode.energy == pytest.approx(1.0)


def test_negative_branch_unit_momentum_eigenvalue():
    # (alpha.p + beta m) u = -sqrt(2) u for p = (0,0,1), m = 1, lam = -1.
    g = MomentumGrid(d=1, length=2 * np.pi, n_max=1)
    for s in (0.5, -0.5):
        mode = dirac_spinor(label(-1, s, 1), m=1.0, grid=g)
        h = oracle_dirac_matrix(mode.p, 1.0)
        assert np.linalg.norm(h @ mode.u + np.sqrt(2) * mode.u) <= TOL


def test_spinors_at_fixed_momentum_form_orthonormal_frame():
    g = grid1d()
    frame = [
        dirac_spinor(ModeLabel(lam, s, (0, 0, 2)), 1.0, g).u
        for lam in (+1, -1)
        for s in (Fraction(1, 2), Fraction(-1, 2))
    ]
    gram = np.array([[np.vdot(a, b) for b in frame] for a in frame])
    assert np.linalg.norm(gram - np.eye(4)) <= TOL


def test_phase_convention_dominant_component_real_nonnegative():
    g = MomentumGrid(d=3, length=5.0, n_max=2)
    for lam in (+1, -1):
        for s in (0.5, -0.5):
            mode = dirac_spinor(label(lam, s, (1, -2, 2)), 0.7, g)
            block = mode.u[:2] if lam == +1 else mode.u[2:]
            top = block[np.argmax(np.abs(block))]
            assert abs(top.imag) <= TOL
            assert top.real >= 0.0


@settings(max_examples=60, deadline=None)
@given(
    nx=st.integers(-3, 3),
    ny=st.integers(-3, 3),
    nz=st.integers(-3, 3),
    m=st.floats(0.05, 20.0),
    L=st.floats(0.5, 30.0),
    lam=st.sampled_from([+1, -1]),
    s=st.sampled_from([0.5, -0.5]),
)
def test_spinor_is_eigenvector_property(nx, ny, nz, m, L, lam, s):
    g = MomentumGrid(d=3, length=L, n_max=3)
    mode = dirac_spinor(label(lam, s, (nx, ny, nz)), m, g)
    h = oracle_dirac_matrix(mode.p, m)
    assert np.linalg.norm(h @ mode.u - lam * mode.energy * mode.u) <= 1e-11
    assert np.vdot(mode.u, mode.u).real == pytest.approx(1.0, abs=TOL)


def test_massless_moving_mode_allowed_massless_rest_rejected():
    g = grid1d(n_max=1)
    mode = dirac_spinor(label(+1, 0.5, 1), 0.0, g)
    assert mode.energy == pytest.approx(1.0)  # |p| = 2 pi / L * 1 = 1 at L = 2 pi
    with pytest.raises(ValueError):
        dirac_spinor(label(+1, 0.5, 0), 0.0, g)


def test_off_grid_momentum_rejected():
    with pytest.raises(ValueError):
        dirac_spinor(label(+1, 0.5, 3), 1.0, grid1d(n_max=2))
    with pytest.raises(ValueError):
        # off-axis momentum on a 1-d grid
        dirac_spinor(label(+1, 0.5, (1, 0, 0)), 1.0, grid1d(n_max=2))


def test_grid_rejects_bad_dimension_and_length():
    with pytest.raises(ValueError):
        MomentumGrid(d=2, length=1.0, n_max=1)
    with pytest.raises(ValueError):
        MomentumGrid(d=1, length=0.0, n_max=1)
    with pytest.raises(ValueError):
        MomentumGrid(d=1, length=1.0, n_max=-1)


def test_catalog_sizes():
    assert build_catalog(grid1d(n_max=0), 1.0).size == 4
    assert build_catalog(grid1d(n_max=1), 1.0).size == 12
    assert build_catalog(MomentumGrid(d=3, length=4.0, n_max=1), 1.0).size == 108


def test_catalog_order_positive_before_negative_then_momentum_then_spin():
    cat = build_catalog(grid1d(n_max=1), 1.0)
    lams = [mode.label.lam for mode in cat.modes]
    assert lams == [+1] * 6 + [-1] * 6
    nzs = [mode.label.n[2] for mode in cat.modes[:6]]
    assert nzs == [-1, -1, 0, 0, 1, 1]
    spins = [mode.label.s for mode in cat.modes[:2]]
    assert spins == [Fraction(1, 2), Fraction(-1, 2)]


def test_catalog_deterministic_and_bijective():
    a = build_catalog(grid1d(n_max=2), 1.0)
    b = build_catalog(grid1d(n_max=2), 1.0)
    assert [m.label for m in a.modes] == [m.label for m in b.modes]
    for i, mode in enumerate(a.modes):
        assert a.index_of(mode.label) == i
    with pytest.raises(KeyError):
        a.index_of(label(+1, 0.5, (0, 0, 5)))


def test_catalog_modes_globally_orthonormal():
    # modes of different momenta are orthogonal by the box integral; spinors of one momentum must be
    cat = build_catalog(grid1d(n_max=1), 1.0)
    for i, a in enumerate(cat.modes):
        for j, b in enumerate(cat.modes):
            if a.label.n == b.label.n:
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(a.u, b.u) - want) <= TOL


def test_restrict_catalog_keeps_order_and_count():
    cat = build_catalog(grid1d(n_max=1), 1.0)
    sub = restrict_catalog(cat, [0, 1])
    assert sub.size == 8 < cat.size
    assert [m.label.n[2] for m in sub.modes] == [0, 0, 1, 1] * 2
    full_order = [m.label for m in cat.modes if m.label.n[2] in (0, 1)]
    assert [m.label for m in sub.modes] == full_order
    with pytest.raises(ValueError):
        restrict_catalog(cat, [(0, 0, 9)])


def test_sea_energy_n_max_zero():
    # two sea modes at p = 0, m = 1: -(1 + 1) = -2
    assert build_catalog(grid1d(n_max=0), 1.0).sea_energy() == pytest.approx(-2.0)
