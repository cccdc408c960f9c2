"""Dense oracles of the one-body layer: whole-matrix forms of what `src/` reads on mode-group blocks.

`chi_matrix`, `grad_chi_matrix` and `gauge_identity_residual` build the
gauge function's multiplication matrices and the operator identity's
residual as dense M x M matrices, one eigh of X(t) per call.
`gauge-heisenberg` reads the same relation off its pure-gauge family's
blocks (`experiments._gauge_relation`); these are its oracles.
`dense_propagator` holds dense u matrices as a `OneBodyPropagator` of one
block of all M modes.
"""

import numpy as np

from diracbox.modes import BasisCatalog
from diracbox.onebody import (
    GaugeFunction,
    OneBodyOperator,
    OneBodyPropagator,
    _coupling_matrix,
    gauge_phase,
    h0_matrix,
)


def dense_propagator(times, matrices) -> OneBodyPropagator:
    """The propagator of the dense u at each of `times`, on the layout of one block of all M modes."""
    u = np.asarray(matrices, dtype=complex)
    return OneBodyPropagator(times, [u[:, None]], [np.arange(u.shape[-1])[None]])


def chi_matrix(catalog: BasisCatalog, chi: GaugeFunction, t: float) -> OneBodyOperator:
    """Multiplication by chi(x, t) projected onto the mode basis."""
    mat = _coupling_matrix(catalog, {k: v * chi.envelope.value(t) for k, v in chi.chi.items()}, {})
    return OneBodyOperator(mat)


def grad_chi_matrix(catalog: BasisCatalog, chi: GaugeFunction, t: float) -> OneBodyOperator:
    """Matrix of alpha . grad(chi)(x, t); grad brings down i k."""
    dk = catalog.grid.dk
    g = chi.envelope.value(t)
    vec = {
        k: 1j * dk * np.array(k, dtype=float) * (v * g) for k, v in chi.chi.items()
    }
    mat = _coupling_matrix(catalog, {}, vec)
    return OneBodyOperator(mat)


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
