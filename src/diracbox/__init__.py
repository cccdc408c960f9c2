"""Truncated Dirac field in a periodic box.

Exact Fock-space and Gaussian correlation-matrix backends for a quantized
Dirac field coupled to a classical, band-limited electromagnetic potential,
plus the gauge-drive experiments built on them.  The names imported below
are the package's public API.
"""

from .experiments import (
    SCENARIOS,
    Check,
    Report,
    ScenarioConfig,
    run_free_baseline,
    run_heisenberg_energy_scan,
    run_heisenberg_gauge,
    run_picture_equivalence,
    run_schrodinger_gauge_scan,
)
from .fock import (
    FockBasis,
    FockState,
    ManyBodyOperator,
    build_ladders,
    car_residual,
    commutator_identity_check,
    correlation_from_state,
    evolve_schrodinger,
    evolve_schrodinger_batch,
    expectation,
    h0_spectrum_check,
    omega0_state,
    quantize,
    vacuum_state,
)
from .gaussian import (
    CorrelationMatrix,
    bilinear_expectation,
    evolve_correlation,
    excitation_correlation,
    omega0_correlation,
    vacuum_correlation,
)
from .modes import (
    ALPHA,
    BasisCatalog,
    ModeLabel,
    MomentumGrid,
    SpinorMode,
    build_catalog,
    dirac_spinor,
    label,
    mode_energy,
    restrict_catalog,
)
from .observables import (
    FieldSeries,
    SpatialGrid,
    charge_density,
    continuity_residual,
    current_density,
    current_matrix,
    delta_xi,
    density_matrix,
    div_current_oracle,
    drho_dt_oracle,
    energy_identity_rhs,
    field_fourier,
    field_series,
    free_energy_heisenberg,
    free_energy_schrodinger,
    spectral_divergence,
    total_charge,
)
from .onebody import (
    Constant,
    CosineRamp,
    DrivenHamiltonian,
    GaugeFunction,
    OneBodyOperator,
    OneBodyPropagator,
    PotentialSpec,
    PotentialTerm,
    StepGuardError,
    TimeDerivative,
    bfield_coefficients,
    chi_matrix,
    efield_coefficients,
    gauge_identity_residual,
    gauge_phase,
    gauge_transform,
    grad_chi_matrix,
    h0_matrix,
    interaction_term_matrices,
    propagate,
    unitary_step,
)

__version__ = "0.1.0"
