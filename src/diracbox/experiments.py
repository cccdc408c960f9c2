"""Scenario drivers: baseline, gauge drives, energy scans, picture equivalence.

Each driver takes a ScenarioConfig, runs one experiment family, and returns a
Report holding metrics, tolerance-tagged pass flags, and CSV-able tables.
Scenario defaults follow the common design: d = 1 box of length 2*pi, m = e =
1, the two-electron state built from (p = 0, s = +1/2) and (p = 2*pi/L,
s = +1/2), a cosine switch-on envelope with g(t_final) = 1, and gauge drives
whose spatial profile is frozen at the measurement time.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .fock import (
    FOCK_MODE_CAP,
    ManyBodyOperator,
    build_ladders,
    correlation_from_state,
    evolve_schrodinger,
    expectation,
    omega0_state,
    quantize,
)
from .gaussian import (
    bilinear_expectation,
    evolve_correlation,
    excitation_correlation,
    omega0_correlation,
)
from .modes import (
    BasisCatalog,
    IntVec,
    ModeLabel,
    MomentumGrid,
    build_catalog,
    label,
    restrict_catalog,
)
from .observables import (
    SpatialGrid,
    continuity_residual,
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
)
from .onebody import (
    CosineRamp,
    GaugeFunction,
    OneBodyOperator,
    PotentialSpec,
    chi_matrix,
    gauge_identity_residual,
    gauge_phase,
    gauge_transform,
    h0_matrix,
    interaction_term_matrices,
    propagate,
)

DEFAULT_MODE1 = label(+1, 0.5, 0)
DEFAULT_MODE2 = label(+1, 0.5, 1)
DEFAULT_F_LIST = (0.0, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs shared by all scenario drivers (flat, file-loadable)."""

    d: int = 1
    length: float = 2.0 * np.pi
    m: float = 1.0
    e: float = 1.0
    n_max: int | None = None  # None: backend-appropriate default (2 gauss / 1 fock)
    backend: str = "gaussian"  # fock | gaussian | both
    mode1: ModeLabel = DEFAULT_MODE1
    mode2: ModeLabel = DEFAULT_MODE2
    t_final: float = 1.0
    omega: float | None = None  # None: pi / t_final
    n_steps: int | None = None  # None: per-scenario default
    f_list: tuple[float, ...] = DEFAULT_F_LIST
    cutoffs: tuple[int, ...] = (2, 3, 4)
    chi_modes: tuple[tuple[IntVec, complex], ...] | None = None
    chi_amplitude: float = 3e-3
    seed: int = 7
    n_drives: int = 5
    drive_amplitude: float = 0.001
    drive_band: int = 1
    heis_refine: int = 16
    points_per_axis: int | None = None
    scan_subsets: tuple[tuple[int, ...], ...] = ((0, 1), (-1, 0, 1))

    def __post_init__(self):
        if self.backend not in ("fock", "gaussian", "both"):
            raise ValueError(f"unknown backend {self.backend!r}")
        if self.n_max is not None and self.n_max < 0:
            raise ValueError(f"n_max must be >= 0, got {self.n_max}")

    def resolved_n_max(self, scenario_backend: str | None = None) -> int:
        if self.n_max is not None:
            return self.n_max
        be = scenario_backend or self.backend
        return 1 if be in ("fock", "both") else 2

    def envelope(self) -> CosineRamp:
        return CosineRamp(t_final=self.t_final, omega=self.omega)

    def grid(self, n_max: int) -> MomentumGrid:
        return MomentumGrid(d=self.d, length=self.length, n_max=n_max)

    def catalog(self, n_max: int) -> BasisCatalog:
        return build_catalog(self.grid(n_max), self.m)


def config_dict(cfg: ScenarioConfig) -> dict:
    """JSON-safe view of a config (Fractions and labels flattened)."""

    def clean(v):
        if isinstance(v, ModeLabel):
            return {"lam": v.lam, "s": float(v.s), "n": list(v.n)}
        if isinstance(v, Fraction):
            return float(v)
        if isinstance(v, complex):
            return [v.real, v.imag]
        if isinstance(v, (list, tuple)):
            return [clean(x) for x in v]
        if isinstance(v, dict):
            return {str(k): clean(x) for k, x in v.items()}
        return v

    return {k: clean(v) for k, v in asdict(cfg).items()}


@dataclass(frozen=True)
class Check:
    """One pass flag: the metric, the tolerance it was held to, the verdict."""

    name: str
    value: float
    tolerance: float
    comparison: str  # "<=", ">=", "strictly_decreasing", "nondecreasing"
    passed: bool


def check_leq(name: str, value: float, tol: float) -> Check:
    return Check(name, float(value), tol, "<=", bool(value <= tol))


def check_geq(name: str, value: float, tol: float) -> Check:
    return Check(name, float(value), tol, ">=", bool(value >= tol))


def check_monotone(name: str, values, decreasing: bool, strict: bool = True) -> Check:
    # None marks "never reached" thresholds (e.g. f*); treat it as +infinity
    vals = [float("inf") if v is None else v for v in values]
    pairs = zip(vals, vals[1:])
    if decreasing:
        ok = all(a > b if strict else a >= b for a, b in pairs)
        comparison = "strictly_decreasing" if strict else "nonincreasing"
    else:
        ok = all(a < b if strict else a <= b for a, b in pairs)
        comparison = "strictly_increasing" if strict else "nondecreasing"
    finite = [v for v in vals if np.isfinite(v)]
    span = (finite[0] - finite[-1]) if len(finite) >= 2 else 0.0
    return Check(name, float(span), 0.0, comparison, bool(ok))


@dataclass
class Report:
    """Outcome of one scenario run."""

    scenario: str
    params: dict
    seed: int
    metrics: dict[str, float]
    checks: list[Check]
    tables: dict[str, tuple[list[str], list[list]]] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "params": self.params,
            "seed": self.seed,
            "metrics": self.metrics,
            "checks": [asdict(c) for c in self.checks],
            "pass": self.passed,
        }
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)

    def series_csv(self, table: str = "series") -> str:
        """Deterministic CSV: fixed column order, 17 significant digits, LF."""
        header, rows = self.tables[table]
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for v in row:
                if isinstance(v, float):
                    cells.append(format(v, ".17g"))
                else:
                    cells.append(str(v))
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# shared machinery

def _onebody_hamiltonian(catalog: BasisCatalog, pot: PotentialSpec, e: float):
    h0 = h0_matrix(catalog).matrix
    blocks = interaction_term_matrices(catalog, pot, e)

    def ham(t: float) -> OneBodyOperator:
        m = h0.copy()
        for op, env in blocks:
            g = env.value(t)
            if g != 0.0:
                m += g * op.matrix
        return OneBodyOperator(m)

    return ham


def _manybody_hamiltonian(catalog: BasisCatalog, ladders, pot: PotentialSpec, e: float):
    h0q = quantize(h0_matrix(catalog), ladders).matrix
    blocks = [
        (quantize(op, ladders).matrix, env)
        for op, env in interaction_term_matrices(catalog, pot, e)
    ]

    def ham(t: float) -> ManyBodyOperator:
        m = h0q
        for bq, env in blocks:
            g = env.value(t)
            if g != 0.0:
                m = m + g * bq
        return ManyBodyOperator(m, hermitian=True)

    return ham


def _modes_of(catalog: BasisCatalog, cfg: ScenarioConfig):
    return (
        catalog.modes[catalog.index_of(cfg.mode1)],
        catalog.modes[catalog.index_of(cfg.mode2)],
    )


def _delta_n(cfg: ScenarioConfig) -> IntVec:
    return tuple(cfg.mode2.n[a] - cfg.mode1.n[a] for a in range(3))


def _neg(k: IntVec) -> IntVec:
    return (-k[0], -k[1], -k[2])


def schrodinger_scan_profile(catalog: BasisCatalog, cfg: ScenarioConfig) -> dict[IntVec, complex]:
    """Fourier modes of D(x) = d(rho_cross)/dt at t_final (two harmonics)."""
    m1, m2 = _modes_of(catalog, cfg)
    dn = _delta_n(cfg)
    de = m2.energy - m1.energy
    ov = complex(np.vdot(m1.u, m2.u))
    coeff = (cfg.e / (2.0 * catalog.volume)) * (-1j * de) * ov * np.exp(-1j * de * cfg.t_final)
    return {dn: coeff, _neg(dn): np.conj(coeff)}


def heisenberg_scan_profile(catalog: BasisCatalog, cfg: ScenarioConfig) -> dict[IntVec, complex]:
    """Fourier modes of D7(x) = div J_cross at t_final (two harmonics)."""
    from .modes import ALPHA

    m1, m2 = _modes_of(catalog, cfg)
    dn = _delta_n(cfg)
    de = m2.energy - m1.energy
    dp = m2.p - m1.p
    alpha_ov = sum(dp[a] * complex(np.vdot(m1.u, ALPHA[a] @ m2.u)) for a in range(3))
    coeff = (cfg.e / (2.0 * catalog.volume)) * 1j * alpha_ov * np.exp(-1j * de * cfg.t_final)
    return {dn: coeff, _neg(dn): np.conj(coeff)}


def profile_square_integral(profile: dict[IntVec, complex], volume: float) -> float:
    """integral of the (real) profile squared: V * sum_k |c_k|^2."""
    return volume * sum(abs(c) ** 2 for c in profile.values())


def _pure_gauge(chi: GaugeFunction, grid: MomentumGrid) -> PotentialSpec:
    return gauge_transform(PotentialSpec.zero(), chi, grid)


def _fock_guard(size: int):
    if size > FOCK_MODE_CAP:
        raise ValueError(
            f"Fock backend needs M <= {FOCK_MODE_CAP} modes, got {size}; "
            "use the gaussian backend or a momentum subset"
        )


# ---------------------------------------------------------------------------
# scenario: free baseline

def run_free_baseline(cfg: ScenarioConfig) -> Report:
    """Free evolution of the two-mode state; oracle and continuity checks."""
    backends = ("gaussian", "fock") if cfg.backend == "both" else (cfg.backend,)
    n_steps = cfg.n_steps or 1000
    results = {}
    header = ["backend", "time", "x", "y", "z", "rho", "jx", "jy", "jz"]
    rows: list[list] = []
    metrics: dict[str, float] = {}
    checks: list[Check] = []
    for be in backends:
        catalog = cfg.catalog(cfg.resolved_n_max(be))
        h0 = h0_matrix(catalog)
        if be == "gaussian":
            prop = propagate(h0, (0.0, cfg.t_final), n_steps)
            C0 = omega0_correlation(catalog, cfg.mode1, cfg.mode2)
            cs = [evolve_correlation(C0, u) for u in prop.matrices]
            times = prop.times
        else:
            _fock_guard(catalog.size)
            ladders = build_ladders(catalog)
            h0q = quantize(h0, ladders)
            omega = omega0_state(ladders, cfg.mode1, cfg.mode2)
            times, states = evolve_schrodinger(omega, h0q, (0.0, cfg.t_final), n_steps)
            cs = [correlation_from_state(s, ladders) for s in states]
        series = field_series(
            catalog, times, cs, cfg.points_per_axis, provenance=f"free/{be}", e=cfg.e
        )
        results[be] = (catalog, series)

        m1, m2 = _modes_of(catalog, cfg)
        pts = series.points
        dt = times[1] - times[0]
        drho_sim = (series.rho[2:] - series.rho[:-2]) / (2.0 * dt)
        drho_want = np.array([drho_dt_oracle(pts, t, m1, m2, cfg.e) for t in times[1:-1]])
        scale_r = np.abs(drho_want).max()
        drho_err = float(np.abs(drho_sim - drho_want).max() / scale_r)
        div_sim = spectral_divergence(series)
        div_want = np.array([div_current_oracle(pts, t, m1, m2, cfg.e) for t in times])
        div_err = float(np.abs(div_sim - div_want).max() / np.abs(div_want).max())
        cont = continuity_residual(series)
        oracle_opposition = float(np.abs(drho_want + div_want[1:-1]).max())
        energy_drift = float(series.energy.max() - series.energy.min())

        metrics[f"{be}_drho_dt_rel_err"] = drho_err
        metrics[f"{be}_divj_rel_err"] = div_err
        metrics[f"{be}_continuity_residual"] = cont
        metrics[f"{be}_oracle_opposition"] = oracle_opposition
        metrics[f"{be}_energy_drift"] = energy_drift
        checks.append(check_leq(f"{be}_drho_dt_oracle_rel", drho_err, 1e-6))
        checks.append(check_leq(f"{be}_divj_oracle_rel", div_err, 1e-6))
        checks.append(check_leq(f"{be}_continuity", cont, 1e-8))
        checks.append(check_leq(f"{be}_oracle_opposition", oracle_opposition, 1e-10))
        checks.append(check_leq(f"{be}_free_energy_drift", energy_drift, 1e-9))

        stride = max(1, len(times) // 20)
        for ti in range(0, len(times), stride):
            for xi in range(series.spatial.n_points):
                rows.append(
                    [
                        be,
                        float(times[ti]),
                        float(pts[xi, 0]),
                        float(pts[xi, 1]),
                        float(pts[xi, 2]),
                        float(series.rho[ti, xi]),
                        float(series.current[ti, xi, 0]),
                        float(series.current[ti, xi, 1]),
                        float(series.current[ti, xi, 2]),
                    ]
                )

    if len(backends) == 2:
        # shared observable comparison needs a shared catalog; rerun gaussian
        # contraction on the fock catalog trajectory
        catalog, fock_series = results["fock"]
        prop = propagate(h0_matrix(catalog), (0.0, cfg.t_final), n_steps)
        C0 = omega0_correlation(catalog, cfg.mode1, cfg.mode2)
        cs = [evolve_correlation(C0, u) for u in prop.matrices]
        gauss_series = field_series(catalog, prop.times, cs, cfg.points_per_axis, e=cfg.e)
        dev = max(
            float(np.abs(gauss_series.rho - fock_series.rho).max()),
            float(np.abs(gauss_series.current - fock_series.current).max()),
            float(np.abs(gauss_series.energy - fock_series.energy).max()),
        )
        metrics["backend_disagreement"] = dev
        checks.append(check_leq("backend_agreement", dev, 1e-8))

    return Report(
        scenario="baseline",
        params=config_dict(cfg),
        seed=cfg.seed,
        metrics=metrics,
        checks=checks,
        tables={"series": (header, rows)},
    )


# ---------------------------------------------------------------------------
# scenario: Heisenberg gauge invariance across cutoffs

def _default_chi(cfg: ScenarioConfig) -> dict[IntVec, complex]:
    if cfg.chi_modes is not None:
        return {k: v for k, v in cfg.chi_modes}
    dn = _delta_n(cfg)
    amp = 0.5 * cfg.chi_amplitude  # amp(k) + amp(-k) peaks at chi_amplitude
    return {dn: amp + 0.0j, _neg(dn): amp + 0.0j}


def run_heisenberg_gauge(cfg: ScenarioConfig) -> Report:
    """Propagate free vs pure-gauge potentials; gauge invariance of rho, J.

    Observables are the excitation (vacuum-subtracted) fields: the sea carries
    a band-edge artifact under the truncated gauge phase that never converges
    pointwise for J (edge contributions add for alpha_z where they cancel by
    the +/-n_max parity for rho), while the wavepacket fields converge fast.
    The one-body propagators themselves differ from the gauge-phase relation
    u_g = e^{-ieX} u_0 only by truncation plus stepping error, reported on a
    fixed momentum window as `unitary_dist`.
    """
    n_steps = cfg.n_steps or 8000
    chi_map = _default_chi(cfg)
    env = cfg.envelope()
    chi = GaugeFunction(chi_map, env)
    window = min(cfg.cutoffs) - chi.band()
    if window < 0:
        raise ValueError("chi band exceeds the smallest cutoff in the scan")
    header = ["n_max", "time", "rho_dev", "j_dev", "unitary_dist"]
    rows: list[list] = []
    per_cutoff: dict[int, dict[str, float]] = {}
    for n_max in cfg.cutoffs:
        catalog = cfg.catalog(n_max)
        pure = _pure_gauge(chi, catalog.grid)
        record = max(1, n_steps // 20)
        u_free = propagate(h0_matrix(catalog), (0.0, cfg.t_final), n_steps, record_every=record)
        u_gauge = propagate(
            _onebody_hamiltonian(catalog, pure, cfg.e),
            (0.0, cfg.t_final),
            n_steps,
            record_every=record,
        )
        W0 = excitation_correlation(catalog, cfg.mode1, cfg.mode2)
        cs_free = [evolve_correlation(W0, u) for u in u_free.matrices]
        cs_gauge = [evolve_correlation(W0, u) for u in u_gauge.matrices]
        s_free = field_series(catalog, u_free.times, cs_free, cfg.points_per_axis, e=cfg.e)
        s_gauge = field_series(catalog, u_gauge.times, cs_gauge, cfg.points_per_axis, e=cfg.e)

        sel = catalog.tables.caps <= window
        rho_dev_t = np.abs(s_free.rho - s_gauge.rho).max(axis=1)
        j_dev_t = np.abs(s_free.current - s_gauge.current).max(axis=(1, 2))
        unit_t = []
        for t, ug, uf in zip(u_free.times, u_gauge.matrices, u_free.matrices):
            phase = gauge_phase(chi_matrix(catalog, chi, t), cfg.e)
            diff = ug - phase @ uf
            unit_t.append(float(np.abs(diff[np.ix_(sel, sel)]).max()))
        unit_t = np.array(unit_t)
        for ti, t in enumerate(u_free.times):
            rows.append([n_max, float(t), float(rho_dev_t[ti]), float(j_dev_t[ti]), float(unit_t[ti])])
        per_cutoff[n_max] = {
            "rho_dev": float(rho_dev_t.max()),
            "j_dev": float(j_dev_t.max()),
            "unitary_dist": float(unit_t.max()),
            "identity_window": gauge_identity_residual(
                catalog, chi, cfg.t_final, cfg.e, window=window
            )["window"],
        }

    metrics = {f"n{n}_{k}": v for n, d in per_cutoff.items() for k, v in d.items()}
    checks = []
    for n_max in cfg.cutoffs:
        checks.append(check_leq(f"rho_gauge_dev_n{n_max}", per_cutoff[n_max]["rho_dev"], 1e-6))
        checks.append(check_leq(f"j_gauge_dev_n{n_max}", per_cutoff[n_max]["j_dev"], 1e-6))
        checks.append(
            check_leq(f"unitary_dist_n{n_max}", per_cutoff[n_max]["unitary_dist"], 1e-8)
        )
    checks.append(
        check_monotone(
            "rho_dev_decreasing",
            [per_cutoff[n]["rho_dev"] for n in cfg.cutoffs],
            decreasing=True,
        )
    )
    checks.append(
        check_monotone(
            "j_dev_decreasing",
            [per_cutoff[n]["j_dev"] for n in cfg.cutoffs],
            decreasing=True,
        )
    )
    checks.append(
        check_monotone(
            "identity_window_decreasing",
            [per_cutoff[n]["identity_window"] for n in cfg.cutoffs],
            decreasing=True,
        )
    )
    return Report(
        scenario="gauge-heisenberg",
        params=config_dict(cfg),
        seed=cfg.seed,
        metrics=metrics,
        checks=checks,
        tables={"series": (header, rows)},
    )


# ---------------------------------------------------------------------------
# scenario: Schrodinger-picture gauge scan over f

def _subset_catalog(cfg: ScenarioConfig, momenta_z: tuple[int, ...]) -> BasisCatalog:
    n_max = max(max(abs(z) for z in momenta_z), cfg.resolved_n_max("fock"))
    full = cfg.catalog(n_max)
    return restrict_catalog(full, [(0, 0, z) for z in momenta_z])


def run_schrodinger_gauge_scan(cfg: ScenarioConfig) -> Report:
    """Evolve the state under chi(x, t) = f D(x) g(t) and scan f.

    D is the free density-derivative profile at t_final.  The measured
    free-energy shift tracks the linear prediction Delta_xi - f*integral(D^2)
    at small f and must respect the finite-model bound (>= vacuum) at all f.
    """
    n_steps = cfg.n_steps or 400
    env = cfg.envelope()
    header = ["subset_size", "f", "measured_minus_vac", "predicted_minus_vac", "rel_dev", "bound_margin"]
    rows: list[list] = []
    metrics: dict[str, float] = {}
    checks: list[Check] = []
    f_stars: list[float] = []
    small_f = sorted(f for f in cfg.f_list if f > 0)[:3]
    for momenta_z in cfg.scan_subsets:
        catalog = _subset_catalog(cfg, momenta_z)
        _fock_guard(catalog.size)
        ladders = build_ladders(catalog)
        m1, m2 = _modes_of(catalog, cfg)
        dxi = delta_xi(m1, m2)
        profile = schrodinger_scan_profile(catalog, cfg)
        d_sq = profile_square_integral(profile, catalog.volume)
        sea = catalog.sea_energy()
        omega = omega0_state(ladders, cfg.mode1, cfg.mode2)
        tag = f"M{catalog.size}"
        f_star = None
        for f in cfg.f_list:
            if f == 0.0:
                ham = quantize(h0_matrix(catalog), ladders)
            else:
                chi = GaugeFunction({k: f * c for k, c in profile.items()}, env)
                pure = _pure_gauge(chi, catalog.grid)
                ham = _manybody_hamiltonian(catalog, ladders, pure, cfg.e)
            _, states = evolve_schrodinger(
                omega, ham, (0.0, cfg.t_final), n_steps, record_every=n_steps
            )
            measured = free_energy_schrodinger(states[-1], catalog, ladders) - sea
            predicted = dxi - f * d_sq
            rel = abs(measured - predicted) / abs(predicted)
            bound_margin = measured  # vacuum is the floor of the free energy
            rows.append([tag, float(f), measured, predicted, float(rel), float(bound_margin)])
            metrics[f"{tag}_f{f}_measured"] = measured
            metrics[f"{tag}_f{f}_rel_dev"] = float(rel)
            checks.append(check_geq(f"{tag}_bound_f{f}", bound_margin, -1e-9))
            if f in small_f:
                checks.append(check_leq(f"{tag}_linear_f{f}", rel, 0.05))
            if f_star is None and f > 0 and rel > 0.1:
                f_star = f
        fit_f = [0.0] + small_f
        fit_vals = [
            next(r[2] for r in rows if r[0] == tag and r[1] == f) for f in fit_f
        ]
        slope, intercept = np.polyfit(fit_f, fit_vals, 1)
        metrics[f"{tag}_fit_slope"] = float(slope)
        metrics[f"{tag}_fit_intercept"] = float(intercept)
        metrics[f"{tag}_slope_target"] = -d_sq
        checks.append(
            check_leq(f"{tag}_slope_rel_err", abs(slope - (-d_sq)) / d_sq, 0.05)
        )
        checks.append(
            check_leq(f"{tag}_intercept_rel_err", abs(intercept - dxi) / dxi, 0.05)
        )
        metrics[f"{tag}_f_star"] = f_star  # None: no departure inside the scanned f
        f_stars.append(f_star)
    checks.append(
        check_monotone("f_star_nondecreasing", f_stars, decreasing=False, strict=False)
    )
    return Report(
        scenario="gauge-schrodinger",
        params=config_dict(cfg),
        seed=cfg.seed,
        metrics=metrics,
        checks=checks,
        tables={"series": (header, rows)},
    )


# ---------------------------------------------------------------------------
# scenario: Heisenberg-picture energy identity scan

def run_heisenberg_energy_scan(cfg: ScenarioConfig) -> Report:
    """Scan chi = -f D7(x) g(t); measured Heisenberg energy vs identity RHS.

    "Measured" is the excitation energy: the two-mode run minus the vacuum
    run under the same potential (one W-correlation contraction by linearity).
    Static-vacuum subtraction instead leaves a cutoff-persistent O(f^2)
    band-edge artifact from the sea that buries the linear identity; the
    vacuum-run reference removes it while both agree in the continuum, where
    the pure-gauge sea energy is exactly invariant.  The raw static-subtracted
    values are kept in the metrics for comparison.
    """
    n_steps = cfg.n_steps or 4000
    env = cfg.envelope()
    catalog = cfg.catalog(cfg.resolved_n_max("gaussian"))
    m1, m2 = _modes_of(catalog, cfg)
    dxi = delta_xi(m1, m2)
    profile = heisenberg_scan_profile(catalog, cfg)
    d7_sq = profile_square_integral(profile, catalog.volume)
    C0 = omega0_correlation(catalog, cfg.mode1, cfg.mode2)
    W0 = excitation_correlation(catalog, cfg.mode1, cfg.mode2)
    sea = catalog.sea_energy()

    # identity RHS cross-check: pair chi with the free-run div J at t_final
    u_free = propagate(h0_matrix(catalog), (0.0, cfg.t_final), max(n_steps // 4, 1))
    C_free = evolve_correlation(C0, u_free.final)
    _, divj_k = field_fourier(C_free, catalog, e=cfg.e)

    header = ["f", "measured_minus_vac", "predicted_minus_vac", "rel_dev"]
    rows: list[list] = []
    metrics: dict[str, float] = {}
    checks: list[Check] = []
    pairing_err = 0.0
    for f in cfg.f_list:
        if f == 0.0:
            u_final = u_free.final
        else:
            chi = GaugeFunction({k: -f * c for k, c in profile.items()}, env)
            pure = _pure_gauge(chi, catalog.grid)
            u_final = propagate(
                _onebody_hamiltonian(catalog, pure, cfg.e),
                (0.0, cfg.t_final),
                n_steps,
                record_every=n_steps,
            ).final
        measured = free_energy_heisenberg(W0, u_final, catalog)
        predicted = dxi - f * d7_sq
        if f > 0:
            chi = GaugeFunction({k: -f * c for k, c in profile.items()}, env)
            rhs = energy_identity_rhs(chi, cfg.t_final, divj_k, dxi, catalog.volume)
            pairing_err = max(pairing_err, abs(rhs - predicted))
        rel = abs(measured - predicted) / abs(predicted)
        rows.append([float(f), measured, predicted, float(rel)])
        metrics[f"f{f}_measured"] = measured
        metrics[f"f{f}_predicted"] = predicted
        metrics[f"f{f}_measured_static_sub"] = (
            free_energy_heisenberg(C0, u_final, catalog) - sea
        )
    small_f = sorted(f for f in cfg.f_list if f > 0)[:3]
    fit_vals = [next(r[1] for r in rows if r[0] == f) for f in small_f]
    slope, intercept = np.polyfit(small_f, fit_vals, 1)
    metrics["fit_slope"] = float(slope)
    metrics["fit_intercept"] = float(intercept)
    metrics["slope_target"] = -d7_sq
    metrics["intercept_target"] = dxi
    metrics["identity_pairing_err"] = float(pairing_err)
    checks.append(check_leq("slope_rel_err", abs(slope - (-d7_sq)) / d7_sq, 0.02))
    checks.append(check_leq("intercept_rel_err", abs(intercept - dxi) / dxi, 0.01))
    checks.append(check_leq("identity_pairing", pairing_err, 1e-10))
    return Report(
        scenario="energy-heisenberg",
        params=config_dict(cfg),
        seed=cfg.seed,
        metrics=metrics,
        checks=checks,
        tables={"series": (header, rows)},
    )


# ---------------------------------------------------------------------------
# scenario: picture equivalence under random drives

def random_drive(
    rng: np.random.Generator, band: int, amplitude: float, envelope, d: int
) -> PotentialSpec:
    """Random band-limited hermitian drive: a0 and a with the reality pairing."""
    a0: dict[IntVec, complex] = {}
    a: dict[IntVec, np.ndarray] = {}
    ks = range(1, band + 1) if d == 1 else None
    if d != 1:
        raise NotImplementedError("random drives are wired for d = 1 scans")
    for kz in ks:
        k = (0, 0, kz)
        amp0 = amplitude * complex(rng.normal(), rng.normal())
        a0[k], a0[_neg(k)] = amp0, np.conj(amp0)
        vec = amplitude * (rng.normal(size=3) + 1j * rng.normal(size=3))
        a[k], a[_neg(k)] = vec, np.conj(vec)
    # k = 0 components must be real
    a0[(0, 0, 0)] = amplitude * rng.normal()
    return PotentialSpec.single(a0=a0, a=a, envelope=envelope)


def _observable_panel(catalog: BasisCatalog, cfg: ScenarioConfig):
    sgrid = SpatialGrid.for_catalog(catalog, cfg.points_per_axis)
    pts = sgrid.points()
    ops = [h0_matrix(catalog)]
    for xi in range(pts.shape[0]):
        ops.append(density_matrix(catalog, pts[xi], cfg.e))
        ops.extend(current_matrix(catalog, pts[xi], cfg.e))
    return ops


def run_picture_equivalence(cfg: ScenarioConfig) -> Report:
    """Schrodinger (exact Fock) vs Heisenberg (conjugated bilinears).

    The Heisenberg reference runs on a heis_refine-times finer time grid, so
    the reported deviation isolates the Schrodinger stepper's O(dt^2) error;
    doubling the Schrodinger step count must shrink it by about 4x.  At
    matched step counts the two picture are the same discrete evolution, which
    the matched-deviation metric pins at roundoff level.
    """
    momenta = cfg.scan_subsets[0]
    catalog = _subset_catalog(cfg, momenta)
    _fock_guard(catalog.size)
    ladders = build_ladders(catalog)
    n_steps = cfg.n_steps or 200
    env = cfg.envelope()
    rng = np.random.default_rng(cfg.seed)
    panel = _observable_panel(catalog, cfg)
    omega_f = omega0_state(ladders, cfg.mode1, cfg.mode2)
    C0 = omega0_correlation(catalog, cfg.mode1, cfg.mode2)
    panel_q = [quantize(op, ladders) for op in panel]

    def heis_values(u):
        return np.array(
            [
                bilinear_expectation(C0, OneBodyOperator(u.conj().T @ op.matrix @ u)).real
                for op in panel
            ]
        )

    def schro_values(steps, ham):
        _, states = evolve_schrodinger(omega_f, ham, (0.0, cfg.t_final), steps, record_every=steps)
        return np.array([expectation(states[-1], opq).real for opq in panel_q])

    header = ["drive", "n_steps", "deviation", "doubled_deviation", "matched_deviation"]
    rows: list[list] = []
    deviations, doubled, matched = [], [], []
    zero_control = None
    for drive_idx in range(cfg.n_drives + 1):
        if drive_idx == 0:
            pot = PotentialSpec.zero()
        else:
            pot = random_drive(rng, cfg.drive_band, cfg.drive_amplitude, env, cfg.d)
        ham_1b = _onebody_hamiltonian(catalog, pot, cfg.e)
        ham_mb = _manybody_hamiltonian(catalog, ladders, pot, cfg.e)
        u_ref = propagate(
            ham_1b,
            (0.0, cfg.t_final),
            n_steps * cfg.heis_refine,
            record_every=n_steps * cfg.heis_refine,
        ).final
        ref_vals = heis_values(u_ref)
        schro_base = schro_values(n_steps, ham_mb)
        dev = float(np.abs(schro_base - ref_vals).max())
        dev2 = float(np.abs(schro_values(2 * n_steps, ham_mb) - ref_vals).max())
        u_same = propagate(ham_1b, (0.0, cfg.t_final), n_steps, record_every=n_steps).final
        dev_same = float(np.abs(schro_base - heis_values(u_same)).max())
        if drive_idx == 0:
            zero_control = dev
        else:
            deviations.append(dev)
            doubled.append(dev2)
            matched.append(dev_same)
        rows.append([drive_idx, n_steps, dev, dev2, dev_same])

    worst = max(deviations)
    worst2 = max(doubled)
    ratio = worst / worst2 if worst2 > 0 else 1e15  # both at roundoff: vacuous pass
    metrics = {
        "max_deviation": worst,
        "max_doubled_deviation": worst2,
        "step_doubling_ratio": ratio,
        "max_matched_deviation": max(matched),
        "zero_drive_deviation": zero_control,
    }
    checks = [
        check_leq("picture_deviation", worst, 1e-8),
        check_geq("step_doubling_ratio", ratio, 3.5),
        check_leq("matched_step_deviation", max(matched), 1e-10),
        check_leq("zero_drive_control", zero_control, 1e-10),
    ]
    return Report(
        scenario="equivalence",
        params=config_dict(cfg),
        seed=cfg.seed,
        metrics=metrics,
        checks=checks,
        tables={"series": (header, rows)},
    )


SCENARIOS = {
    "baseline": run_free_baseline,
    "gauge-heisenberg": run_heisenberg_gauge,
    "gauge-schrodinger": run_schrodinger_gauge_scan,
    "energy-heisenberg": run_heisenberg_energy_scan,
    "equivalence": run_picture_equivalence,
}
