"""Command-line front end: config parsing, scenario dispatch, check suite.

Config files are flat ``key = value`` text; lists are comma-separated, chi
Fourier modes are ``k:re:im`` entries, wavepacket modes are ``n:+`` / ``n:-``
(momentum index and spin sign), and optional fields accept ``none``.  All
numeric output is written with 17 significant digits and LF line endings, so
identical config + seed reproduces byte-identical files.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .experiments import (
    SCENARIOS,
    Check,
    Report,
    ScenarioConfig,
    check_geq,
    check_leq,
    run_picture_equivalence,
)
from .fock import (
    LadderSet,
    build_ladders,
    car_residual,
    commutator_identity_check,
    h0_spectrum_check,
)
from .modes import build_catalog, label, restrict_catalog
from .observables import div_current_oracle, drho_dt_oracle
from .onebody import OneBodyOperator, StepGuardError


class ConfigError(Exception):
    """Invalid configuration file or value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Scenario knobs plus CLI-level plumbing."""

    scenario: ScenarioConfig
    out_dir: str = "."
    verbosity: int = 1


# ---------------------------------------------------------------------------
# flat key = value parsing

_INT_KEYS = {"d", "seed", "n_drives", "heis_refine", "drive_band"}
_OPT_INT_KEYS = {"n_max", "n_steps", "points_per_axis"}
_FLOAT_KEYS = {"length", "m", "e", "t_final", "chi_amplitude", "drive_amplitude"}
_OPT_FLOAT_KEYS = {"omega"}
_STR_KEYS = {"backend"}
_RUN_KEYS = {"out_dir", "verbosity"}
_SPECIAL_KEYS = {"f_list", "cutoffs", "chi", "mode1", "mode2", "scan_subsets"}
KNOWN_KEYS = (
    _INT_KEYS | _OPT_INT_KEYS | _FLOAT_KEYS | _OPT_FLOAT_KEYS | _STR_KEYS
    | _RUN_KEYS | _SPECIAL_KEYS
)


def _parse_mode(text: str, key: str):
    try:
        n_part, s_part = text.split(":")
        spin = {"+": 0.5, "-": -0.5, "+0.5": 0.5, "-0.5": -0.5}[s_part.strip()]
        return label(+1, spin, int(n_part))
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid value for `{key}`: {text!r} (want n:+ or n:-)") from exc


def _parse_chi(text: str):
    modes = []
    for entry in text.split(","):
        try:
            k, re_part, im_part = entry.strip().split(":")
            modes.append(((0, 0, int(k)), complex(float(re_part), float(im_part))))
        except ValueError as exc:
            raise ConfigError(f"invalid value for `chi`: {entry.strip()!r} (want k:re:im)") from exc
    return tuple(modes)


def _parse_subsets(text: str):
    subsets = []
    for entry in text.split(","):
        try:
            subsets.append(tuple(int(tok) for tok in entry.split()))
        except ValueError as exc:
            raise ConfigError(f"invalid value for `scan_subsets`: {entry.strip()!r}") from exc
        if not subsets[-1]:
            raise ConfigError("empty momentum subset in `scan_subsets`")
    return tuple(subsets)


def _convert(key: str, value: str):
    if value.lower() == "none":
        if key in _OPT_INT_KEYS | _OPT_FLOAT_KEYS or key == "chi":
            return None
        raise ConfigError(f"`{key}` does not accept none")
    try:
        if key in _INT_KEYS or key in _OPT_INT_KEYS or key == "verbosity":
            return int(value)
        if key in _FLOAT_KEYS or key in _OPT_FLOAT_KEYS:
            return float(value)
        if key == "f_list":
            return tuple(float(tok) for tok in value.split(","))
        if key == "cutoffs":
            return tuple(int(tok) for tok in value.split(","))
    except ValueError as exc:
        raise ConfigError(f"invalid value for `{key}`: {value!r}") from exc
    if key == "backend":
        if value not in ("fock", "gaussian", "both"):
            raise ConfigError(f"invalid value for `backend`: {value!r}")
        return value
    if key == "out_dir":
        return value
    if key in ("mode1", "mode2"):
        return _parse_mode(value, key)
    if key == "chi":
        return _parse_chi(value)
    if key == "scan_subsets":
        return _parse_subsets(value)
    raise AssertionError(f"unhandled key {key}")


def parse_config(path) -> RunConfig:
    """Flat key = value file -> validated RunConfig with defaults applied."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    scenario_kwargs = {}
    run_kwargs = {}
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key `{key}`")
        converted = _convert(key, value)
        if key in _RUN_KEYS:
            run_kwargs[key] = converted
        elif key == "chi":
            scenario_kwargs["chi_modes"] = converted
        else:
            scenario_kwargs[key] = converted
    try:
        scenario = ScenarioConfig(**scenario_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return RunConfig(scenario=scenario, **run_kwargs)


def serialize_config(rc: RunConfig) -> str:
    """Write every knob back out; parse(serialize(parse(x))) == parse(x)."""
    sc = rc.scenario
    lines = []

    def fmt(value):
        if value is None:
            return "none"
        if isinstance(value, float):
            return format(value, ".17g")
        return str(value)

    for f in fields(ScenarioConfig):
        v = getattr(sc, f.name)
        if f.name in ("mode1", "mode2"):
            lines.append(f"{f.name} = {v.n[2]}:{'+' if v.s > 0 else '-'}")
        elif f.name == "chi_modes":
            if v is None:
                lines.append("chi = none")
            else:
                entries = ", ".join(
                    f"{k[2]}:{fmt(c.real)}:{fmt(c.imag)}" for k, c in v
                )
                lines.append(f"chi = {entries}")
        elif f.name == "scan_subsets":
            entries = ", ".join(" ".join(str(z) for z in sub) for sub in v)
            lines.append(f"scan_subsets = {entries}")
        elif f.name in ("f_list", "cutoffs"):
            lines.append(f"{f.name} = {','.join(fmt(x) for x in v)}")
        else:
            lines.append(f"{f.name} = {fmt(v)}")
    lines.append(f"out_dir = {rc.out_dir}")
    lines.append(f"verbosity = {rc.verbosity}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# consolidated invariant suite

def run_check_suite(seed: int = 7, car_ladders: LadderSet | None = None) -> list[Check]:
    """CAR, spectrum, commutator-identity, oracle, and picture checks.

    `car_ladders` lets tests inject a corrupted ladder set as a negative
    control; by default the physical M = 12 catalog is used.
    """
    checks: list[Check] = []
    grid_catalog = build_catalog(
        ScenarioConfig().grid(1), ScenarioConfig().m
    )
    ladders12 = car_ladders if car_ladders is not None else build_ladders(grid_catalog)
    checks.append(check_leq("car_anticommutators_m12", car_residual(ladders12), 1e-12))

    catalog8 = restrict_catalog(grid_catalog, [0, 1])
    facts = h0_spectrum_check(build_ladders(catalog8))
    checks.append(check_leq("vacuum_energy_deviation_m8", facts["sea_energy_deviation"], 1e-10))
    checks.append(check_leq("h0_occupation_off_diagonal", facts["off_diagonal_weight"], 1e-14))
    checks.append(check_geq("vacuum_is_ground_state", facts["min_is_vacuum"], 1.0))
    checks.append(
        check_leq(
            "gap_is_lightest_mode",
            abs(facts["gap"] - facts["lightest_mode_energy"]),
            1e-10,
        )
    )

    rng = np.random.default_rng(seed)
    ladders6 = build_ladders(6)
    worst = 0.0
    for _ in range(20):
        raw = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        h = OneBodyOperator((raw + raw.conj().T) / 2)
        worst = max(worst, commutator_identity_check(h, ladders6))
    checks.append(check_leq("commutator_identity_m6", worst, 1e-12))

    m1 = grid_catalog.modes[grid_catalog.index_of(label(+1, 0.5, 0))]
    m2 = grid_catalog.modes[grid_catalog.index_of(label(+1, 0.5, 1))]
    pts = np.zeros((40, 3))
    pts[:, 2] = rng.uniform(0.0, 2 * np.pi, size=40)
    opposition = max(
        float(np.abs(drho_dt_oracle(pts, t, m1, m2) + div_current_oracle(pts, t, m1, m2)).max())
        for t in rng.uniform(0.0, 1.0, size=5)
    )
    checks.append(check_leq("oracle_continuity_identity", opposition, 1e-10))

    quick = run_picture_equivalence(ScenarioConfig(seed=seed, n_drives=1))
    for c in quick.checks:
        checks.append(Check(f"picture_{c.name}", c.value, c.tolerance, c.comparison, c.passed))
    return checks


def _print_checks(checks: list[Check], verbosity: int):
    if verbosity <= 0:
        return
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {c.value: .6e}  {c.comparison:>20s} {c.tolerance:<9g} {status}")
    n_fail = sum(not c.passed for c in checks)
    print(f"{len(checks) - n_fail}/{len(checks)} checks passed")


def cmd_check(rc: RunConfig) -> int:
    checks = run_check_suite(seed=rc.scenario.seed)
    _print_checks(checks, rc.verbosity)
    return 0 if all(c.passed for c in checks) else 1


def write_outputs(report: Report, out_dir) -> tuple[Path, Path]:
    """Emit <scenario>_series.csv and <scenario>_report.json (UTF-8, LF)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    csv_path = out / f"{report.scenario}_series.csv"
    json_path = out / f"{report.scenario}_report.json"
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.series_csv())
    with open(json_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_json() + "\n")
    return csv_path, json_path


def cmd_run(name: str, rc: RunConfig) -> int:
    report = SCENARIOS[name](rc.scenario)
    csv_path, json_path = write_outputs(report, rc.out_dir)
    _print_checks(report.checks, rc.verbosity)
    if rc.verbosity > 0:
        print(f"wrote {csv_path} and {json_path}")
    return 0 if report.passed else 1


# ---------------------------------------------------------------------------
# argument parsing

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diracbox",
        description="Truncated Dirac-field simulator: invariant checks and experiment drivers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    descriptions = {
        "check": "run the consolidated invariant suite",
        "baseline": "free two-mode evolution vs closed-form oracles",
        "gauge-heisenberg": "pure-gauge vs free runs across the cutoff scan",
        "gauge-schrodinger": "Fock-space energy scan over gauge strengths f",
        "energy-heisenberg": "one-body Heisenberg energy identity scan over f",
        "equivalence": "Schrodinger vs Heisenberg picture deviation panel",
    }
    for name, desc in descriptions.items():
        p = sub.add_parser(name, help=desc)
        p.add_argument("--config", metavar="PATH", help="flat key = value config file")
        p.add_argument("--out-dir", metavar="PATH", help="output directory (default .)")
        p.add_argument("--seed", type=int, help="seed override")
        p.add_argument("--backend", choices=("fock", "gaussian", "both"), help="backend override")
        p.add_argument("--cutoffs", metavar="LIST", help="comma-separated cutoff scan override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = parse_config(args.config) if args.config else RunConfig(ScenarioConfig())
        overrides = {}
        if args.seed is not None:
            overrides["seed"] = args.seed
        if args.backend is not None:
            overrides["backend"] = args.backend
        if args.cutoffs is not None:
            overrides["cutoffs"] = _convert("cutoffs", args.cutoffs)
        if overrides:
            try:
                rc = replace(rc, scenario=replace(rc.scenario, **overrides))
            except ValueError as exc:
                raise ConfigError(str(exc)) from exc
        if args.out_dir is not None:
            rc = replace(rc, out_dir=args.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if args.command == "check":
            return cmd_check(rc)
        return cmd_run(args.command, rc)
    except StepGuardError as exc:
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NotImplementedError) as exc:
        # NotImplementedError: a setting a scenario does not support, e.g.
        # equivalence drives beyond d = 1
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
