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
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path
from types import UnionType
from typing import TYPE_CHECKING, get_args, get_type_hints

import numpy as np

from .experiments import (
    BACKENDS,
    SCENARIOS,
    Check,
    Report,
    ScenarioConfig,
    check_geq,
    check_leq,
    run_picture_equivalence,
)
from .fock import build_ladders, car_residual, commutator_identity_check, h0_spectrum_check
from .modes import IntVec, ModeLabel, build_catalog, label, restrict_catalog
from .observables import div_current_oracle, drho_dt_oracle
from .onebody import OneBodyOperator, StepGuardError

if TYPE_CHECKING:
    import scipy.sparse as sp


class ConfigError(Exception):
    """Invalid configuration file or value; maps to exit code 2."""


@dataclass(frozen=True)
class RunConfig:
    """Scenario knobs plus CLI-level plumbing."""

    scenario: ScenarioConfig
    out_dir: str = "."
    verbosity: int = 1


# ---------------------------------------------------------------------------
# flat key = value parsing, derived from the dataclass fields


@dataclass(frozen=True)
class _Codec:
    """Text form of one field type: parse, format, and the form a bad value wants."""

    parse: Callable[[str], object]
    format: Callable[[object], str] = str
    want: str = ""


def _float_text(x: float) -> str:
    return format(x, ".17g")


def _parse_mode(text: str) -> ModeLabel:
    n_part, s_part = text.split(":")
    spin = {"+": 0.5, "-": -0.5, "+0.5": 0.5, "-0.5": -0.5}[s_part.strip()]
    return label(+1, spin, int(n_part))


def _parse_chi_entry(text: str) -> tuple[IntVec, complex]:
    k, re_part, im_part = text.split(":")
    return (0, 0, int(k)), complex(float(re_part), float(im_part))


def _entries(item: _Codec, sep: str = ",", want: str = "") -> _Codec:
    """Comma-separated tuple of `item`, written back joined by `sep`."""
    return _Codec(
        lambda text: tuple(item.parse(entry.strip()) for entry in text.split(",")),
        lambda values: sep.join(item.format(v) for v in values),
        want,
    )


_INT = _Codec(int)
_FLOAT = _Codec(float, _float_text)
_CODECS = {
    int: _INT,
    float: _FLOAT,
    str: _Codec(str),
    ModeLabel: _Codec(
        _parse_mode, lambda v: f"{v.n[2]}:{'+' if v.s > 0 else '-'}", " (want n:+ or n:-)"
    ),
    tuple[float, ...]: _entries(_FLOAT),
    tuple[int, ...]: _entries(_INT),
    tuple[tuple[IntVec, complex], ...]: _entries(
        _Codec(
            _parse_chi_entry,
            lambda kc: f"{kc[0][2]}:{_float_text(kc[1].real)}:{_float_text(kc[1].imag)}",
        ),
        ", ",
        " (want k:re:im, ...)",
    ),
    tuple[tuple[int, ...], ...]: _entries(
        _Codec(lambda text: tuple(map(int, text.split())), lambda sub: " ".join(map(str, sub))), ", "
    ),
}


_ALIASES = {"chi_modes": "chi"}  # field name -> config key, where they differ
_RUN_FIELDS = [f.name for f in fields(RunConfig)[1:]]  # [0] is the scenario
_HINTS = get_type_hints(ScenarioConfig) | get_type_hints(RunConfig)
# config key -> dataclass field, in file order: ScenarioConfig, then RunConfig
_FIELD_OF = {
    _ALIASES.get(name, name): name for name in [f.name for f in fields(ScenarioConfig)] + _RUN_FIELDS
}
KNOWN_KEYS = frozenset(_FIELD_OF)


def _codec(key: str) -> tuple[_Codec, bool]:
    """The codec of a key's field type, and whether the key takes `none` (`X | None`)."""
    hint = _HINTS[_FIELD_OF[key]]
    if isinstance(hint, UnionType):
        (base,) = set(get_args(hint)) - {type(None)}
        return _CODECS[base], True
    return _CODECS[hint], False


def _convert(key: str, value: str):
    codec, optional = _codec(key)
    if value.lower() == "none":
        if optional:
            return None
        raise ConfigError(f"`{key}` does not accept none")
    try:
        return codec.parse(value)
    except (ValueError, KeyError) as exc:
        raise ConfigError(f"invalid value for `{key}`: {value!r}{codec.want}") from exc


def _scenario(base: ScenarioConfig, values: dict) -> ScenarioConfig:
    try:
        return replace(base, **values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def parse_config(path) -> RunConfig:
    """Flat key = value file -> validated RunConfig with defaults applied."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        byte = exc.object[exc.start]
        raise ConfigError(f"{path}: not UTF-8 text (byte {byte:#04x} at offset {exc.start})") from None
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected `key = value`, got {line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key `{key}`")
        values[_FIELD_OF[key]] = _convert(key, value)
    run_values = {name: values.pop(name) for name in _RUN_FIELDS if name in values}
    return RunConfig(_scenario(ScenarioConfig(), values), **run_values)


def _check_out_dir(out_dir: str):
    """ConfigError if `out_dir` is, or lies under, an existing non-directory; nothing is created."""
    path = Path(out_dir)
    for p in (path, *path.parents):
        if p.exists() and not p.is_dir():
            raise ConfigError(f"`out_dir` {out_dir!r}: {p} exists and is not a directory")


def serialize_config(rc: RunConfig) -> str:
    """Write every knob back out; parse(serialize(parse(x))) == parse(x)."""
    lines = []
    for key, name in _FIELD_OF.items():
        value = getattr(rc if name in _RUN_FIELDS else rc.scenario, name)
        lines.append(f"{key} = {'none' if value is None else _codec(key)[0].format(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# consolidated invariant suite

def run_check_suite(seed: int = 7, car_ladders: tuple[sp.csr_matrix, ...] | None = None) -> list[Check]:
    """CAR, spectrum, commutator-identity, oracle, and picture checks.

    `car_ladders` lets tests inject corrupted annihilators as a negative
    control; by default those of the M = 12 physical catalog are used.
    """
    checks: list[Check] = []
    grid_catalog = build_catalog(
        ScenarioConfig().grid(1), ScenarioConfig().m
    )
    ladders12 = car_ladders if car_ladders is not None else build_ladders(grid_catalog.size)
    checks.append(check_leq("car_anticommutators_m12", car_residual(ladders12), 1e-12))

    catalog8 = restrict_catalog(grid_catalog, [0, 1])
    facts = h0_spectrum_check(catalog8)
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
    """Emit <scenario>_series.csv and <scenario>_report.json (UTF-8, LF), both rendered before either is opened."""
    out = Path(out_dir)
    paths = out / f"{report.scenario}_series.csv", out / f"{report.scenario}_report.json"
    texts = report.series_csv(), report.to_json() + "\n"  # a metric that is not finite raises here
    out.mkdir(parents=True, exist_ok=True)
    for path, text in zip(paths, texts):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return paths


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
        p.add_argument("--seed", metavar="N", help="seed override")
        p.add_argument("--backend", choices=BACKENDS, help="backend override")
        p.add_argument("--cutoffs", metavar="LIST", help="comma-separated cutoff scan override")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        rc = parse_config(args.config) if args.config else RunConfig(ScenarioConfig())
        overrides = {
            key: _convert(key, getattr(args, key))
            for key in ("seed", "backend", "cutoffs")
            if getattr(args, key) is not None
        }
        rc = replace(rc, scenario=_scenario(rc.scenario, overrides))
        if args.out_dir is not None:
            rc = replace(rc, out_dir=args.out_dir)
        if args.command != "check":
            _check_out_dir(rc.out_dir)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        # the guards raise on values that are not finite; numpy's warnings would only add stderr lines
        with np.errstate(all="ignore"):
            if args.command == "check":
                return cmd_check(rc)
            return cmd_run(args.command, rc)
    except (StepGuardError, FloatingPointError) as exc:
        # FloatingPointError: a value that is not finite, or an imaginary part on a real observable
        print(f"numerical guard: {exc}", file=sys.stderr)
        return 1
    except (ValueError, NotImplementedError) as exc:
        # NotImplementedError: a setting a scenario does not support, e.g.
        # equivalence or gauge-heisenberg beyond d = 1
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
