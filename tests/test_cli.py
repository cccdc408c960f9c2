"""Command-line interface: config parsing, check suite, outputs, exit codes."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy.sparse as sp

from diracbox import experiments, observables
from diracbox.cli import (
    KNOWN_KEYS,
    ConfigError,
    RunConfig,
    main,
    parse_config,
    run_check_suite,
    serialize_config,
    write_outputs,
)
from diracbox.experiments import ScenarioConfig, run_free_baseline
from diracbox.fock import build_ladders
from diracbox.modes import label
from diracbox.onebody import GaugeFunction

ROOT = Path(__file__).resolve().parent.parent


# ---------------------------------------------------------------------------
# config files


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config_keeps_defaults(tmp_path):
    rc = parse_config(write_cfg(tmp_path, "# comment only\n\nseed = 9\n"))
    assert rc.scenario.seed == 9
    assert rc.scenario.backend == "gaussian"
    assert rc.scenario.n_max is None
    assert rc.out_dir == "."


def test_parse_rejects_unknown_key_with_line_number(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\nwavelength = 2\n")
    with pytest.raises(ConfigError, match=r":2: unknown key `wavelength`"):
        parse_config(path)


def test_parse_rejects_bad_value_by_key_name(tmp_path):
    with pytest.raises(ConfigError, match="n_max"):
        parse_config(write_cfg(tmp_path, "n_max = -1\n"))
    with pytest.raises(ConfigError, match="backend"):
        parse_config(write_cfg(tmp_path, "backend = tensor\n"))


def test_parse_missing_file_is_config_error(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        parse_config(tmp_path / "absent.cfg")


def test_non_utf8_config_is_one_config_error_line(tmp_path, capsys):
    path = tmp_path / "latin.cfg"
    path.write_bytes(b"\xffseed = 1\n")
    with pytest.raises(ConfigError, match=r"latin\.cfg: not UTF-8 text \(byte 0xff at offset 0\)"):
        parse_config(path)
    assert main(["baseline", "--config", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert str(path) in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_parse_special_forms(tmp_path):
    rc = parse_config(
        write_cfg(
            tmp_path,
            "chi = 1:0.002:0.001, 2:0.0005:0\n"
            "mode1 = 0:-\n"
            "mode2 = 2:+0.5\n"
            "scan_subsets = 0 1, -1 0 1\n"
            "f_list = 0, 0.25\n"
            "cutoffs = 2,4\n"
            "omega = none\n"
            "n_steps = none\n",
        )
    )
    cfg = rc.scenario
    assert cfg.chi_modes == (((0, 0, 1), 0.002 + 0.001j), ((0, 0, 2), 0.0005 + 0j))
    # the +/- suffix picks the spin of a positive-energy packet mode
    assert cfg.mode1 == label(+1, -0.5, 0)
    assert cfg.mode2 == label(+1, +0.5, 2)
    assert cfg.scan_subsets == ((0, 1), (-1, 0, 1))
    assert cfg.f_list == (0.0, 0.25)
    assert cfg.cutoffs == (2, 4)
    assert cfg.omega is None and cfg.n_steps is None


def test_shipped_default_config_matches_builtin_defaults():
    from pathlib import Path

    path = Path(__file__).resolve().parent.parent / "configs" / "default.cfg"
    rc = parse_config(path)
    assert rc == RunConfig(scenario=ScenarioConfig())


def test_serialize_parse_round_trip(tmp_path):
    rc = RunConfig(
        scenario=ScenarioConfig(
            d=3,
            length=5.5,
            m=0.75,
            e=-0.5,
            n_max=3,
            backend="fock",
            mode1=label(+1, -0.5, -1),
            mode2=label(+1, 0.5, 2),
            t_final=1.25,
            omega=0.75,
            n_steps=500,
            f_list=(0.0, 0.1),
            cutoffs=(2, 3),
            chi_modes=(((0, 0, 1), 0.002 + 0.001j), ((0, 0, -1), 0.002 - 0.001j)),
            chi_amplitude=0.004,
            seed=3,
            n_drives=2,
            drive_amplitude=0.002,
            drive_band=2,
            heis_refine=8,
            points_per_axis=7,
            scan_subsets=((0, 1, 2), (-2, -1, 0, 1, 2)),
        ),
        out_dir="outs",
        verbosity=2,
    )
    default = RunConfig(scenario=ScenarioConfig())
    for f in dataclasses.fields(ScenarioConfig):
        assert getattr(rc.scenario, f.name) != getattr(default.scenario, f.name), f.name
    assert (rc.out_dir, rc.verbosity) != (default.out_dir, default.verbosity)
    text = serialize_config(rc)
    back = parse_config(write_cfg(tmp_path, text))
    assert back == rc
    assert serialize_config(back) == text  # idempotent


def test_known_keys_are_the_dataclass_fields():
    names = {f.name for f in dataclasses.fields(ScenarioConfig)} | {"out_dir", "verbosity"}
    # chi_modes is written `chi` in a config file, its one alias
    assert KNOWN_KEYS == (names - {"chi_modes"}) | {"chi"}


def test_documented_chi_example_builds_its_gauge_function(tmp_path):
    (example,) = re.findall(r"`(chi = [^`]+)`", (ROOT / "README.md").read_text())
    assert example in (ROOT / "configs" / "default.cfg").read_text()
    cfg = parse_config(write_cfg(tmp_path, example + "\n")).scenario
    chi = GaugeFunction(dict(cfg.chi_modes), cfg.envelope())
    assert chi.band() == 1


# ---------------------------------------------------------------------------
# check suite


def test_check_suite_passes():
    checks = run_check_suite(seed=7)
    names = [c.name for c in checks]
    assert "car_anticommutators_m12" in names
    assert "vacuum_energy_deviation_m8" in names
    assert "commutator_identity_m6" in names
    assert all(c.passed for c in checks), [c.name for c in checks if not c.passed]


def test_check_suite_catches_broken_anticommutators():
    broken = list(build_ladders(12))
    broken[3] = broken[3] + sp.csr_matrix(
        ([0.5], ([0], [0])), shape=broken[3].shape, dtype=complex
    )
    checks = run_check_suite(seed=7, car_ladders=tuple(broken))
    by_name = {c.name: c for c in checks}
    assert not by_name["car_anticommutators_m12"].passed


# ---------------------------------------------------------------------------
# outputs and entry point


def test_write_outputs_emits_lf_csv_and_json(tmp_path):
    rep = run_free_baseline(ScenarioConfig(backend="gaussian"))
    csv_path, json_path = write_outputs(rep, tmp_path / "out")
    raw = csv_path.read_bytes()
    assert b"\r" not in raw
    assert raw.decode().split("\n", 1)[0] == "backend,time,x,y,z,rho,jx,jy,jz"
    data = json.loads(json_path.read_text())
    assert set(data) == {"scenario", "params", "seed", "metrics", "checks", "pass"}
    assert data["pass"] is True


@pytest.mark.parametrize("metrics, check", [({"rel_dev": float("inf")}, 0.0), ({"rel_dev": 1.0}, float("nan"))])
def test_report_with_a_metric_that_is_not_finite_writes_no_file(tmp_path, capsys, monkeypatch, metrics, check):
    """JSON has no inf or NaN: such a metric or check value is a numerical guard, before either file is opened."""
    checks = [experiments.check_leq("linear", check, 0.05)]
    rep = experiments.Report("baseline", ScenarioConfig(), {"f_star": None, **metrics}, checks, (["f"], [[0.0]]))
    out = tmp_path / "out"
    with pytest.raises(FloatingPointError, match=r"^baseline: metric `(rel_dev` = inf|linear` = nan) is not finite$"):
        write_outputs(rep, out)
    assert not out.exists()
    monkeypatch.setitem(experiments.SCENARIOS, "baseline", lambda cfg: rep)
    assert main(["baseline", "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: baseline: metric") and err.count("\n") == 1
    assert not out.exists()


def test_main_scenario_run_is_byte_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["baseline", "--out-dir", str(out1)]) == 0
    assert main(["baseline", "--out-dir", str(out2)]) == 0
    csv1 = (out1 / "baseline_series.csv").read_bytes()
    csv2 = (out2 / "baseline_series.csv").read_bytes()
    assert csv1 == csv2


def test_main_seed_and_backend_overrides(tmp_path):
    out = tmp_path / "o"
    assert main(["baseline", "--seed", "11", "--backend", "fock", "--out-dir", str(out)]) == 0
    data = json.loads((out / "baseline_report.json").read_text())
    assert data["seed"] == 11
    assert data["params"]["backend"] == "fock"


def test_main_exit_codes(tmp_path):
    bad = write_cfg(tmp_path, "n_max = -1\n")
    assert main(["baseline", "--config", str(bad)]) == 2
    missing = tmp_path / "no-such.cfg"
    assert main(["baseline", "--config", str(missing)]) == 2
    # a genuine criterion failure exits 1 (drive far above the linear regime)
    hot = write_cfg(tmp_path, "drive_amplitude = 0.5\nn_drives = 1\nn_steps = 150\n")
    assert main(["equivalence", "--config", str(hot), "--out-dir", str(tmp_path / "hot")]) == 1


def test_main_step_guard_exits_one_without_traceback(tmp_path, capsys):
    coarse = write_cfg(tmp_path, "n_steps = 5\n")
    out = tmp_path / "coarse"
    assert main(["equivalence", "--config", str(coarse), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical guard: step too coarse")
    assert "Traceback" not in err and "config error" not in err
    assert not out.exists()


def test_main_coarse_fock_steps_exit_one_at_step_zero(tmp_path):
    """At length 0.01, ||h0|| * dt = 1.571 at the default 400 steps: the Fock stepper refuses at once.

    Run in a subprocess with a deadline, because a stepper without the guard
    takes as many Taylor rounds as such a step asks for, for hours.  The
    guarded run takes well under a second; the 60 s deadline leaves room for
    a loaded machine and still tells it apart from the stall.
    """
    cfg = write_cfg(tmp_path, "length = 0.01\n")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    proc = subprocess.run(
        [sys.executable, "-m", "diracbox.cli", "gauge-schrodinger", "--config", str(cfg), "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith("numerical guard: step too coarse: ||h||*dt = 1.571 > 0.1 at step 0 ")
    assert not out.exists()


def test_main_rejects_equivalence_beyond_one_dimension(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "d = 3\nn_max = 1\n")
    out = tmp_path / "d3"
    assert main(["equivalence", "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert "d = 1" in err
    assert not out.exists()


def test_main_fock_mode_cap_is_a_config_error(tmp_path, capsys, monkeypatch):
    evolutions = []
    original = experiments.evolve_schrodinger_batch

    def counted(*args, **kwargs):
        evolutions.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(experiments, "evolve_schrodinger_batch", counted)
    # M = 20 alone, and after an M = 8 subset that is within the cap
    for k, subsets in enumerate(("-2 -1 0 1 2", "0 1, -2 -1 0 1 2")):
        cfg = write_cfg(tmp_path, f"scan_subsets = {subsets}\n")
        out = tmp_path / f"m20-{k}"
        assert main(["gauge-schrodinger", "--config", str(cfg), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and err.count("\n") == 1
        assert "mode count 20 outside 1..14" in err
        assert "use the gaussian backend or a momentum subset" in err
        assert not out.exists()
        assert evolutions == []  # every subset is checked before any evolution


def _count_evolutions(monkeypatch) -> list:
    """Record every propagate / evolve_schrodinger_batch call the drivers make."""
    calls = []
    for name in ("propagate", "evolve_schrodinger_batch"):
        original = getattr(experiments, name)

        def counted(*args, _original=original, _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    return calls


# (scenario, config text, the key the one stderr line names, or the text naming two keys)
BAD_CONFIGS = [
    ("baseline", "n_steps = 0", "`n_steps`"),
    ("baseline", "points_per_axis = 0", "`points_per_axis`"),
    ("equivalence", "n_drives = 0", "`n_drives`"),
    ("equivalence", "heis_refine = 0", "`heis_refine`"),
    ("baseline", "e = 0", "`e`"),
    ("gauge-schrodinger", "f_list = 0.1", "`f_list`"),
    ("energy-heisenberg", "f_list = 0.1", "`f_list`"),
    ("baseline", "n_max = 0", "`mode2`"),
    ("gauge-schrodinger", "scan_subsets = 1 2", "`mode1`"),
    ("equivalence", "scan_subsets = 1 2", "`mode1`"),
    ("gauge-heisenberg", "chi = 1:0.0015:0, -1:0.0015:0\nmode2 = 3:+", "`mode2`"),
    ("gauge-heisenberg", "mode2 = 0:+", "`mode2`"),
    ("energy-heisenberg", "t_final = 0", "`t_final`"),
    ("baseline", "d = 2", "`d`"),
    ("gauge-schrodinger", "length = -1", "`length`"),
    ("equivalence", "m = 0", "`m`"),
    ("gauge-schrodinger", "t_final = inf", "`t_final`"),
    ("baseline", "e = nan", "`e`"),
    ("baseline", "length = inf", "`length`"),
    ("gauge-heisenberg", "omega = nan", "`omega`"),
    ("equivalence", "drive_amplitude = nan", "`drive_amplitude`"),
    ("gauge-heisenberg", "chi_amplitude = inf", "`chi_amplitude`"),
    ("baseline", "m = -inf", "`m`"),
    ("energy-heisenberg", "f_list = 0, 0.1, nan", "`f_list`"),
    ("gauge-heisenberg", "chi = 1:nan:0, -1:0.0015:0", "`chi`"),
    ("equivalence", "drive_band = 3", "`drive_band`"),
    ("equivalence", "drive_band = 0", "`drive_band`"),
    ("gauge-heisenberg", "cutoffs = 2, 2", "`cutoffs`"),
    ("baseline", "backend = both\nn_max = 2", "`n_max`"),
    ("gauge-schrodinger", "scan_subsets = -2 -1 0 1", "`scan_subsets`"),
    ("equivalence", "scan_subsets = -2 -1 0 1", "`scan_subsets`"),
    ("gauge-heisenberg", "chi = 3:0.001:0, -3:0.001:0", "`chi` band 3 exceeds the smallest of `cutoffs`"),
    ("equivalence", "d = 3", "`d`"),
    ("gauge-heisenberg", "cutoffs = 1\nd = 3", "`d` = 3: gauge-heisenberg runs at d = 1 only"),
    ("gauge-heisenberg", "omega = 6.283185307179586", "`omega`"),
    ("gauge-schrodinger", "mode2 = 1:-", "`mode2`: the scan profile D of mode1 and mode2 vanishes"),
    ("energy-heisenberg", "mode2 = 1:-", "`mode2`: the scan profile D of mode1 and mode2 vanishes"),
    ("gauge-schrodinger", "scan_subsets = 0 1 2, -1 0 1", "`scan_subsets` must differ in their momentum counts"),
    ("equivalence", "scan_subsets = 0 1, 1 0", "`scan_subsets`"),
    ("energy-heisenberg", "f_list = 0, 0.1, 0.1", "`f_list` repeats a value"),
    ("gauge-schrodinger", "f_list = 0, 0.05, 0.05, 0.1", "`f_list` repeats a value"),
    # f = Delta_xi / integral(D^2) at the defaults: a linear prediction of exactly 0 to divide by
    ("gauge-schrodinger", "f_list = 0, 0.05, 0.1, 103.58007771533707", "`f_list`: f = 103.58007771533707"),
    ("energy-heisenberg", "f_list = 0, 0.05, 0.1, 103.58007771533707", "`f_list`: f = 103.58007771533707"),
    ("baseline", "n_steps = 1", "`n_steps`"),
    ("equivalence", "seed = -1", "`seed`"),
    ("gauge-heisenberg", "chi = 0:0.01:0\ncutoffs = -1", "`cutoffs` must hold one or more values >= 0"),
]


@pytest.mark.parametrize(
    "scenario, text, key", BAD_CONFIGS, ids=[f"{s}:{t.splitlines()[-1]}" for s, t, _ in BAD_CONFIGS]
)
def test_main_bad_config_exits_two_before_any_evolution(
    tmp_path, capsys, monkeypatch, scenario, text, key
):
    evolutions = _count_evolutions(monkeypatch)
    cfg = write_cfg(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out-dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and err.count("\n") == 1
    assert key in err and "Traceback" not in err
    assert not out.exists()
    assert evolutions == []


@pytest.mark.parametrize(
    "flag, text", [("afile/sub", ""), ("afile", ""), (None, "out_dir = afile/sub\n")],
    ids=["under-a-file", "a-file", "config-key"],
)
def test_main_out_dir_on_a_file_exits_two_before_any_evolution(tmp_path, capsys, monkeypatch, flag, text):
    evolutions = _count_evolutions(monkeypatch)
    monkeypatch.chdir(tmp_path)
    Path("afile").write_text("kept\n")
    cfg = write_cfg(tmp_path, text)
    argv = ["baseline", "--config", str(cfg)] + (["--out-dir", flag] if flag else [])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: `out_dir`") and err.count("\n") == 1
    assert "afile exists and is not a directory" in err and "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]
    assert Path("afile").read_text() == "kept\n"
    assert evolutions == []


def test_main_flag_overrides_parse_like_config_values(tmp_path, capsys):
    out = tmp_path / "out"
    for flags, want in (
        (["--seed", "x"], "config error: invalid value for `seed`: 'x'\n"),
        (["--seed", "none"], "config error: `seed` does not accept none\n"),
        (["--seed", "-1"], "config error: `seed` must be >= 0, got -1\n"),
        (["--cutoffs", "2,x"], "config error: invalid value for `cutoffs`: '2,x'\n"),
        (["--cutoffs", "3,2"], "config error: `cutoffs` must strictly increase, got 3, 2\n"),
    ):
        assert main(["baseline", *flags, "--out-dir", str(out)]) == 2
        assert capsys.readouterr().err == want
    assert not out.exists()


def test_main_imaginary_part_guard_is_a_numerical_guard(tmp_path, capsys, monkeypatch):
    # a free energy with an imaginary part trips the energy reader's FloatingPointError guard
    monkeypatch.setattr(observables, "bilinear_expectation", lambda c, h: 1.0 + 1.0j)
    # 20 steps: within the step guard, which 2 steps (||h0|| * dt = 0.71) would trip first
    cfg = write_cfg(tmp_path, "scan_subsets = 0 1\nn_steps = 20\n")
    out = tmp_path / "out"
    assert main(["gauge-schrodinger", "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "numerical guard: free energy acquired an imaginary part\n"
    assert not out.exists()


# configs whose values overflow inside a run: to inf, then NaN, or (chi_amplitude)
# to finite entries whose rounding alone exceeds an absolute tolerance
NON_FINITE_RUNS = [
    ("equivalence", "drive_amplitude = 1.7e308\nn_steps = 50", "a: amplitude at k = (0, 0, 1) is not finite"),
    ("baseline", "e = 1.7e308\nn_steps = 50", "bilinear field is not finite"),
    ("gauge-schrodinger", "e = 1.7e308\nn_steps = 50", "one-body matrix is not finite"),
    ("gauge-heisenberg", "chi_amplitude = 1e300", "one-body matrix of magnitude 4.619e+299 misses the tolerance"),
    ("energy-heisenberg", "m = 1e300", "chi: amplitude at k = (0, 0, 1) is not finite"),
    ("energy-heisenberg", "length = 1e-300", "chi: amplitude at k = (0, 0, 1) is not finite"),
]
NON_FINITE_IDS = [f"{s}:{t.splitlines()[0]}" for s, t, _ in NON_FINITE_RUNS]


@pytest.mark.parametrize("scenario, text, message", NON_FINITE_RUNS, ids=NON_FINITE_IDS)
@pytest.mark.filterwarnings("ignore:overflow encountered", "ignore:invalid value encountered")
def test_main_non_finite_value_is_a_numerical_guard(tmp_path, capsys, scenario, text, message):
    """An overflow is a numerical guard, not a config error: each guard names it, and the run writes nothing."""
    cfg = write_cfg(tmp_path, text + "\n")
    out = tmp_path / "out"
    assert main([scenario, "--config", str(cfg), "--out-dir", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"numerical guard: {message}") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("scenario, text, message", NON_FINITE_RUNS, ids=NON_FINITE_IDS)
def test_cli_process_prints_one_line_on_a_numerical_guard(tmp_path, scenario, text, message):
    """The same runs as a process, where no test harness captures numpy's overflow warnings: one stderr line."""
    cfg = write_cfg(tmp_path, text + "\n")
    out = tmp_path / "out"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "diracbox.cli", scenario, "--config", str(cfg), "--out-dir", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 1
    [line] = proc.stderr.splitlines()
    assert line.startswith(f"numerical guard: {message}")
    assert not out.exists()


def test_main_cutoffs_override(tmp_path):
    out = tmp_path / "cut"
    cfg = write_cfg(tmp_path, "n_steps = 2000\n")
    code = main(
        ["gauge-heisenberg", "--config", str(cfg), "--cutoffs", "2,3", "--out-dir", str(out)]
    )
    assert code == 0
    data = json.loads((out / "gauge-heisenberg_report.json").read_text())
    assert data["params"]["cutoffs"] == [2, 3]


def test_run_config_is_frozen():
    rc = RunConfig(scenario=ScenarioConfig())
    with pytest.raises(dataclasses.FrozenInstanceError):
        rc.out_dir = "elsewhere"
