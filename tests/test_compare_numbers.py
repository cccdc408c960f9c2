"""scripts/compare_numbers.py: what it reports between two output directories.

Each case writes two small output trees that differ in one place, runs the
script's `main`, and reads its report.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "compare_numbers.py"


@pytest.fixture(scope="module")
def compare_numbers():
    spec = importlib.util.spec_from_file_location("compare_numbers", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def report(metrics, verdicts):
    """A scenario JSON of the CLI's shape: metrics, and checks keyed by name."""
    checks = [{"name": name, "value": 0.5, "tol": 1.0, "op": "<=", "passed": ok} for name, ok in verdicts.items()]
    return json.dumps({"metrics": metrics, "checks": checks, "pass": all(verdicts.values())}, indent=2)


SERIES = "time,rho,jz\n0,1.0,0.25\n1,2.0,0.5\n"


def write_tree(root: Path, series=SERIES, metrics=None, verdicts=None):
    out = root / "results" / "demo"
    out.mkdir(parents=True)
    (out / "demo_series.csv").write_text(series)
    metrics = {"dev": 1.0e-9, "ratio": 4.0} if metrics is None else metrics
    verdicts = {"deviation": True, "doubling": True} if verdicts is None else verdicts
    (out / "demo.json").write_text(report(metrics, verdicts))
    return root


def run(compare_numbers, capsys, *argv):
    assert compare_numbers.main([str(a) for a in argv]) == 0
    return capsys.readouterr().out.splitlines()


def test_identical_trees_report_nothing(compare_numbers, capsys, tmp_path):
    a, b = write_tree(tmp_path / "a"), write_tree(tmp_path / "b")
    assert run(compare_numbers, capsys, a, b) == []


def test_moved_csv_column(compare_numbers, capsys, tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", series="time,rho,jz\n0,1.0,0.25\n1,2.0,0.5000001\n")
    lines = run(compare_numbers, capsys, a, b)
    assert lines[0] == "results/demo/demo_series.csv"
    # only jz moved: 1e-7 absolute, 2e-7 relative to 0.5000001
    assert len(lines) == 2
    name, dev = lines[1].split(None, 1)
    assert name == "jz"
    assert dev.startswith("abs 1.000e-07  rel 2.000e-07")


def test_moved_json_metric(compare_numbers, capsys, tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", metrics={"dev": 1.5e-9, "ratio": 4.0})
    lines = run(compare_numbers, capsys, a, b)
    assert lines == ["results/demo/demo.json", "  metrics.dev  abs 5.000e-10  rel 3.333e-01"]


def test_flipped_check_verdict_keyed_by_name(compare_numbers, capsys, tmp_path):
    a = write_tree(tmp_path / "a", verdicts={"deviation": True, "doubling": True})
    # listed in another order: the checks pair by name, not by position
    b = write_tree(tmp_path / "b", verdicts={"doubling": False, "deviation": True})
    lines = run(compare_numbers, capsys, a, b)
    assert lines[0] == "results/demo/demo.json"
    rows = dict(line.split(None, 1) for line in lines[1:])
    assert rows == {"checks[doubling].passed": "changed True -> False", "pass": "changed True -> False"}


def test_move_against_its_floor(compare_numbers, capsys, tmp_path):
    a = write_tree(tmp_path / "a")
    b = write_tree(tmp_path / "b", metrics={"dev": 1.5e-9, "ratio": 4.0})
    floor = tmp_path / "floor.json"
    table = {"results/demo/demo.json": {"metrics.dev": {"abs": 2.0e-10, "rel": 0.2}}}
    floor.write_text(json.dumps({"permutations": 6, "floor": table}))
    lines = run(compare_numbers, capsys, a, b, "--floor", floor)
    assert lines == [
        "results/demo/demo.json",
        "  metrics.dev  abs 5.000e-10  rel 3.333e-01  floor 2.000e-10  2.50x",
    ]


def test_usage_error_exits_2(compare_numbers, capsys, tmp_path):
    assert compare_numbers.main([str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("usage:")
