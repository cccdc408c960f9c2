"""What `import diracbox` loads, and what the scenario drivers import."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def _run(code: str) -> str:
    """stdout of `code` in a fresh interpreter with the checkout's src first on sys.path."""
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); {code}"
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True).stdout.strip()


def _imported(path: Path) -> set[str]:
    """The names `path` imports with `from ... import`."""
    tree = ast.parse(path.read_text())
    return {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}


def _attributes(path: Path) -> set[str]:
    """The attribute names `path` reads or writes."""
    return {node.attr for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Attribute)}


_LOADS_SCIPY = "print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"


def test_import_does_not_load_scipy_sparse_linalg():
    """The Fock stepper has its own exp(A)v kernel; scipy.sparse.linalg would add import time and memory."""
    assert _run("import diracbox; print('scipy.sparse.linalg' in sys.modules)") == "False"


def test_import_loads_no_scipy():
    """scipy.sparse costs most of a cold start; only the Fock backend uses it."""
    assert _run(f"import diracbox, diracbox.cli; {_LOADS_SCIPY}") == "False"


def test_gaussian_only_driver_loads_no_scipy():
    code = (
        "from diracbox import ScenarioConfig, run_heisenberg_energy_scan; "
        "assert run_heisenberg_energy_scan(ScenarioConfig(n_steps=100)).passed; "
        + _LOADS_SCIPY
    )
    assert _run(code) == "False"


def test_fock_work_loads_scipy_sparse():
    """The control for the two tests above: their check sees scipy once it is loaded."""
    code = (
        "from diracbox import FockBasis, ScenarioConfig, h0_matrix, quantize; "
        "catalog = ScenarioConfig().catalog(1); "
        f"quantize(h0_matrix(catalog), FockBasis(catalog.size)); {_LOADS_SCIPY}; "
        "print('scipy.sparse' in sys.modules)"
    )
    assert _run(code).split() == ["True", "True"]


def test_drivers_import_no_quantized_operator():
    """Both pictures step the one-body family: the drivers never quantize or build a many-body operator.

    Nor do they read <H_0> any way but off a correlation frame: the dense
    u^dag h0 u reading, `free_energy_heisenberg`, is the tests' oracle.
    """
    imported = _imported(SRC / "diracbox" / "experiments.py")
    assert "evolve_schrodinger_batch" in imported  # the control: the walk sees the Fock imports
    assert imported.isdisjoint({"quantize", "ManyBodyOperator", "free_energy_heisenberg"})


def test_drivers_evolve_through_the_one_route():
    """`baseline`, `gauge-heisenberg` and `equivalence` step and sample only through `_evolved_series`."""
    tree = ast.parse((SRC / "diracbox" / "experiments.py").read_text())
    drivers = {"run_free_baseline", "run_heisenberg_gauge", "run_picture_equivalence"}
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in drivers:
            called = {c.func.id for c in ast.walk(node) if isinstance(c, ast.Call) and isinstance(c.func, ast.Name)}
            assert "_evolved_series" in called, node.name
            assert called.isdisjoint({"propagate", "evolve_schrodinger_batch", "evolve_correlation", "field_series"})
            drivers.remove(node.name)
    assert not drivers


def test_src_reads_the_gauge_relation_and_propagators_on_their_blocks():
    """No dense gauge phase or dense u in `src/`: `gauge-heisenberg` reads u_g = e^{-ieX} u_free off the blocks.

    `experiments.py` imports neither dense kernel (`gauge_phase`,
    `unitary_step`) nor a dense oracle (`chi_matrix`,
    `gauge_identity_residual`, kept in the tests), and no module but
    `onebody.py`, which defines them, reads a propagator's dense `matrices`
    or `final` views.
    """
    imported = _imported(SRC / "diracbox" / "experiments.py")
    assert "gauge_transform" in imported  # the control: the walk sees the onebody imports
    assert imported.isdisjoint({"gauge_phase", "unitary_step", "chi_matrix", "gauge_identity_residual"})
    dense_views = {"matrices", "final"}
    assert dense_views <= _attributes(Path(__file__).parent / "test_onebody.py")  # the control: reads are seen
    readers = {path.name for path in (SRC / "diracbox").glob("*.py") if _attributes(path) & dense_views}
    assert readers <= {"onebody.py"}
