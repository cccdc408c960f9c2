"""What `import diracbox` loads."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_does_not_load_scipy_sparse_linalg():
    """The Fock stepper has its own exp(A)v kernel; scipy.sparse.linalg would add import time and memory."""
    code = (
        f"import sys; sys.path.insert(0, {str(SRC)!r}); import diracbox; "
        "print('scipy.sparse.linalg' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
