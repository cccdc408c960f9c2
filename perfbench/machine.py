"""Facts about the machine and interpreter a benchmark run was measured on.

Everything here is read only: /proc and /sys files, library versions and the
process environment.
"""

from __future__ import annotations

import os
import platform
from pathlib import Path

import numpy as np
import scipy


def _read(path: str) -> str | None:
    try:
        return Path(path).read_text()
    except OSError:
        return None


def _cpu_model() -> str | None:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or None


def _caches() -> dict[str, str]:
    """Unified/data cache sizes of cpu0 by level, e.g. {"L2": "2048K"}."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(str(index / f)) for f in ("level", "type", "size"))
        if level and size and kind and kind.strip() != "Instruction":
            out[f"L{level.strip()}"] = size.strip()
    return out


def _blas() -> str:
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def loadavg() -> list[float] | None:
    text = _read("/proc/loadavg")
    return [float(x) for x in text.split()[:3]] if text else None


def facts(thread_vars) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ.get(k) for k in thread_vars},
    }
