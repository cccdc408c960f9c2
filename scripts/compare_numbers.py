#!/usr/bin/env python3
"""How far the numbers moved between two output directories.

For every CSV and JSON file under DIR_A whose bytes differ from the file of
the same relative path under DIR_B, print the largest absolute and relative
deviation of each numeric CSV column or JSON value that moved, and each
non-numeric value that changed.  The relative deviation of a pair (a, b) is
|a - b| / max(|a|, |b|).  JSON lists of objects with a "name" (the checks)
are keyed by that name.

With --floor PATH (a file written by `relabel_floor.py N --json PATH` on the
revision of DIR_A) each moved number also shows its floor, the largest
absolute move that relabelling the modes alone caused, and the ratio
move/floor.

Usage: scripts/compare_numbers.py DIR_A DIR_B [--floor PATH]
Exit status: 0, also when numbers moved (the caller decides what counts);
2 on a usage error.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from pathlib import Path


def _flatten(value, prefix: str = "") -> dict[str, object]:
    """JSON leaves by dotted path; named objects in a list keyed by their name."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        named = all(isinstance(v, dict) and "name" in v for v in value)
        items = ((f"[{v['name']}]" if named else f"[{i}]", v) for i, v in enumerate(value))
    else:
        return {prefix: value}
    out: dict[str, object] = {}
    for key, item in items:
        path = f"{prefix}{key}" if key.startswith("[") or not prefix else f"{prefix}.{key}"
        out.update(_flatten(item, path))
    return out


def _csv_columns(path: Path) -> dict[str, list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        return {}
    header, body = rows[0], rows[1:]
    return {name: [row[i] if i < len(row) else "" for row in body] for i, name in enumerate(header)}


def _number(value) -> float | None:
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    try:
        return float(value)
    except (TypeError, ValueError):
        return None


def _deviation(a: float, b: float) -> tuple[float, float]:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0, 0.0
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def columns(path: Path) -> dict[str, list]:
    """A CSV file's columns by header name, or a JSON file's values by dotted path."""
    if path.suffix == ".csv":
        return _csv_columns(path)
    return {k: [v] for k, v in _flatten(json.loads(path.read_text())).items()}


def deviation(values_a: list, values_b: list) -> tuple[float, float, list[str]]:
    """Largest absolute and relative deviation of the numeric pairs, and each other change.

    The two lists must be of one length.
    """
    worst_abs = worst_rel = 0.0
    changed = []
    for a, b in zip(values_a, values_b, strict=True):
        x, y = _number(a), _number(b)
        if x is None or y is None:
            if a != b:
                changed.append(f"{a!r} -> {b!r}")
            continue
        dev_abs, dev_rel = _deviation(x, y)
        worst_abs, worst_rel = max(worst_abs, dev_abs), max(worst_rel, dev_rel)
    return worst_abs, worst_rel, changed


def _compare(values_a: list, values_b: list, floor: dict | None) -> str | None:
    """One line for a column or value that moved, None if it did not.

    `floor` is the number's entry of a relabelling floor table ({"abs": ..}),
    None for no floor column; {} marks a number the table lacks.
    """
    if len(values_a) != len(values_b):
        return f"{len(values_a)} -> {len(values_b)} values"
    worst_abs, worst_rel, changed = deviation(values_a, values_b)
    if changed:
        return "changed " + ", ".join(changed[:3]) + (" ..." if len(changed) > 3 else "")
    if worst_abs == 0.0:
        return None
    line = f"abs {worst_abs:.3e}  rel {worst_rel:.3e}"
    if floor is None:
        return line
    if "abs" not in floor:
        return f"{line}  floor ?"
    if floor["abs"] == 0.0:
        return f"{line}  floor 0"
    return f"{line}  floor {floor['abs']:.3e}  {worst_abs / floor['abs']:.2f}x"


def compare_file(path_a: Path, path_b: Path, floor: dict | None = None) -> list[tuple[str, str]]:
    """(column or metric, deviation line) for each that moved; `floor`: the file's floor table."""
    cols_a, cols_b = columns(path_a), columns(path_b)
    out = []
    for key in sorted(set(cols_a) | set(cols_b)):
        if key not in cols_a or key not in cols_b:
            out.append((key, "only in " + ("DIR_A" if key in cols_a else "DIR_B")))
            continue
        line = _compare(cols_a[key], cols_b[key], None if floor is None else floor.get(key, {}))
        if line is not None:
            out.append((key, line))
    return out


def main(argv: list[str]) -> int:
    floors = None
    if len(argv) == 4 and argv[2] == "--floor":
        floors = json.loads(Path(argv[3]).read_text())["floor"]
        argv = argv[:2]
    if len(argv) != 2:
        print("usage: scripts/compare_numbers.py DIR_A DIR_B [--floor PATH]", file=sys.stderr)
        return 2
    dir_a, dir_b = map(Path, argv)
    for path_a in sorted(p for p in dir_a.rglob("*") if p.suffix in (".csv", ".json")):
        rel = path_a.relative_to(dir_a)
        path_b = dir_b / rel
        if not path_b.is_file():
            print(f"{rel}: only in DIR_A")
            continue
        if path_a.read_bytes() == path_b.read_bytes():
            continue
        print(rel)
        rows = compare_file(path_a, path_b, None if floors is None else floors.get(rel.as_posix(), {}))
        width = max((len(key) for key, _ in rows), default=0)
        for key, line in rows:
            print(f"  {key:<{width}}  {line}")
    for path_b in sorted(p for p in dir_b.rglob("*") if p.suffix in (".csv", ".json")):
        if not (dir_a / path_b.relative_to(dir_b)).is_file():
            print(f"{path_b.relative_to(dir_b)}: only in DIR_B")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
