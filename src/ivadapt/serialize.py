"""Deterministic JSON and CSV emission shared across the package.

All floats are written in shortest round-trip form (Python repr), JSON
keys are sorted, and files use LF line endings, so identical inputs
yield byte-identical files.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np

__all__ = ["to_plain", "dumps", "write_json", "write_csv", "format_value"]


def to_plain(obj):
    """Recursively convert numpy scalars/arrays and dataclasses to plain types."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [to_plain(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [to_plain(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): to_plain(v) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return to_plain(dataclasses.asdict(obj))
    return obj


def dumps(payload) -> str:
    return json.dumps(to_plain(payload), sort_keys=True, indent=2)


def write_json(path, payload) -> None:
    Path(path).write_bytes((dumps(payload) + "\n").encode("utf-8"))


def format_value(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_csv(path, header, rows) -> None:
    lines = [",".join(header)]
    lines += (",".join(map(format_value, row)) for row in rows)
    Path(path).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _float_rows(*columns):
    """Rows of already formatted cells from equal-length float columns.

    Same text as format_value gives each float, but formatted column by
    column from Python floats rather than one numpy scalar at a time.
    """
    return zip(*(map(repr, np.asarray(c, dtype=np.float64).tolist()) for c in columns))
