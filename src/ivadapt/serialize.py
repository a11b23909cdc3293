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

from .basis import _BLOCK_ROWS

__all__ = ["to_plain", "dumps", "write_json", "write_csv"]


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


def write_csv(path, columns) -> None:
    """Write equal-length named columns, _BLOCK_ROWS rows at a time.

    Float columns are written as repr of their Python floats (shortest
    round trip), int and string columns with str.  Columns of unequal
    length raise ValueError before the file is opened.  Rows are
    formatted and written one block at a time, so the formatted text of
    the whole file is never held in memory.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    lengths = {len(values) for values in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)}")
    n = max(lengths, default=0)
    formats = [repr if values.dtype.kind == "f" else str for values in arrays]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(columns) + "\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [map(fmt, values[start : start + _BLOCK_ROWS].tolist()) for fmt, values in zip(formats, arrays)]
            fh.write("".join(",".join(row) + "\n" for row in zip(*cells)))
