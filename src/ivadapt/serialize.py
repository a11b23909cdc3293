"""Deterministic JSON and CSV emission shared across the package.

All floats are written in shortest round-trip form (Python repr), JSON
keys are sorted, and files use LF line endings, so identical inputs
yield byte-identical files.  CSV floats are formatted by orjson's
shortest round-trip writer, which gives repr's bytes for every value
in 1e-4 <= |v| < 1e16; every other float goes through repr itself.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import orjson

from .basis import _BLOCK_ROWS

__all__ = ["to_plain", "write_json", "write_csv"]


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


def write_json(path, payload) -> None:
    Path(path).write_bytes((json.dumps(to_plain(payload), sort_keys=True, indent=2) + "\n").encode("utf-8"))


def _float_cells(block) -> list:
    """Cells of a contiguous float64 block, each the bytes of repr(float(v))."""
    cells = orjson.dumps(block, option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].split(b",")
    # orjson writes 1e-05 as 0.00001, 1e+16 as 1e16 and nan or inf as null
    magnitude = np.abs(block)
    for i in np.flatnonzero(~((magnitude >= 1e-4) & (magnitude < 1e16))).tolist():
        cells[i] = repr(float(block[i])).encode()
    return cells


def _text_cells(block) -> list:
    return [str(v).encode("utf-8") for v in block.tolist()]


def write_csv(path, columns) -> None:
    """Write equal-length named columns, _BLOCK_ROWS rows at a time.

    Float columns are written as repr of their Python floats (shortest
    round trip), int and string columns with str.  Each float cell is
    repr's bytes, written by orjson's shortest round-trip writer; the
    cells outside 1e-4 <= |v| < 1e16, where orjson's form can differ
    from repr's (zero, nan and inf among them), go through repr.
    Columns of unequal length raise ValueError before the file is
    opened.  Rows are formatted and written one block at a time, so the
    formatted text of the whole file is never held in memory.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    lengths = {len(values) for values in arrays}
    if len(lengths) > 1:
        raise ValueError(f"columns of unequal length: {sorted(lengths)}")
    n = max(lengths, default=0)
    arrays = [np.ascontiguousarray(v, dtype=np.float64) if v.dtype.kind == "f" else v for v in arrays]
    formats = [_float_cells if values.dtype.kind == "f" else _text_cells for values in arrays]
    with open(path, "wb") as fh:
        fh.write(",".join(columns).encode("utf-8") + b"\n")
        for start in range(0, n, _BLOCK_ROWS):
            cells = [fmt(values[start : start + _BLOCK_ROWS]) for fmt, values in zip(formats, arrays)]
            fh.write(b"\n".join(map(b",".join, zip(*cells))) + b"\n")
