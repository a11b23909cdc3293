import math
import tracemalloc

import numpy as np
import pytest

from ivadapt import CoefficientVector, DgpSpec
from ivadapt.serialize import to_plain, write_csv

FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1 + 0.2]


def test_write_csv_formats_ints_strings_and_round_trip_floats(tmp_path):
    ints = np.arange(-2, 4)
    names = ["a", "b", "c", "d", "e", "f"]
    path = tmp_path / "table.csv"
    write_csv(path, {"k": ints, "name": names, "value": np.array(FLOATS), "listed": FLOATS})
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "k,name,value,listed"
    assert lines[-1] == ""
    for line, k, name, v in zip(lines[1:-1], ints.tolist(), names, FLOATS, strict=True):
        assert line == f"{str(k)},{str(name)},{repr(v)},{repr(v)}"
    assert lines[1:-1][3].endswith(",-0.0,-0.0")
    assert lines[1:-1][5].endswith(",0.30000000000000004,0.30000000000000004")


def test_write_csv_header_only_for_empty_columns(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, {"k": np.arange(1, 1), "coefficient": np.empty(0)})
    assert path.read_bytes() == b"k,coefficient\n"


def test_write_csv_rejects_unequal_columns(tmp_path):
    path = tmp_path / "bad.csv"
    with pytest.raises(ValueError):
        write_csv(path, {"a": [1, 2, 3], "b": [0.5, 1.5]})
    with pytest.raises(ValueError):
        write_csv(path, {"a": [1.0], "b": ["x", "y"]})
    assert not path.exists()


def _one_shot_csv(columns) -> bytes:
    cells = [map(repr if np.asarray(v).dtype.kind == "f" else str, np.asarray(v).tolist()) for v in columns.values()]
    lines = [",".join(columns), *map(",".join, zip(*cells, strict=True))]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("n", [0, 1, 8192, 8193, 3 * 8192 + 1])
def test_write_csv_streams_the_one_shot_bytes(tmp_path, n):
    rng = np.random.default_rng(n)
    columns = {
        "k": np.arange(1, n + 1),
        "value": rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n),
        "name": [f"row{i}" for i in range(n)],
    }
    path = tmp_path / "rows.csv"
    write_csv(path, columns)
    assert path.read_bytes() == _one_shot_csv(columns)


def test_write_csv_peak_memory(tmp_path):
    # a 2^18-row sample.csv: one block of formatted rows at a time
    # (the one-shot join peaks at 58 MiB)
    rng = np.random.default_rng(3)
    columns = {name: rng.random(1 << 18) for name in ("y", "x", "w")}
    tracemalloc.start()
    try:
        write_csv(tmp_path / "sample.csv", columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_write_csv_float_cells_are_repr_at_the_boundaries_of_the_fixed_form(tmp_path):
    # orjson's form differs from repr's below 1e-4, from 1e16 and for nan or
    # inf; the cells on both sides of each switch must still be repr's bytes
    edges = np.array([1e-4, 1e16])
    edges = np.concatenate([edges, -edges])
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64)
    info = np.finfo(np.float64)
    values = np.concatenate([
        edges,
        np.nextafter(edges, np.inf),
        np.nextafter(edges, -np.inf),
        [0.0, -0.0, 5e-324, info.tiny, info.max, math.nan, math.inf, -math.inf],
        bits[np.isfinite(bits)],
    ])
    with np.errstate(over="ignore"):  # the largest doubles overflow float32 to inf
        columns = {"value": values, "single": values.astype(np.float32)}
    path = tmp_path / "edges.csv"
    write_csv(path, columns)
    lines = path.read_bytes().decode("utf-8").split("\n")
    assert lines[0] == "value,single" and lines[-1] == ""
    expected = [f"{repr(v)},{repr(s)}" for v, s in zip(values.tolist(), columns["single"].tolist(), strict=True)]
    assert lines[1:-1] == expected


def test_to_plain_encodes_a_dgp_spec_as_plain_floats():
    spec = DgpSpec(
        t=1.5,
        phi=CoefficientVector(np.array([0.25, -0.0, 3.0])),
        g=CoefficientVector([np.float64(1.0)]),
        a=0.5,
        eta_sd=0.0,
    )
    plain = to_plain(spec)
    assert plain == {
        "t": 1.5,
        "a": 0.5,
        "eta_sd": 0.0,
        "phi": {"coeffs": [0.25, -0.0, 3.0]},
        "g": {"coeffs": [1.0]},
    }
    assert all(type(v) is float for v in plain["phi"]["coeffs"] + plain["g"]["coeffs"])
    assert math.copysign(1.0, plain["phi"]["coeffs"][1]) == -1.0
