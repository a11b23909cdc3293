"""The data files agree across numpy's SIMD dispatch targets: integers exactly, floats within a stated bound.

A child process runs simulate and estimate at n = 4096 and a 20-rep rate-study over 2^9..2^13 once natively
and once with NPY_DISABLE_CPU_FEATURES naming every target this host dispatches above numpy's baseline, so
that numpy's float64 loops run their baseline code.  The variable acts on that child only.
"""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _targets_above_baseline() -> list:
    try:
        return list(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    except (TypeError, KeyError):  # a numpy that cannot report its dispatch
        return []


TARGETS = _targets_above_baseline()

# Each float must lie within BOUND times the largest float magnitude of its file.  Over master seeds 0, 1, 3, 7
# and 11, native (X86_V4) against baseline (X86_V2), the worst was 1.4e-15 (sample.csv's y, 5.3e-15 absolute;
# 1.8e-15 absolute was seen before); the summaries reached 3.3e-16.
BOUND = 8e-15

CONFIG = {
    "dgp": {
        "t": 1.0,
        "a": 0.5,
        "eta_sd": 0.5,
        "phi": {"family": "sobolev", "s": 1.0, "q": 2.0, "amplitude": 1.0, "k_support": 50},
        "g": {"coeffs": [1.0, 0.5]},
    },
    "master_seed": 3,
}
STUDIES = {
    "simulate": {"n_grid": [4096], "reps": 1},
    "estimate": {"n_grid": [4096], "reps": 1},
    "rate-study": {"n_grid": [2**9, 2**10, 2**11, 2**12, 2**13], "reps": 20},
}
CHILD = "import json, sys; from ivadapt.cli import main; sys.exit(any(main(a) for a in json.loads(sys.argv[1])))"


def _run(tmp_path: Path, side: str, disabled: str | None) -> dict:
    """Each study's output directory of one child process."""
    argvs, outs = [], {}
    for study, fields in STUDIES.items():
        config = tmp_path / f"{study}.json"
        config.write_text(json.dumps({**CONFIG, **fields, "study": study}))
        outs[study] = tmp_path / side / study
        argvs.append([study, "--config", str(config), "--out", str(outs[study]), "--jobs", "1"])
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if disabled:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    subprocess.run([sys.executable, "-c", CHILD, json.dumps(argvs)], env=env, check=True, timeout=600)
    return outs


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _values(path: Path):
    """The file's values in order, as ints, floats and strings; CSV cells and JSON leaves alike."""
    if path.suffix == ".csv":
        with path.open(newline="") as fh:
            return [_cell(cell) for row in csv.reader(fh) for cell in row]
    out = []

    def walk(node):
        if isinstance(node, dict):
            for name in sorted(node):
                out.append(name)
                walk(node[name])
        elif isinstance(node, list):
            out.append(len(node))
            for item in node:
                walk(item)
        else:
            out.append(node)

    walk(json.loads(path.read_text()))
    return out


def _assert_close(native, baseline, path):
    """Every int and string equal, and every float within BOUND of the file's largest float magnitude."""
    assert len(native) == len(baseline), path
    floats = [abs(v) for v in native + baseline if type(v) is float]
    tolerance = BOUND * max(floats, default=0.0)
    for a, b in zip(native, baseline):
        assert type(a) is type(b), (path, a, b)
        assert abs(a - b) <= tolerance if type(a) is float else a == b, (path, a, b, tolerance)


@pytest.mark.skipif(not TARGETS, reason="numpy dispatches no target above its baseline on this host")
def test_data_files_agree_across_dispatch_targets(tmp_path):
    native = _run(tmp_path, "native", None)
    baseline = _run(tmp_path, "baseline", " ".join(TARGETS))
    for study, out in baseline.items():
        # the child ran numpy's baseline loops: every target its manifest records is the baseline
        dispatch = json.loads((out / "manifest.json").read_text())["numpy"]["dispatch"]
        currents = [loop["current"] for func in (dispatch or {}).values() for loop in func.values()]
        assert all(current.startswith("baseline") for current in currents), currents
        files = sorted(p.name for p in out.iterdir() if p.name != "manifest.json")
        assert files == sorted(p.name for p in native[study].iterdir() if p.name != "manifest.json")
        for name in files:
            _assert_close(_values(native[study] / name), _values(out / name), f"{study}/{name}")
