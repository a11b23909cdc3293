"""The benchmark's tracer rebinds public names of ivadapt by attribute.

A refactor that drops one of those names (for example an import that
looks unused) would only fail under ``ivbench/run.py --trace 1``; this
test makes it fail here.  The same holds for the basis cells the scan
requests, from which the tracer derives how many indices it scanned.
"""

from pathlib import Path

import pytest

import ivadapt
import ivadapt.cli  # noqa: F401  (the tracer rebinds names in the CLI module too)
from ivadapt import DgpSpec, estimator, generate_sample
from ivadapt.dgp import _chunks

IVBENCH = Path(__file__).resolve().parents[1] / "ivbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(IVBENCH))
    import layers

    bindings = layers.StudyTrace().bindings(ivadapt)
    assert bindings
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in bindings if not hasattr(owner, name)]
    assert missing == []


@pytest.mark.parametrize("n", [200, 5000, _chunks(1 << 21, estimator._SCAN_BLOCK)[0].stop + 1])
def test_scan_requests_two_n_cells_per_scanned_index(monkeypatch, n):
    cells = []
    basis_matrix = estimator.basis_matrix

    def counting(x, ks):
        out = basis_matrix(x, ks)
        cells.append(out.size)
        return out

    monkeypatch.setattr(estimator, "basis_matrix", counting)
    sample = generate_sample(DgpSpec.default(), n, seed=n)
    resolution = estimator.estimate_resolution(sample)
    block = estimator._SCAN_BLOCK
    # every block up to and including the one holding the crossing
    assert sum(cells) == 2 * n * block * (resolution // block + 1)
