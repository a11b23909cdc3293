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
from ivadapt import DgpSpec, dgp, estimator, generate_sample

IVBENCH = Path(__file__).resolve().parents[1] / "ivbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(IVBENCH))
    import layers

    bindings = layers.StudyTrace().bindings(ivadapt)
    assert bindings
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in bindings if not hasattr(owner, name)]
    assert missing == []


@pytest.mark.parametrize("n", [200, 5000, estimator._chunks(1 << 21)[0].stop + 1])
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


def _count_cells(monkeypatch):
    """Sizes of every basis_matrix result the estimator and dgp modules request."""
    cells = []
    for module in (estimator, dgp):
        basis_matrix = module.basis_matrix

        def counting(x, ks, basis_matrix=basis_matrix):
            out = basis_matrix(x, ks)
            cells.append(out.size)
            return out

        monkeypatch.setattr(module, "basis_matrix", counting)
    return cells


@pytest.mark.parametrize("n", [200, 5000, estimator._chunks(1 << 21)[0].stop + 1])
def test_estimate_requests_only_the_scan_cells(monkeypatch, n):
    # the moments come from the scan's blocks: no second pass builds psi_k(W)
    cells = _count_cells(monkeypatch)
    sample = generate_sample(DgpSpec.default(), n, seed=n)
    report = estimator.adaptive_estimate(sample)
    block = estimator._SCAN_BLOCK
    assert not report.cap_reached
    assert sum(cells) == 2 * n * block * (report.resolution // block + 1)


@pytest.mark.parametrize("K", [0, 1, 16, 19])
@pytest.mark.parametrize("name, tables", [("estimate_eigenvalues", 2), ("estimate_r_coeffs", 1), ("estimate_sigma_sq", 1)])
def test_standalone_estimates_request_only_k_columns(monkeypatch, name, tables, K):
    # the last block is cut at K, so each table has K columns in all; the
    # eigenvalues need psi(X) and psi(W), the moments psi(W) alone
    sample = generate_sample(DgpSpec.default(), 300, seed=K)
    cells = _count_cells(monkeypatch)
    assert getattr(estimator, name)(sample, K).shape == (K,)
    assert sum(cells) == tables * sample.n * K
