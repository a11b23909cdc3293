"""The benchmark's tracer rebinds public names of ivadapt by attribute.

A refactor that drops one of those names (for example an import that
looks unused) would only fail under ``ivbench/run.py --trace 1``; this
test makes it fail here.  The same holds for the basis cells the scan
requests, from which the tracer derives how many indices it scanned.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import ivadapt
import ivadapt.cli  # noqa: F401  (the tracer rebinds names in the CLI module too)
from ivadapt import CoefficientVector, DgpSpec, IvSample, basis, dgp, estimator, generate_sample, risk

IVBENCH = Path(__file__).resolve().parents[1] / "ivbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(IVBENCH))
    import layers

    bindings = layers.StudyTrace().bindings(ivadapt)
    assert bindings
    missing = [f"{getattr(owner, '__name__', owner)}.{name}" for owner, name, _ in bindings if not hasattr(owner, name)]
    assert missing == []


@pytest.mark.parametrize(
    "workload, n_grid, reps",
    [("single-large", (600,), 1), ("coverage-par", (300, 1000), 3), ("rate-ref", (64, 128, 256, 640), 2)],
    ids=["single-large", "coverage-par", "rate-ref"],
)
def test_traced_study_runs_clean_and_moves_every_exercised_counter(monkeypatch, tmp_path, workload, n_grid, reps):
    # the whole traced path in-process, as ivbench/run.py runs a unit: each
    # study of the workload under its own StudyTrace, then the stage pass,
    # which calls estimate_sigma_sq, penalized_criterion, select_level and
    # EstimatorConfig.resolution_cap, names the study itself need not call;
    # the counters are summed over the unit's studies
    monkeypatch.syspath_prepend(str(IVBENCH))
    import layers
    import workloads

    monkeypatch.setattr(risk, "_SIGMA_CACHE", {})  # a cache hit would leave the oracle's draws at 0
    tiny = dataclasses.replace(workloads.WORKLOADS[workload], n_grid=n_grid, reps=reps)
    totals = {}
    for study in tiny.studies:
        config = tmp_path / f"{study}.json"
        config.write_text(json.dumps(workloads.study_config(tiny, study, 3, tmp_path / study)))
        trace = layers.StudyTrace()
        code, problems = trace.run(ivadapt, [study, "--config", str(config), "--jobs", "1"])
        assert (code, problems) == (0, []), study
        for name, value in trace.totals().items():
            totals[name] = totals.get(name, 0) + value
    assert [name for name in tiny.exercised if not totals[name] > 0] == []


@pytest.mark.parametrize(
    "name, extra", [("oracle_level", ()), ("restricted_oracle_level", (3,)), ("min_penalized_risk", ()),
                    ("truncation_remainder", ())]
)
def test_oracle_functions_evaluate_the_risk_through_its_public_names(monkeypatch, name, extra):
    # the tracer counts calls through risk.risk_naive and risk.risk_penalized
    # as risk.risk_evals, which a traced rate-ref unit requires to be above 0
    calls = []
    for attr in ("risk_naive", "risk_penalized"):
        def counting(*args, fn=getattr(risk, attr), **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        monkeypatch.setattr(risk, attr, counting)
    phi = CoefficientVector(2.0 * np.arange(1, 31) ** -0.6)
    getattr(risk, name)(phi, 1.0, np.ones(80), 100, *extra)
    assert calls


def _counting(monkeypatch, module, name, calls, **override):
    """Wrap module.name so each call is recorded in calls; override fixes keyword arguments."""
    fn = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(f"{module.__name__.split('.')[-1]}.{name}")
        return fn(*args, **{**kwargs, **override})

    monkeypatch.setattr(module, name, counting)


def test_sigma_oracle_draws_its_sample_through_the_dgp_module(monkeypatch):
    # the tracer counts dgp.sigma_sq_profile.draws only through dgp.generate_sample,
    # and counts every call of risk.generate_sample as a replication
    calls = []
    _counting(monkeypatch, dgp, "generate_sample", calls)
    _counting(monkeypatch, risk, "generate_sample", calls)
    monkeypatch.setattr(risk, "_SIGMA_CACHE", {})  # no earlier call can hide the draw
    spec = DgpSpec(t=1.0, phi=CoefficientVector([0.3, 0.2]), g=CoefficientVector([1.0]), a=0.25, eta_sd=0.7)
    risk.sigma_sq_profile(spec, 4, n_draws=1_000)
    assert calls == ["dgp.generate_sample"]


def test_a_rate_study_reads_the_oracle_through_the_risk_module(monkeypatch):
    # the tracer times these two by their names in risk (risk.oracle_levels, dgp.sigma_sq_profile)
    calls = []
    _counting(monkeypatch, risk, "sigma_sq_profile", calls, n_draws=2_000)
    _counting(monkeypatch, risk, "oracle_level", calls)
    result = risk.oracle_ratio_study(DgpSpec.default(), estimator.EstimatorConfig(), [64], 2, master_seed=5)
    assert calls == ["risk.sigma_sq_profile", "risk.oracle_level"]
    assert result.oracle_levels[0] >= 0
    # a rate study reads the oracle once for its whole grid and each oracle level once per n
    calls.clear()
    risk.oracle_ratio_study(DgpSpec.default(), estimator.EstimatorConfig(), [64, 128], 2, master_seed=5)
    assert calls == ["risk.sigma_sq_profile", "risk.oracle_level", "risk.oracle_level"]


@pytest.mark.parametrize("n", [200, 5000, estimator._chunks(1 << 21)[0].stop + 2])
def test_scan_requests_two_n_cells_per_scanned_index(monkeypatch, n):
    cells = []
    basis_matrix = estimator.basis_matrix

    def counting(x, ks, **kwargs):
        out = basis_matrix(x, ks, **kwargs)
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

        def counting(x, ks, basis_matrix=basis_matrix, **kwargs):
            out = basis_matrix(x, ks, **kwargs)
            cells.append(out.size)
            return out

        monkeypatch.setattr(module, "basis_matrix", counting)
    return cells


@pytest.mark.parametrize("n", [200, 5000, estimator._chunks(1 << 21)[0].stop + 2])
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


def _count_rotated_points(monkeypatch):
    """Sizes of every exp(2 pi i x) evaluated, by the sampler (dgp, basis) and by the estimator."""
    points = []
    cis = basis._cis

    def counting(x):
        points.append(x.size)
        return cis(x)

    for module in (basis, dgp, estimator):
        monkeypatch.setattr(module, "_cis", counting)
    return points


def _t05_sample(n, arrays):
    sample = generate_sample(dataclasses.replace(DgpSpec.default(), t=0.5), n, seed=n)
    return IvSample(y=sample.y, x=sample.x, w=sample.w) if arrays else sample


@pytest.mark.parametrize("n", [5000, estimator._chunks(1 << 21)[0].stop + 2])
@pytest.mark.parametrize("name", ["adaptive_estimate", "estimate_resolution"])
def test_scan_rotates_each_point_once(monkeypatch, name, n):
    # one replication rotates X and W once: the scan slices the rotations
    # the sampler made, however many index blocks it walks; at t = 0.5 it
    # walks 7 or more
    points = _count_rotated_points(monkeypatch)
    result = getattr(estimator, name)(_t05_sample(n, arrays=False))
    assert sum(points) == 2 * n
    assert getattr(result, "resolution", result) >= 6 * estimator._SCAN_BLOCK


@pytest.mark.parametrize("n", [5000, estimator._chunks(1 << 21)[0].stop + 2])
@pytest.mark.parametrize("name", ["adaptive_estimate", "estimate_resolution"])
def test_scan_rotates_an_array_built_sample_once_per_call(monkeypatch, name, n):
    sample = _t05_sample(n, arrays=True)
    points = _count_rotated_points(monkeypatch)
    getattr(estimator, name)(sample)
    assert sum(points) == 2 * n


@pytest.mark.parametrize("name", ["adaptive_estimate", "estimate_resolution"])
def test_sample_above_the_cut_is_rotated_by_sampler_and_scan(monkeypatch, name):
    # above dgp._KEEP_ROTATIONS_UPTO the sample keeps no rotations: the
    # sampler and the scan each rotate X and W
    n = dgp._KEEP_ROTATIONS_UPTO + 1
    points = _count_rotated_points(monkeypatch)
    sample = generate_sample(DgpSpec.default(), n, seed=n)
    assert sample._rotations is None
    getattr(estimator, name)(sample)
    assert sum(points) == 4 * n


@pytest.mark.parametrize("K, rotated", [(40, 1), (0, 0)])
def test_moments_rotate_only_w_once(monkeypatch, K, rotated):
    drawn = generate_sample(DgpSpec.default(), 300, seed=K)
    sample = IvSample(y=drawn.y, x=drawn.x, w=drawn.w)
    points = _count_rotated_points(monkeypatch)
    assert estimator.estimate_sigma_sq(sample, K).shape == (K,)
    assert sum(points) == rotated * sample.n
    # a drawn sample brings its rotations along
    assert estimator.estimate_sigma_sq(drawn, K).tobytes() == estimator.estimate_sigma_sq(sample, K).tobytes()
    assert sum(points) == 2 * rotated * sample.n
