import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ivadapt import (
    ORACLE_SCAN_BUFFER,
    CoefficientVector,
    DegenerateFitError,
    DgpSpec,
    EstimatorConfig,
    RiskCurve,
    coverage_study,
    deterministic_resolution_bounds,
    min_penalized_risk,
    oracle_level,
    oracle_ratio_study,
    oracle_summary,
    parseval_sq_distance,
    rate_fit,
    replication_losses,
    restricted_oracle_level,
    risk_naive,
    risk_penalized,
    truncation_remainder,
    true_eigenvalue,
)
from ivadapt.risk import _clopper_pearson, _map_payloads

ONES = np.ones(600)


def test_risk_naive_values():
    zero = CoefficientVector.zero()
    assert risk_naive(zero, 1.0, ONES, 100, 0) == 0.0
    # pure variance: strictly increasing in m, so the oracle level is 0
    values = [risk_naive(zero, 1.0, ONES, 100, m) for m in range(6)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert oracle_level(zero, 1.0, ONES, 100) == 0

    phi = CoefficientVector([1.0])
    assert risk_naive(phi, 1.0, ONES, 100, 1) == pytest.approx(0.04)
    assert risk_naive(phi, 1.0, ONES, 100, 0) == pytest.approx(1.0)
    assert oracle_level(phi, 1.0, ONES, 100) == 1


def test_risk_naive_telescoping():
    rng = np.random.default_rng(1)
    phi = CoefficientVector(rng.standard_normal(12))
    sig = rng.random(600) + 0.5
    n = 500
    for m in range(1, 15):
        delta = risk_naive(phi, 1.0, sig, n, m) - risk_naive(phi, 1.0, sig, n, m - 1)
        lam = true_eigenvalue(m, 1.0)
        expected = -phi.coeff(m) ** 2 + sig[m - 1] / lam**2 / n
        assert delta == pytest.approx(expected, rel=1e-9, abs=1e-12)


def test_oracle_level_matches_brute_force_scan():
    rng = np.random.default_rng(2)
    sig = rng.random(600) + 0.5
    for seed in range(5):
        coeffs = np.random.default_rng(seed).standard_normal(30) * (np.arange(1, 31) ** -1.0)
        phi = CoefficientVector(coeffs)
        for n in (50, 500, 5000):
            values = [risk_naive(phi, 1.0, sig, n, m) for m in range(501)]
            brute = int(np.argmin(values))
            assert oracle_level(phi, 1.0, sig, n) == brute


def test_oracle_level_requires_sigma_coverage():
    phi = CoefficientVector(np.ones(30))
    with pytest.raises(ValueError):
        oracle_level(phi, 1.0, np.ones(10), 100)


def test_restricted_oracle_level():
    phi = CoefficientVector([1.0])
    assert restricted_oracle_level(phi, 1.0, ONES, 100, 5) == 1  # within range
    assert restricted_oracle_level(phi, 1.0, ONES, 100, 0) == 0
    # risk decreasing up to the oracle: the constrained argmin sits at the cap
    heavy = CoefficientVector([1.0, 1.0, 1.0])
    assert oracle_level(heavy, 1.0, ONES, 1000) == 3
    assert restricted_oracle_level(heavy, 1.0, ONES, 1000, 2) == 2


def test_risk_penalized_dominates_naive():
    phi = CoefficientVector([1.0, 0.3])
    for n in (3, 10, 100):
        for m in range(4):
            penalized = risk_penalized(phi, 1.0, ONES, n, m)
            naive = risk_naive(phi, 1.0, ONES, n, m)
            if m == 0:
                assert penalized == naive
            else:
                assert penalized > naive
    got = risk_penalized(CoefficientVector([1.0]), 1.0, ONES, 100, 1)
    assert got == pytest.approx(math.log(100) ** 2 / 100 * 4.0, abs=1e-12)


def test_min_penalized_risk_matches_scan():
    phi = CoefficientVector([1.0, 0.5, 0.25])
    m_best, value = min_penalized_risk(phi, 1.0, ONES, 400)
    values = [risk_penalized(phi, 1.0, ONES, 400, m) for m in range(phi.support + ORACLE_SCAN_BUFFER + 1)]
    assert m_best == int(np.argmin(values))
    assert value == pytest.approx(min(values))


def test_truncation_remainder_zero_cases():
    # strong signal, large n: the lower bound reaches past the oracle level
    phi = CoefficientVector([1.0])
    assert truncation_remainder(phi, 1.0, ONES, 10**6) == 0.0
    assert truncation_remainder(CoefficientVector.zero(), 1.0, ONES, 100) == 0.0


def test_truncation_remainder_positive_case():
    # tiny n with a slowly decaying function: the oracle outruns the bound
    phi = CoefficientVector(2.0 * (np.arange(1, 31) ** -0.6))
    n = 100
    m0 = oracle_level(phi, 1.0, ONES, n)
    lower, _ = deterministic_resolution_bounds(1.0, n)
    assert lower < m0
    got = truncation_remainder(phi, 1.0, ONES, n)
    expected = 0.0
    for k in range(max(lower, 1), m0 + 1):
        lam = true_eigenvalue(k, 1.0)
        expected += phi.coeff(k) ** 2 + 1.0 / lam**2 / n
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_loss_is_parseval_distance():
    a = CoefficientVector([1.0, 2.0])
    b = CoefficientVector([1.0])
    assert parseval_sq_distance(a, b) == 4.0


def test_mc_risk_pure_noise():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=0.1)
    batch = replication_losses(spec, EstimatorConfig(), 256, 50, master_seed=31)
    assert np.mean(batch.adaptive_loss) < 0.01
    assert np.mean(batch.m_selected == 0) >= 0.9


def mc_risk(batch):
    """Monte Carlo mean and standard error of the adaptive squared loss."""
    losses = batch.adaptive_loss
    return float(np.mean(losses)), float(np.std(losses, ddof=1) / math.sqrt(losses.size))


def test_mc_risk_deterministic():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    a = mc_risk(replication_losses(spec, config, 2048, 10, master_seed=32))
    b = mc_risk(replication_losses(spec, config, 2048, 10, master_seed=32))
    assert a == b
    c = mc_risk(replication_losses(spec, config, 2048, 10, master_seed=33))
    assert a != c


def test_mc_risk_matches_parallel_execution():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    seq = replication_losses(spec, config, 512, 8, master_seed=34, jobs=1)
    par = replication_losses(spec, config, 512, 8, master_seed=34, jobs=2)
    assert np.array_equal(seq.adaptive_loss, par.adaptive_loss)
    assert np.array_equal(seq.naive_loss, par.naive_loss)
    assert np.array_equal(seq.m_selected, par.m_selected)


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in this process."""

    made = []

    def __init__(self, max_workers):
        self.max_workers = max_workers
        self.made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        self.chunksize = chunksize
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, payloads, cores, workers",
    [(100_000, 5, 8, 5), (3, 10, 8, 3), (100_000, 10, 4, 4), (4, 1, 8, None), (100_000, 10, None, None)],
)
def test_map_payloads_clamps_workers(monkeypatch, jobs, payloads, cores, workers):
    # never starts a real pool: jobs this large would fork that many processes
    import concurrent.futures

    _RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cores)
    assert _map_payloads(abs, list(range(-payloads, 0)), jobs) == list(range(payloads, 0, -1))
    assert [pool.max_workers for pool in _RecordingPool.made] == ([] if workers is None else [workers])
    if workers is not None:
        assert _RecordingPool.made[0].chunksize == max(1, payloads // (workers * 4))


def test_mc_risk_stderr_scales_with_replications():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    _, se_100 = mc_risk(replication_losses(spec, config, 2048, 100, master_seed=35))
    _, se_400 = mc_risk(replication_losses(spec, config, 2048, 400, master_seed=35))
    assert se_400 < 0.6 * se_100


def test_oracle_ratio_study_structure():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    grid = [256, 512, 1024]
    result = oracle_ratio_study(spec, config, grid, 10, master_seed=36)
    assert np.array_equal(result.curve.n_grid, grid)
    assert np.all(result.ratio > 0)
    assert np.all(np.isfinite(result.ratio))
    assert result.curve.reps == 10
    # pointwise agreement with a standalone replication batch (same streams)
    mean, stderr = mc_risk(replication_losses(spec, config, 512, 10, master_seed=36))
    assert result.curve.mean_loss[1] == mean
    assert result.curve.stderr[1] == stderr
    with pytest.raises(ValueError):
        oracle_ratio_study(spec, config, [512, 512], 10, master_seed=36)


def test_dropping_log_penalty_degrades_large_n_ratio():
    # without the log factor the contrast keeps too many noisy levels
    spec = DgpSpec.default()
    grid = [1024, 8192]
    default = oracle_ratio_study(spec, EstimatorConfig(), grid, 40, master_seed=555)
    flat = oracle_ratio_study(
        spec, EstimatorConfig(penalty_log_exponent=0.0), grid, 40, master_seed=555
    )
    assert flat.ratio[-1] > 1.5 * default.ratio[-1]


def test_rate_fit_recovers_exact_power_law():
    n_grid = np.array([2**e for e in range(9, 16)])
    gamma = 6.0
    x = n_grid / np.log(n_grid) ** (2 * gamma)
    for slope in (-0.4, -4.0 / 7.0):
        curve = RiskCurve(
            n_grid=n_grid,
            mean_loss=3.0 * x**slope,
            stderr=np.zeros(n_grid.size),
            oracle_risk=np.ones(n_grid.size),
            reps=10,
        )
        fit = rate_fit(curve, s=1.0, t=1.0)
        assert fit.fitted_slope == pytest.approx(slope, abs=1e-12)
    fit = rate_fit(curve, s=1.0, t=1.0)
    assert fit.expected_slope == pytest.approx(-0.4)
    assert fit.gamma == 6.0
    assert rate_fit(curve, s=2.0, t=1.0).expected_slope == pytest.approx(-4.0 / 7.0)


def test_rate_fit_rejects_degenerate_grids():
    def curve_for(ns):
        ns = np.asarray(ns)
        return RiskCurve(
            n_grid=ns,
            mean_loss=np.ones(ns.size),
            stderr=np.zeros(ns.size),
            oracle_risk=np.ones(ns.size),
            reps=2,
        )

    with pytest.raises(DegenerateFitError):
        rate_fit(curve_for([]), s=1.0, t=1.0)
    with pytest.raises(DegenerateFitError):
        rate_fit(curve_for([100, 200, 400]), s=1.0, t=1.0)
    with pytest.raises(DegenerateFitError):
        rate_fit(curve_for([100, 200, 400, 800]), s=1.0, t=1.0)


def test_risk_curve_validation():
    with pytest.raises(ValueError):
        RiskCurve(
            n_grid=[10, 20],
            mean_loss=[1.0],
            stderr=[0.1, 0.1],
            oracle_risk=[1.0, 1.0],
            reps=2,
        )
    with pytest.raises(ValueError):
        RiskCurve(
            n_grid=[10],
            mean_loss=[0.0],
            stderr=[0.1],
            oracle_risk=[1.0],
            reps=2,
        )


def test_coverage_study_basics():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    result = coverage_study(spec, config, 1000, 100, master_seed=37)
    assert 0.0 <= result.fraction <= 1.0
    assert result.ci_low <= result.fraction <= result.ci_high
    assert result.fraction >= 0.9
    assert result.hits <= result.reps
    assert result.lower_bound <= result.upper_bound
    again = coverage_study(spec, config, 1000, 100, master_seed=37)
    assert again == result


def test_oracle_summary_consistency():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    summary = oracle_summary(spec, config, 2048, master_seed=38)
    assert summary.restricted_oracle_m <= summary.resolution or summary.resolution == 0
    assert summary.restricted_oracle_m <= summary.oracle_m
    assert summary.risk_values[summary.oracle_m] == summary.risk_values.min()
    assert summary.lower_bound <= summary.upper_bound
    assert summary.remainder >= 0.0


def test_clopper_pearson_matches_beta_quantiles():
    from scipy.stats import beta

    alpha = 0.05
    cases = [(h, r) for r in range(1, 61) for h in range(r + 1)]
    cases += [(h, r) for r in (100, 500) for h in sorted({*range(0, r + 1, 7), r - 1, r})]
    for h, r in cases:
        low, high = _clopper_pearson(h, r)
        old_low = 0.0 if h == 0 else float(beta.ppf(alpha / 2, h, r - h + 1))
        old_high = 1.0 if h == r else float(beta.ppf(1 - alpha / 2, h + 1, r - h))
        assert (low, high) == (old_low, old_high), (h, r)
        assert low <= h / r <= high
        if h == r:
            assert low == pytest.approx((alpha / 2) ** (1 / r), rel=1e-12, abs=0)
        if h == 0:
            assert high == pytest.approx(-math.expm1(math.log(alpha / 2) / r), rel=1e-12, abs=0)


_IMPORT_PROBE = """
import json, sys
import ivadapt.cli
after_import = sorted(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules)
from ivadapt import DgpSpec, EstimatorConfig, coverage_study
result = coverage_study(DgpSpec.default(), EstimatorConfig(), 200, 3, 1, jobs=1)
print(json.dumps({"after_import": after_import, "reps": result.reps,
                  "scipy_stats": "scipy.stats" in sys.modules}))
"""


def test_cli_import_and_serial_coverage_skip_scipy_stats_and_the_pool():
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    probe = json.loads(proc.stdout)
    assert probe["after_import"] == []
    assert probe["reps"] == 3
    assert probe["scipy_stats"] is False
