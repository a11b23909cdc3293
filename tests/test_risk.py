import dataclasses
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ivadapt import (
    CoefficientVector,
    DgpSpec,
    EstimatorConfig,
    coverage_study,
    deterministic_resolution_bounds,
    min_penalized_risk,
    oracle_level,
    oracle_ratio_study,
    oracle_summary,
    parseval_sq_distance,
    rate_fit,
    restricted_oracle_level,
    risk_naive,
    risk_penalized,
    sigma_sq_profile,
    truncation_remainder,
    true_eigenvalue,
)
from ivadapt import risk
from ivadapt.risk import _clopper_pearson, _map_payloads
from ivadapt.serialize import to_plain

ONES = np.ones(600)


@pytest.mark.parametrize("fn", [risk_naive, risk_penalized])
@pytest.mark.parametrize("m", [2.5, True, np.False_, [1.0, 2.0], [], [1, None]], ids=repr)
def test_risk_rejects_a_level_that_is_no_int(fn, m):
    phi = CoefficientVector([1.0, 0.5])
    with pytest.raises(ValueError, match=rf"^m must be an int or an array of ints, not {re.escape(repr(m))}$"):
        fn(phi, 1.0, ONES, 100, m)
    # ints of any width still count
    assert fn(phi, 1.0, ONES, 100, np.uint8(2)) == fn(phi, 1.0, ONES, 100, 2)


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
        expected = -phi.padded(m)[m - 1] ** 2 + sig[m - 1] / lam**2 / n
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


# the brute-force scans run this many levels past the support, where the oracle levels never look
PAST_SUPPORT = 50


def _random_case(seed):
    rng = np.random.default_rng(seed)
    support = int(rng.integers(1, 40))
    phi = CoefficientVector(rng.standard_normal(support) * np.arange(1, support + 1) ** -rng.uniform(0.3, 2.5))
    sig = rng.uniform(0.05, 2.0, support + PAST_SUPPORT)
    if seed % 3 == 0:
        sig[support:] = 0.0  # a flat risk past the support: every level there ties with the support
    return phi, float(rng.uniform(0.5, 3.0)), sig, int(2 ** rng.integers(2, 25))


def _direct_risk(phi, t, sig, n, m, factor=1.0):
    """The risk at one level from its definition: the tail and the variance sum, each summed alone."""
    lam = true_eigenvalue(np.arange(1, m + 1), t)
    return float(np.sum(phi.padded(m)[m:] ** 2)) + factor * float(np.sum(sig[:m] / lam**2)) / n


@pytest.mark.parametrize("seed", range(24))
def test_oracle_levels_match_a_scan_of_the_scalar_risk(seed):
    phi, t, sig, n = _random_case(seed)
    levels = range(phi.support + PAST_SUPPORT + 1)
    naive = [risk_naive(phi, t, sig, n, m) for m in levels]
    penalized = [risk_penalized(phi, t, sig, n, m) for m in levels]
    # the array form is the scalar form, level by level and bit for bit
    assert risk_naive(phi, t, sig, n, np.arange(len(naive))).tolist() == naive
    assert risk_penalized(phi, t, sig, n, np.arange(len(penalized))).tolist() == penalized
    assert naive == pytest.approx([_direct_risk(phi, t, sig, n, m) for m in levels], rel=1e-13, abs=0)
    factor = math.log(n) ** 2
    assert penalized == pytest.approx([_direct_risk(phi, t, sig, n, m, factor) for m in levels], rel=1e-13, abs=0)

    m0 = oracle_level(phi, t, sig, n)
    assert m0 == int(np.argmin(naive))
    for resolution in (0, 1, 5, 200):
        assert restricted_oracle_level(phi, t, sig, n, resolution) == int(np.argmin(naive[: resolution + 1]))
    assert min_penalized_risk(phi, t, sig, n) == (int(np.argmin(penalized)), min(penalized))
    lower, _ = deterministic_resolution_bounds(t, n)
    gap = range(max(lower, 1), m0 + 1) if lower < m0 else ()
    expected = sum(phi.padded(k)[k - 1] ** 2 + sig[k - 1] / true_eigenvalue(k, t) ** 2 / n for k in gap)
    assert truncation_remainder(phi, t, sig, n) == pytest.approx(expected, rel=1e-13, abs=0)


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
    values = [risk_penalized(phi, 1.0, ONES, 400, m) for m in range(phi.support + PAST_SUPPORT + 1)]
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
        expected += phi.padded(k)[k - 1] ** 2 + 1.0 / lam**2 / n
    assert got == pytest.approx(expected, rel=1e-12)
    assert got > 0


def test_loss_is_parseval_distance():
    a = CoefficientVector([1.0, 2.0])
    b = CoefficientVector([1.0])
    assert parseval_sq_distance(a, b) == 4.0


def test_mc_risk_pure_noise():
    # the rate study rejects a zero phi (its ratio divides by a zero oracle risk), so its replications run directly
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=0.1)
    m0 = oracle_level(spec.phi, spec.t, sigma_sq_profile(spec, spec.phi.support), 256)
    assert m0 == 0  # a zero phi has no bias to trade
    [rows] = risk._grid_rows(risk._mc_replication, (spec, EstimatorConfig(), 31), [256], [(m0,)], 50, 1)
    assert np.mean(rows[:, 0]) < 0.01
    assert np.mean(rows[:, 2] == 0) >= 0.9


def mc_risk(spec, config, n, reps, master_seed, jobs=1):
    """Monte Carlo mean and standard error of the adaptive squared loss: the one-point rate study at n."""
    result = oracle_ratio_study(spec, config, [n], reps, master_seed, jobs=jobs)
    return float(result.mean_loss[0]), float(result.stderr[0])


def test_mc_risk_deterministic():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    a = mc_risk(spec, config, 2048, 10, master_seed=32)
    b = mc_risk(spec, config, 2048, 10, master_seed=32)
    assert a == b
    c = mc_risk(spec, config, 2048, 10, master_seed=33)
    assert a != c


def test_mc_risk_matches_parallel_execution():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    seq = oracle_ratio_study(spec, config, [512], 8, master_seed=34, jobs=1)
    par = oracle_ratio_study(spec, config, [512], 8, master_seed=34, jobs=2)
    assert to_plain(seq) == to_plain(par)


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
        self.items = list(items)
        return map(fn, self.items)


@pytest.mark.parametrize(
    "jobs, payloads, cores, workers",
    [(100_000, 5, 8, 5), (3, 10, 8, 3), (100_000, 10, 4, 4), (4, 1, 8, None), (100_000, 10, 1, None)],
)
def test_map_payloads_clamps_workers(monkeypatch, jobs, payloads, cores, workers):
    # never starts a real pool: jobs this large would fork that many processes
    import concurrent.futures

    _RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(risk, "_usable_cores", lambda: cores)
    assert _map_payloads(abs, list(range(-payloads, 0)), jobs) == list(range(payloads, 0, -1))
    assert [pool.max_workers for pool in _RecordingPool.made] == ([] if workers is None else [workers])
    if workers is not None:
        assert _RecordingPool.made[0].chunksize == max(1, payloads // (workers * 4))


def test_map_payloads_hands_the_pool_the_last_payloads_first(monkeypatch):
    # studies list payloads cheapest first; the pool starts on the costliest, the results keep payload order
    import concurrent.futures

    _RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(risk, "_usable_cores", lambda: 2)
    assert _map_payloads(abs, list(range(-280, 0)), 2) == list(range(280, 0, -1))
    [pool] = _RecordingPool.made
    assert (pool.max_workers, pool.chunksize, pool.items) == (2, 35, list(range(-1, -281, -1)))


@pytest.mark.parametrize(
    "study, grid",
    [
        (lambda grid, jobs: coverage_study(DgpSpec.default(), EstimatorConfig(), grid, 3, 41, jobs=jobs), [200, 400]),
        (lambda grid, jobs: oracle_ratio_study(DgpSpec.default(), EstimatorConfig(), grid, 2, 41, jobs=jobs),
         [64, 128, 256, 512]),
    ],
    ids=["coverage-study", "rate-study"],
)
def test_a_parallel_study_starts_one_pool_for_its_whole_grid(monkeypatch, study, grid):
    import concurrent.futures

    _RecordingPool.made = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(risk, "_usable_cores", lambda: 2)
    study(grid, 2)
    assert [pool.max_workers for pool in _RecordingPool.made] == [2]


def test_coverage_study_counts_each_n_as_a_one_point_grid():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    grid = coverage_study(spec, config, [300, 600], 20, master_seed=39)
    assert grid == [coverage_study(spec, config, [n], 20, master_seed=39)[0] for n in (300, 600)]
    assert [result.n for result in grid] == [300, 600]


def not_yet(*args, **kwargs):
    raise AssertionError("the study did work before checking its inputs")


@pytest.mark.parametrize("study", [coverage_study, oracle_ratio_study], ids=["coverage-study", "rate-study"])
@pytest.mark.parametrize(
    "n_grid", [1000, [], [[1000]], [10000, 1000], [1000, 1000], [0, 1000], [2, 1000], [-5, 1000]]
)
def test_a_study_rejects_a_grid_that_is_not_a_nonempty_increasing_list(monkeypatch, study, n_grid):
    # the grid, sizes included, is checked before the sigma^2 oracle or any bracket is computed
    monkeypatch.setattr(risk, "sigma_sq_profile", not_yet)
    monkeypatch.setattr(risk, "deterministic_resolution_bounds", not_yet)
    with pytest.raises(ValueError, match="n_grid must be a nonempty sequence") as info:
        study(DgpSpec.default(), EstimatorConfig(), n_grid, 3, master_seed=37)
    assert info.value.argument == "n_grid"


ZERO_PHI_SPEC = dataclasses.replace(DgpSpec.default(), phi=CoefficientVector.zero())


@pytest.mark.parametrize(
    "study, spec, config, jobs, argument",
    [
        (oracle_ratio_study, ZERO_PHI_SPEC, EstimatorConfig(), 1, "spec.phi"),
        (oracle_ratio_study, DgpSpec.default(), EstimatorConfig(penalty_log_exponent=400), 1,
         "config.penalty_log_exponent"),
        (oracle_ratio_study, DgpSpec.default(), EstimatorConfig(), 0, "jobs"),
        (oracle_ratio_study, DgpSpec.default(), EstimatorConfig(), -3, "jobs"),
        (coverage_study, DgpSpec.default(), EstimatorConfig(), 0, "jobs"),
        (coverage_study, DgpSpec.default(), EstimatorConfig(), -3, "jobs"),
    ],
    ids=["rate-zero-phi", "rate-penalty-overflow", "rate-jobs-0", "rate-jobs-neg", "coverage-jobs-0",
         "coverage-jobs-neg"],
)
def test_a_study_rejects_its_inputs_before_the_oracle_or_any_sample(monkeypatch, study, spec, config, jobs, argument):
    # log(1000)^400 overflows a float; a zero phi has oracle risk 0 at m = 0, which the ratio divides by
    monkeypatch.setattr(risk, "sigma_sq_profile", not_yet)
    monkeypatch.setattr(risk, "generate_sample", not_yet)
    with pytest.raises(ValueError) as info:
        study(spec, config, [10, 1000], 3, master_seed=37, jobs=jobs)
    assert info.value.argument == argument


@pytest.mark.parametrize(
    "spec, n_grid, argument",
    [
        (dataclasses.replace(DgpSpec.default(), t=0.05), [1000], "spec.t"),
        (DgpSpec.default(), [2, 1000], "n_grid"),
        (DgpSpec.default(), [1000, 512], "n_grid"),
    ],
    ids=["no-bracket", "n-below-3", "not-increasing"],
)
def test_oracle_summary_rejects_its_inputs_before_the_oracle_or_any_sample(monkeypatch, spec, n_grid, argument):
    # at t = 0.05 the bracket does not exist
    for name in ("sigma_sq_profile", "generate_sample", "estimate_resolution"):
        monkeypatch.setattr(risk, name, not_yet)
    with pytest.raises(ValueError) as info:
        oracle_summary(spec, EstimatorConfig(k_max=100), n_grid, master_seed=38)
    assert info.value.argument == argument


@pytest.mark.parametrize(
    "spec",
    [
        DgpSpec(t=1.0, phi=CoefficientVector([0.0]), g=CoefficientVector([1.0]), a=0.0, eta_sd=0.0),
        DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=0.5),
    ],
    ids=["zero-response", "empty-phi"],
)
def test_oracle_summary_of_a_zero_phi_has_oracle_level_0(spec):
    # a zero response has a flat risk profile, all 0, and an empty phi (K = 0) one level, m = 0
    summaries = oracle_summary(spec, EstimatorConfig(), [500, 1000], master_seed=38)
    assert [s.n for s in summaries] == [500, 1000]
    for s in summaries:
        assert (s.oracle_m, s.restricted_oracle_m, s.remainder) == (0, 0, 0.0)
        assert s.risk_values.size == s.penalized_risk_values.size == spec.phi.support + 1
    if spec.eta_sd == 0:
        assert not summaries[0].risk_values.any()


def test_usable_cores_counts_the_affinity_mask(monkeypatch):
    # a process pinned to one CPU of a 64-CPU host may run one worker
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3}, raising=False)
    assert risk._usable_cores() == 1
    # without an affinity mask the host's count stands, and an unknown count is 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert risk._usable_cores() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert risk._usable_cores() == 1


def test_mc_risk_stderr_scales_with_replications():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    _, se_100 = mc_risk(spec, config, 2048, 100, master_seed=35)
    _, se_400 = mc_risk(spec, config, 2048, 400, master_seed=35)
    assert se_400 < 0.6 * se_100


def test_oracle_ratio_study_structure():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    grid = [256, 512, 1024]
    result = oracle_ratio_study(spec, config, grid, 10, master_seed=36)
    assert np.array_equal(result.n_grid, grid)
    assert np.all(result.ratio > 0)
    assert np.all(np.isfinite(result.ratio))
    assert result.reps == 10
    # pointwise agreement with the one-point grid (same streams)
    point = oracle_ratio_study(spec, config, [512], 10, master_seed=36)
    assert result.mean_loss[1] == point.mean_loss[0]
    assert result.stderr[1] == point.stderr[0]
    sigma = sigma_sq_profile(spec, spec.phi.support)
    assert result.oracle_levels[1] == point.oracle_levels[0] == oracle_level(spec.phi, spec.t, sigma, 512)
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
        mean_loss = 3.0 * x**slope
        fit = rate_fit(n_grid, mean_loss, s=1.0, t=1.0)
        assert fit.fitted_slope == pytest.approx(slope, abs=1e-12)
    fit = rate_fit(n_grid, mean_loss, s=1.0, t=1.0)
    assert fit.expected_slope == pytest.approx(-0.4)
    assert fit.gamma == 6.0
    assert rate_fit(n_grid, mean_loss, s=2.0, t=1.0).expected_slope == pytest.approx(-4.0 / 7.0)


def test_rate_fit_rejects_degenerate_grids():
    def fit_for(ns):
        return rate_fit(ns, np.ones(len(ns)), s=1.0, t=1.0)

    for ns in ([], [100, 200, 400], [100, 200, 400, 800]):
        with pytest.raises(ValueError, match="at least 4 grid points spanning at least one decade") as info:
            fit_for(ns)
        assert info.value.argument == "n_grid"


@pytest.mark.parametrize(
    "mean_loss",
    [[1.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0, 1.0], [1.0, 0.0, 1.0, 1.0], [1.0, 1.0, -0.5, 1.0],
     [1.0, math.nan, 1.0, 1.0], [1.0, 1.0, math.inf, 1.0]],
    ids=["short", "long", "zero", "negative", "nan", "inf"],
)
def test_rate_fit_rejects_a_loss_list_that_is_not_one_positive_loss_per_point(mean_loss):
    # a grid that spans a decade, so only the losses can be at fault
    with pytest.raises(ValueError, match="one positive mean loss per grid point") as info:
        rate_fit([100, 1000, 10_000, 100_000], mean_loss, s=1.0, t=1.0)
    assert not hasattr(info.value, "argument")


def test_coverage_study_basics():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    [result] = coverage_study(spec, config, [1000], 100, master_seed=37)
    assert 0.0 <= result.fraction <= 1.0
    assert result.ci_low <= result.fraction <= result.ci_high
    assert result.fraction >= 0.9
    assert result.hits <= result.reps
    assert result.lower_bound <= result.upper_bound
    again = coverage_study(spec, config, [1000], 100, master_seed=37)
    assert again == [result]


def test_oracle_summary_consistency():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    sigma = sigma_sq_profile(spec, spec.phi.support)
    summaries = oracle_summary(spec, config, [512, 2048], master_seed=38)
    assert [s.n for s in summaries] == [512, 2048]
    for summary in summaries:
        n = summary.n
        assert summary.oracle_m == oracle_level(spec.phi, spec.t, sigma, n)
        assert summary.restricted_oracle_m == restricted_oracle_level(spec.phi, spec.t, sigma, n, summary.resolution)
        assert summary.restricted_oracle_m <= summary.resolution or summary.resolution == 0
        assert summary.restricted_oracle_m <= summary.oracle_m
        assert summary.risk_values[summary.oracle_m] == summary.risk_values.min()
        assert summary.risk_values.size == spec.phi.support + 1
        assert summary.lower_bound <= summary.upper_bound
        assert summary.remainder >= 0.0
    # each n is the one-point grid [n]
    assert to_plain(oracle_summary(spec, config, [2048], master_seed=38)) == to_plain(summaries[1:])


def test_oracle_summary_reads_its_levels_and_remainder_off_the_public_functions(monkeypatch):
    # each n's levels and remainder are those of oracle_level, restricted_oracle_level and truncation_remainder
    spec = DgpSpec.default()
    config = EstimatorConfig()
    sigma = sigma_sq_profile(spec, spec.phi.support)
    remainders = {n: truncation_remainder(spec.phi, spec.t, sigma, n) for n in (64, 2048)}
    assert remainders[64] > 0.0
    public = (oracle_level, restricted_oracle_level, truncation_remainder)
    calls = set()

    def recording(fn):
        def call(*args):
            calls.add((fn.__name__, args[3]))
            return fn(*args)

        return call

    for fn in public:
        monkeypatch.setattr(risk, fn.__name__, recording(fn))
    summaries = oracle_summary(spec, config, list(remainders), master_seed=38)
    assert calls == {(fn.__name__, n) for fn in public for n in remainders}
    assert [s.remainder.hex() for s in summaries] == [r.hex() for r in remainders.values()]


def test_oracle_summary_reads_the_oracle_once_up_to_the_support(monkeypatch):
    spec = DgpSpec.default()
    calls = []

    def recording(spec, K, *args):
        calls.append(K)
        return sigma_sq_profile(spec, K, *args)

    monkeypatch.setattr(risk, "sigma_sq_profile", recording)
    oracle_summary(spec, EstimatorConfig(), [512, 1024], master_seed=38)
    assert calls == [spec.phi.support]


@pytest.mark.parametrize("support", [1, 7, 50])
def test_sigma_sq_profile_past_the_support_extends_it_bitwise(support):
    # the oracle's row blocks do not depend on K, so the short profile is the long one's prefix
    spec = DgpSpec.default()
    short = sigma_sq_profile(spec, support, n_draws=20_000)
    long = sigma_sq_profile(spec, support + 50, n_draws=20_000)
    assert short.tobytes() == long[:support].tobytes()


def test_sigma_sq_profile_of_an_empty_phi_is_empty_and_draws_nothing(monkeypatch):
    def no_sample(*args, **kwargs):
        raise AssertionError("sigma_sq_profile drew a sample")

    monkeypatch.setattr(risk, "_SIGMA_CACHE", {})
    monkeypatch.setattr(risk.dgp, "generate_sample", no_sample)
    values = sigma_sq_profile(DgpSpec.default(), 0)
    assert values.shape == (0,) and not values.flags.writeable
    with pytest.raises(ValueError):
        sigma_sq_profile(DgpSpec.default(), -1, n_draws=1000)
    with pytest.raises(AssertionError, match="drew a sample"):
        sigma_sq_profile(DgpSpec.default(), 1, n_draws=1000)


@pytest.mark.parametrize("reps", [0, -1, 6])
def test_coverage_study_rejects_reps_before_drawing_a_sample(monkeypatch, reps):
    # the bound is lowered to 5, so without the check 6 reps fail at the first draw
    # instead of building 10^9 payloads and running every replication
    def no_sample(*args, **kwargs):
        raise AssertionError("coverage_study drew a sample")

    monkeypatch.setattr(risk, "_CP_MAX_REPS", 5)
    monkeypatch.setattr(risk, "generate_sample", no_sample)
    message = f"reps must be at most 5, not {reps}" if reps > 5 else f"reps must be at least 1, not {reps}"
    with pytest.raises(ValueError, match=f"^{message}$"):
        coverage_study(DgpSpec.default(), EstimatorConfig(), [1000], reps, master_seed=37)


ALPHA = 0.05
CP_CASES = [(h, r) for r in range(1, 61) for h in range(r + 1)]
CP_CASES += [(h, r) for r in (100, 500) for h in sorted({*range(0, r + 1, 7), r - 1, r})]


@pytest.fixture(scope="module")
def cp_bounds():
    return {case: _clopper_pearson(*case) for case in CP_CASES}


def _quantile_sides(hits, reps, low, high):
    """(bound, a, b, q) for each bound that is a Beta(a, b) quantile, not clamped to 0 or 1."""
    sides = [(low, hits, reps - hits + 1, ALPHA / 2), (high, hits + 1, reps - hits, 1 - ALPHA / 2)]
    return [side for side in sides if side[1] >= 1 and side[2] >= 1]


def _tail_reaches(x, a, b, q):
    """Whether I_x(a, b) = P(Bin(a + b - 1, x) >= a) >= q, decided in exact integer arithmetic."""
    m, d = x.as_integer_ratio()
    q_num, q_den = q.as_integer_ratio()
    n = a + b - 1
    tail = sum(math.comb(n, k) * m**k * (d - m) ** (n - k) for k in range(a, n + 1))
    return tail * q_den >= q_num * d**n


def test_clopper_pearson_brackets_the_exact_root(cp_bounds):
    # reps <= 60 passes too (3,660 bounds) but takes three times as long
    checked = 0
    for (h, r), (low, high) in cp_bounds.items():
        if r > 40:
            continue
        for bound, a, b, q in _quantile_sides(h, r, low, high):
            step = 32 * math.ulp(bound)
            assert not _tail_reaches(bound - step, a, b, q), (h, r, bound)
            assert _tail_reaches(min(bound + step, 1.0), a, b, q), (h, r, bound)
            checked += 1
    assert checked == 1640


def test_clopper_pearson_matches_scipy_and_the_closed_forms(cp_bounds):
    from scipy.stats import beta

    for (h, r), (low, high) in cp_bounds.items():
        for bound, a, b, q in _quantile_sides(h, r, low, high):
            assert bound == pytest.approx(float(beta.ppf(q, a, b)), rel=1e-13, abs=0), (h, r)
        assert low <= h / r <= high
        if h == r:
            assert high == 1.0
            assert low == pytest.approx((ALPHA / 2) ** (1 / r), rel=1e-12, abs=0)
        if h == 0:
            assert low == 0.0
            assert high == pytest.approx(-math.expm1(math.log(ALPHA / 2) / r), rel=1e-12, abs=0)


def test_clopper_pearson_matches_scipy_at_ten_thousand_reps():
    from scipy.stats import beta

    r = 10_000
    for h in range(0, r + 1, 97):
        low, high = _clopper_pearson(h, r)
        for bound, a, b, q in _quantile_sides(h, r, low, high):
            assert bound == pytest.approx(float(beta.ppf(q, a, b)), rel=1e-12, abs=0), (h, r)


@pytest.mark.parametrize("reps", [10**5, 10**7])
def test_clopper_pearson_is_fast_and_matches_scipy_at_large_reps(reps):
    from scipy.stats import beta

    for h in (1, 2, reps // 2, reps - 2):
        start = time.perf_counter()
        low, high = _clopper_pearson(h, reps)
        assert time.perf_counter() - start < 0.05, (h, reps)
        for bound, a, b, q in _quantile_sides(h, reps, low, high):
            assert bound == pytest.approx(float(beta.ppf(q, a, b)), rel=1e-10, abs=0), (h, reps)
    # scipy is itself 6.6e-11 from the exact root at h = 2, reps = 10^7; the closed forms are exact
    assert _clopper_pearson(0, reps)[1] == pytest.approx(-math.expm1(math.log(ALPHA / 2) / reps), rel=1e-14, abs=0)
    assert _clopper_pearson(reps, reps)[0] == pytest.approx((ALPHA / 2) ** (1 / reps), rel=1e-14, abs=0)


@pytest.mark.parametrize(
    ("hits", "reps", "field"),
    [
        (0, 0, "reps"),
        (4, 3, "hits"),
        (-1, 3, "hits"),
        (5 * 10**8, 10**9 + 1, "reps"),
        (2**59, 2**60, "reps"),
    ],
    ids=["reps-below-one", "hits-above-reps", "hits-negative", "reps-above-a-billion", "reps-two-to-the-sixty"],
)
def test_clopper_pearson_rejects_bad_input(hits, reps, field):
    # past 10^9 the fraction can reach its guard; at reps = 2^60 both bounds would be 0.5000000000000001
    with pytest.raises(ValueError, match=field):
        _clopper_pearson(hits, reps)


def test_clopper_pearson_covers_reps_up_to_a_billion():
    # hits = reps / 2 puts both quantiles at the mean, where the fraction is longest (3,983 terms)
    reps = 10**9
    start = time.perf_counter()
    low, high = _clopper_pearson(reps // 2, reps)
    assert time.perf_counter() - start < 0.5
    assert low < 0.5 < high
    assert high - 0.5 == pytest.approx(0.5 - low, rel=1e-6)


def test_beta_fraction_raises_at_its_guard(monkeypatch):
    monkeypatch.setattr(risk, "_FRACTION_TERMS", 3)
    with pytest.raises(RuntimeError, match="did not converge"):
        _clopper_pearson(50, 100)


_IMPORT_PROBE = """
import json, sys
def loaded():
    return sorted(m for m in ("scipy", "concurrent.futures.process") if m in sys.modules)
import ivadapt.cli
after_import = loaded()
from ivadapt import DgpSpec, EstimatorConfig, coverage_study
from ivadapt.risk import _clopper_pearson
[result] = coverage_study(DgpSpec.default(), EstimatorConfig(), [200], 3, 1, jobs=1)
after_study = loaded()
_clopper_pearson(1, 3)
_clopper_pearson(3, 3)
print(json.dumps({"after_import": after_import, "reps": result.reps, "after_study": after_study,
                  "after_bounds": loaded()}))
"""


def test_cli_import_serial_coverage_and_clopper_pearson_skip_scipy_and_the_pool():
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
    assert probe["after_study"] == []
    assert probe["after_bounds"] == []
