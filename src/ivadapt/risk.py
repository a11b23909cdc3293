"""True-risk functionals, oracle truncation levels, and Monte Carlo studies.

The naive risk of the known-operator projection estimator at level m is
the tail bias plus the inverted variance sum; the penalized risk
inflates the variance term by log^2 n.  Oracle levels minimize these
over m.  The Monte Carlo studies replicate the adaptive estimator over
derived seed streams and summarize losses, oracle ratios, rate slopes,
and the bracketing frequency of the random resolution bound.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import seeds
from .basis import CoefficientVector, parseval_sq_distance
from .dgp import DgpSpec, eigenvalue_profile, generate_sample, sigma_sq_profile, true_eigenvalue
from .estimator import (
    EstimatorConfig,
    adaptive_estimate,
    deterministic_resolution_bounds,
    estimate_r_coeffs,
    estimate_resolution,
    naive_estimator,
)

__all__ = [
    "ORACLE_SCAN_BUFFER",
    "CoverageResult",
    "DegenerateFitError",
    "OracleRatioResult",
    "OracleSummary",
    "RateFit",
    "ReplicationBatch",
    "RiskCurve",
    "coverage_study",
    "min_penalized_risk",
    "oracle_level",
    "oracle_ratio_study",
    "oracle_summary",
    "rate_fit",
    "replication_losses",
    "restricted_oracle_level",
    "risk_naive",
    "risk_penalized",
    "truncation_remainder",
]

#: Oracle scans stop this many levels past the support of the target
#: function; beyond the support the risk is strictly increasing, so the
#: minimizer cannot lie there (asserted at runtime).
ORACLE_SCAN_BUFFER = 50


class DegenerateFitError(ValueError):
    """Raised when a rate fit is requested on an unusable grid."""


def _risk(phi: CoefficientVector, t: float, sigma_sq, n: int, m: int, penalized: bool) -> float:
    if n < 1:
        raise ValueError("sample size must be positive")
    if m < 0:
        raise ValueError("truncation level m must be nonnegative")
    sig = np.asarray(sigma_sq, dtype=np.float64)
    if m > sig.size:
        raise ValueError(f"sigma_sq must cover k = 1..{m}")
    tail = float(np.sum(phi.coeffs[m:] ** 2)) if m < phi.support else 0.0
    if m == 0:
        return tail
    lam = eigenvalue_profile(m, t)
    factor = math.log(n) ** 2 if penalized else 1.0
    return tail + factor * float(np.sum(sig[:m] / lam**2)) / n


def risk_naive(phi: CoefficientVector, t: float, sigma_sq, n: int, m: int) -> float:
    """Tail bias plus (1/n) sum_{k<=m} lambda_k^-2 sigma_k^2."""
    return _risk(phi, t, sigma_sq, n, m, penalized=False)


def risk_penalized(phi: CoefficientVector, t: float, sigma_sq, n: int, m: int) -> float:
    """Naive risk with the variance term inflated by log^2 n."""
    return _risk(phi, t, sigma_sq, n, m, penalized=True)


def _risk_scan(phi, t, sigma_sq, n, fn) -> np.ndarray:
    m_max = phi.support + ORACLE_SCAN_BUFFER
    if len(sigma_sq) < m_max:
        raise ValueError(f"sigma_sq must cover k = 1..{m_max}")
    values = np.array([fn(phi, t, sigma_sq, n, m) for m in range(m_max + 1)])
    if not np.all(np.diff(values[phi.support :]) > 0):
        raise RuntimeError("risk is not strictly increasing past the support")
    return values


def oracle_level(phi: CoefficientVector, t: float, sigma_sq, n: int) -> int:
    """Smallest minimizer of the naive risk over m = 0..support+buffer."""
    return int(np.argmin(_risk_scan(phi, t, sigma_sq, n, risk_naive)))


def restricted_oracle_level(
    phi: CoefficientVector, t: float, sigma_sq, n: int, resolution: int
) -> int:
    """Smallest minimizer of the naive risk restricted to m <= resolution."""
    if resolution < 0:
        raise ValueError("resolution must be nonnegative")
    values = _risk_scan(phi, t, sigma_sq, n, risk_naive)
    horizon = min(resolution, values.size - 1)
    return int(np.argmin(values[: horizon + 1]))


def min_penalized_risk(phi: CoefficientVector, t: float, sigma_sq, n: int) -> tuple[int, float]:
    """Argmin and minimum of the penalized risk over m = 0..support+buffer."""
    values = _risk_scan(phi, t, sigma_sq, n, risk_penalized)
    m = int(np.argmin(values))
    return m, float(values[m])


def truncation_remainder(phi: CoefficientVector, t: float, sigma_sq, n: int) -> float:
    """Risk mass between the deterministic lower resolution bound and the oracle.

    Zero whenever the lower bound reaches the oracle level; otherwise
    the sum of phi_k^2 + (1/n) lambda_k^-2 sigma_k^2 over the gap
    (indices clamped to k >= 1).
    """
    m0 = oracle_level(phi, t, sigma_sq, n)
    lower, _ = deterministic_resolution_bounds(t, n)
    if lower >= m0:
        return 0.0
    ks = np.arange(max(lower, 1), m0 + 1)
    lam = true_eigenvalue(ks, t)
    sig = np.asarray(sigma_sq, dtype=np.float64)[ks - 1]
    c = phi.padded(m0)[ks - 1]
    return float(np.sum(c**2 + sig / lam**2 / n))


@dataclass(frozen=True)
class ReplicationBatch:
    """Per-replication outputs of a Monte Carlo run at one sample size."""

    adaptive_loss: np.ndarray
    naive_loss: np.ndarray
    m_selected: np.ndarray
    resolution: np.ndarray


def _mc_replication(payload):
    spec, config, n, master_seed, rep, m0 = payload
    sample = generate_sample(spec, n, seed=seeds.sequence(master_seed, "mc-risk", n, rep))
    report = adaptive_estimate(sample, config)
    adaptive = parseval_sq_distance(report.phi_hat, spec.phi)
    if m0 <= report.resolution:
        r_for_naive = report.r_hat[:m0]
    else:
        r_for_naive = estimate_r_coeffs(sample, m0)
    naive = naive_estimator(r_for_naive, spec.t, m0)
    return adaptive, parseval_sq_distance(naive, spec.phi), report.m_selected, report.resolution


def _map_payloads(fn, payloads, jobs):
    # the pool forks all its workers at its first task, so jobs is clamped first
    workers = min(jobs, len(payloads), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(payloads) // (workers * 4))
        return list(pool.map(fn, payloads, chunksize=chunk))


def replication_losses(
    spec: DgpSpec,
    config: EstimatorConfig,
    n: int,
    reps: int,
    master_seed: int,
    jobs: int = 1,
    oracle_m: int | None = None,
) -> ReplicationBatch:
    """Adaptive and known-operator losses over derived replication streams.

    Results are aggregated in replication order, so the output is
    identical for any parallelism degree.
    """
    if reps < 1:
        raise ValueError("need at least one replication")
    if oracle_m is None:
        sigma = sigma_sq_profile(spec, spec.phi.support + ORACLE_SCAN_BUFFER)
        oracle_m = oracle_level(spec.phi, spec.t, sigma, n)
    payloads = [(spec, config, n, master_seed, rep, oracle_m) for rep in range(reps)]
    rows = _map_payloads(_mc_replication, payloads, jobs)
    arr = np.asarray(rows, dtype=np.float64)
    return ReplicationBatch(
        adaptive_loss=arr[:, 0],
        naive_loss=arr[:, 1],
        m_selected=arr[:, 2].astype(np.int64),
        resolution=arr[:, 3].astype(np.int64),
    )


@dataclass(frozen=True)
class RiskCurve:
    """Monte Carlo risk summaries over a grid of sample sizes."""

    n_grid: np.ndarray
    mean_loss: np.ndarray
    stderr: np.ndarray
    oracle_risk: np.ndarray
    reps: int

    def __post_init__(self):
        n_grid = np.asarray(self.n_grid, dtype=np.int64)
        object.__setattr__(self, "n_grid", n_grid)
        for name in ("mean_loss", "stderr", "oracle_risk"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, arr)
            if arr.size != n_grid.size:
                raise ValueError("curve arrays must share the grid length")
        if np.any(self.mean_loss <= 0) or np.any(self.oracle_risk <= 0):
            raise ValueError("losses and oracle risks must be positive")
        if np.any(self.stderr < 0):
            raise ValueError("standard errors must be nonnegative")


@dataclass(frozen=True)
class OracleRatioResult:
    """Risk curve plus the oracle-ratio diagnostics per sample size."""

    curve: RiskCurve
    ratio: np.ndarray
    naive_mean_loss: np.ndarray
    naive_stderr: np.ndarray
    oracle_levels: np.ndarray


def oracle_ratio_study(
    spec: DgpSpec,
    config: EstimatorConfig,
    n_grid,
    reps: int,
    master_seed: int,
    jobs: int = 1,
) -> OracleRatioResult:
    """Monte Carlo losses and the ratio mean_loss / (log^2 n inf_m R(m)) per n.

    Each grid point reduces one replication_losses batch, so its mean
    and standard error reproduce those of a standalone call with the
    same n, reps and master_seed.
    """
    n_grid = np.asarray(n_grid, dtype=np.int64)
    if n_grid.size == 0 or np.any(np.diff(n_grid) <= 0):
        raise ValueError("n_grid must be nonempty and strictly increasing")
    if reps < 2:
        raise ValueError("need at least two replications for standard errors")
    sigma = sigma_sq_profile(spec, spec.phi.support + ORACLE_SCAN_BUFFER)
    means, stderrs, oracle_risks, ratios = [], [], [], []
    naive_means, naive_stderrs, levels = [], [], []
    for n in n_grid:
        n = int(n)
        m0 = oracle_level(spec.phi, spec.t, sigma, n)
        batch = replication_losses(
            spec, config, n, reps, master_seed, jobs=jobs, oracle_m=m0
        )
        mean = float(np.mean(batch.adaptive_loss))
        means.append(mean)
        stderrs.append(float(np.std(batch.adaptive_loss, ddof=1) / math.sqrt(reps)))
        naive_means.append(float(np.mean(batch.naive_loss)))
        naive_stderrs.append(float(np.std(batch.naive_loss, ddof=1) / math.sqrt(reps)))
        _, inf_risk = min_penalized_risk(spec.phi, spec.t, sigma, n)
        oracle_risks.append(inf_risk)
        ratios.append(mean / (math.log(n) ** 2 * inf_risk))
        levels.append(m0)
    curve = RiskCurve(
        n_grid=n_grid,
        mean_loss=np.asarray(means),
        stderr=np.asarray(stderrs),
        oracle_risk=np.asarray(oracle_risks),
        reps=int(reps),
    )
    return OracleRatioResult(
        curve=curve,
        ratio=np.asarray(ratios),
        naive_mean_loss=np.asarray(naive_means),
        naive_stderr=np.asarray(naive_stderrs),
        oracle_levels=np.asarray(levels, dtype=np.int64),
    )


@dataclass(frozen=True)
class RateFit:
    """Fitted and theoretical convergence-rate slopes for a risk curve.

    fitted_slope regresses log mean_loss on log(n / log^(2 gamma) n)
    with gamma = 2 + 2s + 2t; raw_slope is the same regression against
    log n, reported for diagnostics.  expected_slope is
    -2s / (2s + 2t + 1).
    """

    fitted_slope: float
    intercept: float
    raw_slope: float
    raw_intercept: float
    expected_slope: float
    gamma: float


def _lsq_line(x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
    xm = float(np.mean(x))
    ym = float(np.mean(y))
    dx = x - xm
    slope = float(np.sum(dx * (y - ym)) / np.sum(dx * dx))
    return slope, ym - slope * xm


def rate_fit(curve: RiskCurve, s: float, t: float) -> RateFit:
    """Least-squares slope of the risk curve on the log-corrected abscissa."""
    n = curve.n_grid.astype(np.float64)
    if n.size < 4:
        raise DegenerateFitError("rate fit needs at least 4 grid points")
    if n.max() / n.min() < 10.0:
        raise DegenerateFitError("rate fit needs a grid spanning at least one decade")
    gamma = 2.0 + 2.0 * s + 2.0 * t
    x = np.log(n) - 2.0 * gamma * np.log(np.log(n))
    y = np.log(curve.mean_loss)
    slope, intercept = _lsq_line(x, y)
    raw_slope, raw_intercept = _lsq_line(np.log(n), y)
    expected = -2.0 * s / (2.0 * s + 2.0 * t + 1.0)
    return RateFit(
        fitted_slope=slope,
        intercept=intercept,
        raw_slope=raw_slope,
        raw_intercept=raw_intercept,
        expected_slope=expected,
        gamma=gamma,
    )


@dataclass(frozen=True)
class CoverageResult:
    """Empirical frequency of the bracketing event lower <= M < upper."""

    n: int
    reps: int
    hits: int
    fraction: float
    ci_low: float
    ci_high: float
    lower_bound: int
    upper_bound: int


def _coverage_replication(payload):
    spec, config, n, master_seed, rep = payload
    sample = generate_sample(spec, n, seed=seeds.sequence(master_seed, "coverage", n, rep))
    return estimate_resolution(sample, config)


def _clopper_pearson(hits: int, reps: int, alpha: float = 0.05) -> tuple[float, float]:
    """Exact two-sided 1 - alpha interval for a binomial proportion.

    The bounds are the alpha/2 and 1 - alpha/2 quantiles of
    Beta(hits, reps - hits + 1) and Beta(hits + 1, reps - hits)
    (Clopper & Pearson, Biometrika 1934), clamped to 0 and 1 at the
    ends.  They come from scipy.special.betaincinv, the inverse
    regularized incomplete beta that scipy.stats.beta.ppf calls, so the
    values are the same; importing scipy.stats would cost more start-up
    time and memory than a whole coverage study.
    """
    from scipy.special import betaincinv

    low = 0.0 if hits == 0 else float(betaincinv(hits, reps - hits + 1, alpha / 2))
    high = 1.0 if hits == reps else float(betaincinv(hits + 1, reps - hits, 1 - alpha / 2))
    return low, high


def coverage_study(
    spec: DgpSpec,
    config: EstimatorConfig,
    n: int,
    reps: int,
    master_seed: int,
    jobs: int = 1,
) -> CoverageResult:
    """Replicate the resolution scan and count bracketing hits with an exact CI."""
    if reps < 1:
        raise ValueError("need at least one replication")
    lower, upper = deterministic_resolution_bounds(spec.t, n)
    payloads = [(spec, config, n, master_seed, rep) for rep in range(reps)]
    resolutions = np.asarray(_map_payloads(_coverage_replication, payloads, jobs))
    hits = int(np.sum((resolutions >= lower) & (resolutions < upper)))
    ci_low, ci_high = _clopper_pearson(hits, reps)
    return CoverageResult(
        n=int(n),
        reps=int(reps),
        hits=hits,
        fraction=hits / reps,
        ci_low=ci_low,
        ci_high=ci_high,
        lower_bound=int(lower),
        upper_bound=int(upper),
    )


@dataclass(frozen=True)
class OracleSummary:
    """Oracle levels, deterministic brackets, and risk profiles at one n."""

    n: int
    oracle_m: int
    restricted_oracle_m: int
    resolution: int
    lower_bound: int
    upper_bound: int
    remainder: float
    risk_values: np.ndarray
    penalized_risk_values: np.ndarray


def oracle_summary(
    spec: DgpSpec,
    config: EstimatorConfig,
    n: int,
    master_seed: int,
) -> OracleSummary:
    """Risk profiles plus a realized resolution bound from one derived sample."""
    sigma = sigma_sq_profile(spec, spec.phi.support + ORACLE_SCAN_BUFFER)
    risk_values = _risk_scan(spec.phi, spec.t, sigma, n, risk_naive)
    penalized_values = _risk_scan(spec.phi, spec.t, sigma, n, risk_penalized)
    m0 = int(np.argmin(risk_values))
    sample = generate_sample(spec, n, seed=seeds.sequence(master_seed, "oracle-study", n, 0))
    resolution = estimate_resolution(sample, config)
    m1 = restricted_oracle_level(spec.phi, spec.t, sigma, n, resolution)
    lower, upper = deterministic_resolution_bounds(spec.t, n)
    return OracleSummary(
        n=int(n),
        oracle_m=m0,
        restricted_oracle_m=m1,
        resolution=int(resolution),
        lower_bound=int(lower),
        upper_bound=int(upper),
        remainder=truncation_remainder(spec.phi, spec.t, sigma, n),
        risk_values=risk_values,
        penalized_risk_values=penalized_values,
    )
