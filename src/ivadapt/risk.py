"""True-risk functionals, oracle truncation levels, and Monte Carlo studies.

The naive risk of the known-operator projection estimator at level m is
the tail bias plus the inverted variance sum; the penalized risk
inflates the variance term by log^2 n.  Oracle levels minimize these
over m = 0..support of phi, with the term variances sigma_k^2 from a
Monte Carlo oracle (sigma_sq_profile): past the support the bias tail is
exactly 0 and each level only adds variance, so no smallest minimizer
lies there.  The Monte Carlo studies replicate the adaptive
estimator over derived seed streams and summarize losses, oracle ratios,
rate slopes, and the bracketing frequency of the random resolution
bound with its 95 % Clopper-Pearson interval (reps <= 10^9).  Each study
first checks all its inputs by arithmetic alone (_ratio_inputs,
_coverage_inputs, _summary_inputs, _fit_grid, which the CLI runs at load):
each broken rule raises a basis._InputError, a ValueError whose argument
names the input, and every count (n_grid's sizes, reps, jobs, the
master seed) goes through basis._count.  Both grid studies map every
(n, rep) replication of their grid through one _grid_rows call: one
process pool at jobs > 1, and results in (n, rep) order for any jobs.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from . import dgp, seeds
from .basis import CoefficientVector, _count, _InputError, _real, parseval_sq_distance
from .dgp import DgpSpec, eigenvalue_profile, generate_sample
from .estimator import (
    EstimatorConfig,
    adaptive_estimate,
    deterministic_resolution_bounds,
    estimate_r_coeffs,
    estimate_resolution,
    estimate_sigma_sq,
    naive_estimator,
)

__all__ = [
    "CoverageResult",
    "OracleRatioResult",
    "OracleSummary",
    "RateFit",
    "coverage_study",
    "min_penalized_risk",
    "oracle_level",
    "oracle_ratio_study",
    "oracle_summary",
    "rate_fit",
    "restricted_oracle_level",
    "risk_naive",
    "risk_penalized",
    "sigma_sq_profile",
    "truncation_remainder",
]

#: Fixed seed and size of the Monte Carlo oracle's sample for sigma_k^2.
_ORACLE_SEED = 741_003
_ORACLE_DRAWS = 10**6
_SIGMA_CACHE: dict = {}


def sigma_sq_profile(spec: DgpSpec, K: int, n_draws: int = _ORACLE_DRAWS) -> np.ndarray:
    """Monte Carlo oracle for sigma_k^2 = Var(Y psi_k(W)), k = 1..K (empty at K = 0).

    The estimator's estimate_sigma_sq over a fixed-seed sample of n_draws
    observations; read-only and cached per (spec, K, n_draws), so oracle
    risks are reproducible constants for a given spec.  It draws through
    dgp.generate_sample: the benchmark's tracer counts this module's as replications.
    The empty profile (K = 0) draws nothing; K and n_draws are checked either way.
    """
    cache_key = (spec.key(), _count("K", K), _count("n_draws", n_draws, 1))
    values = _SIGMA_CACHE.get(cache_key)
    if values is None:
        values = np.zeros(0)
        if K:
            sample = dgp.generate_sample(spec, n_draws, seed=seeds.sequence(_ORACLE_SEED, "sigma-oracle"))
            values = estimate_sigma_sq(sample, K)
        values.setflags(write=False)
        _SIGMA_CACHE[cache_key] = values
    return values


def _risk_sums(phi: CoefficientVector, t: float, sigma_sq, m_max: int):
    """Bias tails sum_{k>m} phi_k^2 and variance sums sum_{k<=m} sigma_k^2 / lambda_k^2, m = 0..m_max."""
    sig = np.asarray(sigma_sq, dtype=np.float64)
    if m_max > sig.size:
        raise ValueError(f"sigma_sq must cover k = 1..{m_max}")
    tail = np.append(np.cumsum(phi.padded(m_max)[::-1] ** 2)[::-1], 0.0)
    variance = np.append(0.0, np.cumsum(sig[:m_max] / eigenvalue_profile(m_max, t) ** 2))
    return tail[: m_max + 1], variance


def _risk(phi: CoefficientVector, t: float, sigma_sq, n: int, m, penalized: bool):
    _count("n", n, 1)
    levels = _count("m", m, arrays=True)
    tail, variance = _risk_sums(phi, t, sigma_sq, int(np.max(levels, initial=0)))
    factor = math.log(n) ** 2 if penalized else 1.0
    values = tail[levels] + factor * variance[levels] / n
    return float(values) if levels.ndim == 0 else values


def risk_naive(phi: CoefficientVector, t: float, sigma_sq, n: int, m):
    """Tail bias plus (1/n) sum_{k<=m} lambda_k^-2 sigma_k^2 at level m (int or array of ints)."""
    return _risk(phi, t, sigma_sq, n, m, penalized=False)


def risk_penalized(phi: CoefficientVector, t: float, sigma_sq, n: int, m):
    """Naive risk with the variance term inflated by log^2 n, at level m (int or array of ints)."""
    return _risk(phi, t, sigma_sq, n, m, penalized=True)


def _risk_scan(phi, t, sigma_sq, n, fn) -> np.ndarray:
    """fn at m = 0..support; past it the bias tail is 0.0 and the variance sum never falls."""
    return fn(phi, t, sigma_sq, n, np.arange(phi.support + 1))


def oracle_level(phi: CoefficientVector, t: float, sigma_sq, n: int) -> int:
    """Smallest minimizer of the naive risk over all m >= 0 (it lies in 0..support)."""
    return int(np.argmin(_risk_scan(phi, t, sigma_sq, n, risk_naive)))


def restricted_oracle_level(
    phi: CoefficientVector, t: float, sigma_sq, n: int, resolution: int
) -> int:
    """Smallest minimizer of the naive risk restricted to m <= resolution."""
    resolution = _count("resolution", resolution)
    return int(np.argmin(_risk_scan(phi, t, sigma_sq, n, risk_naive)[: resolution + 1]))


def min_penalized_risk(phi: CoefficientVector, t: float, sigma_sq, n: int) -> tuple[int, float]:
    """Smallest argmin and minimum of the penalized risk over all m >= 0 (in 0..support)."""
    values = _risk_scan(phi, t, sigma_sq, n, risk_penalized)
    m = int(np.argmin(values))
    return m, float(values[m])


def truncation_remainder(phi: CoefficientVector, t: float, sigma_sq, n: int) -> float:
    """Risk mass between the deterministic lower resolution bound and the oracle.

    Zero whenever the lower bound reaches the oracle level; otherwise
    the sum of phi_k^2 + (1/n) lambda_k^-2 sigma_k^2 over the gap
    k = max(lower, 1)..m0, read off the bias tails and variance sums.
    """
    m0 = oracle_level(phi, t, sigma_sq, n)
    lower, _ = deterministic_resolution_bounds(t, n)
    if lower >= m0:
        return 0.0
    tail, variance = _risk_sums(phi, t, sigma_sq, m0)
    before = max(lower - 1, 0)
    return float(tail[before] - tail[m0] + (variance[m0] - variance[before]) / n)


def _mc_replication(payload):
    spec, config, master_seed, n, rep, m0 = payload
    sample = generate_sample(spec, n, seed=seeds.sequence(master_seed, "mc-risk", n, rep))
    report = adaptive_estimate(sample, config)
    adaptive = parseval_sq_distance(report.phi_hat, spec.phi)
    if m0 <= report.resolution:
        r_for_naive = report.r_hat[:m0]
    else:
        r_for_naive = estimate_r_coeffs(sample, m0)
    naive = naive_estimator(r_for_naive, spec.t, m0)
    return adaptive, parseval_sq_distance(naive, spec.phi), report.m_selected, report.resolution


def _usable_cores() -> int:
    """CPUs this process may run on (its affinity mask, not the host's count)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _map_payloads(fn, payloads, jobs):
    """[fn(p) for p in payloads], on at most min(jobs, len(payloads), cores) worker processes.

    One worker runs in this process; more start one pool for this call
    and stop it before returning.  The studies list their payloads by
    increasing n, so by increasing cost; the pool maps them from the last
    back, so the costliest chunks start first and the map ends on the
    cheapest, and the results are put back in payload order.
    """
    # the pool forks all its workers at its first task, so jobs is clamped first
    workers = min(jobs, len(payloads), _usable_cores())
    if workers <= 1:
        return [fn(p) for p in payloads]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        chunk = max(1, len(payloads) // (workers * 4))
        return list(pool.map(fn, payloads[::-1], chunksize=chunk))[::-1]


def _grid_rows(fn, head, n_grid, per_n, reps: int, jobs: int) -> np.ndarray:
    """fn over every payload (*head, n, rep, *per_n[i]) with n = n_grid[i] and rep < reps.

    One _map_payloads call in (n, rep) order; the results, at numpy's
    inferred dtype, are shaped (len(n_grid), reps, outputs), so row i is
    the same for any jobs and any grid holding n_grid[i].
    """
    payloads = [(*head, n, rep, *extra) for n, extra in zip(n_grid, per_n) for rep in range(reps)]
    return np.asarray(_map_payloads(fn, payloads, jobs)).reshape(len(n_grid), reps, -1)


def _checked_grid(n_grid, min_n: int = 3) -> list[int]:
    """n_grid as Python ints, if it is a nonempty, strictly increasing sequence of int sizes in min_n..max_n."""
    max_n = np.iinfo(np.intp).max // 8  # 8 n bytes must fit numpy's array size (intp)
    try:
        grid = [_count("n_grid", n, min_n) for n in n_grid]
    except (TypeError, ValueError):  # not a sequence, or a size that is no int or below min_n
        grid = []
    if not grid or grid[-1] > max_n or any(b <= a for a, b in zip(grid, grid[1:])):
        sizes = f"strictly increasing int sample sizes, at least {min_n} and at most {max_n}"
        raise _InputError("n_grid", f"n_grid must be a nonempty sequence of {sizes}")
    return grid


def _check_penalty(config: EstimatorConfig, grid) -> None:
    _each_n("config.penalty_log_exponent", config.penalty_weight, grid)


def _each_n(argument: str, rule, grid) -> list:
    """[rule(n) for n in grid], where a ValueError at some n becomes an _InputError naming argument."""
    out = []
    for n in grid:
        try:
            out.append(rule(n))
        except ValueError as exc:
            raise _InputError(argument, f"{exc} at n = {n}") from None
    return out


def _ratio_inputs(spec: DgpSpec, config: EstimatorConfig, n_grid, reps: int, master_seed: int, jobs: int) -> list[int]:
    """oracle_ratio_study's input check: its grid, or an _InputError for the first rule broken."""
    grid = _checked_grid(n_grid)
    _count("reps", reps, 2)  # two, for the standard errors
    _count("jobs", jobs, 1)
    _count("master_seed", master_seed, -math.inf)  # any int: seeds masks it to 64 bits
    if not np.any(spec.phi.coeffs):
        raise _InputError("spec.phi", "the oracle ratio needs a nonzero phi: its oracle risk is 0 at m = 0")
    _check_penalty(config, grid)
    return grid


@dataclass(frozen=True)
class OracleRatioResult:
    """Monte Carlo risk curve plus the oracle-ratio diagnostics, one entry per grid point."""

    n_grid: np.ndarray
    reps: int
    mean_loss: np.ndarray
    stderr: np.ndarray
    oracle_risk: np.ndarray
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

    Every replication of the grid goes through one _grid_rows call, so
    a parallel study starts one process pool.  Each grid point reduces
    its own row, so its mean and standard error reproduce those of the
    one-point grid [n] with the same reps and master_seed.
    """
    grid = _ratio_inputs(spec, config, n_grid, reps, master_seed, jobs)
    sigma = sigma_sq_profile(spec, spec.phi.support)
    levels, oracle_risks, log_sq = [], [], []
    for n in grid:
        levels.append(oracle_level(spec.phi, spec.t, sigma, n))
        oracle_risks.append(min_penalized_risk(spec.phi, spec.t, sigma, n)[1])
        log_sq.append(math.log(n) ** 2)
    rows = _grid_rows(_mc_replication, (spec, config, master_seed), grid, [(m0,) for m0 in levels], reps, jobs)
    adaptive, naive = rows[..., 0], rows[..., 1]
    mean = np.mean(adaptive, axis=-1)
    oracle_risk = np.asarray(oracle_risks)
    return OracleRatioResult(
        n_grid=np.asarray(grid, dtype=np.int64),
        reps=int(reps),
        mean_loss=mean,
        stderr=np.std(adaptive, axis=-1, ddof=1) / math.sqrt(reps),
        oracle_risk=oracle_risk,
        ratio=mean / (np.asarray(log_sq) * oracle_risk),
        naive_mean_loss=np.mean(naive, axis=-1),
        naive_stderr=np.std(naive, axis=-1, ddof=1) / math.sqrt(reps),
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


def _fit_grid(n_grid) -> list[int]:
    """rate_fit's grid: a study grid (_checked_grid) of at least 4 points spanning a decade, else an _InputError."""
    grid = _checked_grid(n_grid) if np.size(n_grid) >= 4 else []
    if len(grid) < 4 or grid[-1] < 10 * grid[0]:
        raise _InputError("n_grid", "rate fit needs at least 4 grid points spanning at least one decade")
    return grid


def rate_fit(n_grid, mean_loss, s: float, t: float) -> RateFit:
    """Least-squares slope of log mean_loss over the grid on the log-corrected abscissa.

    s and t are finite reals > 0, n_grid a grid _fit_grid takes, and mean_loss one positive finite loss per point.
    """
    s, t = _real("s", s, 0, strict=True), _real("t", t, 0, strict=True)
    n = np.asarray(_fit_grid(n_grid), dtype=np.float64)
    loss = np.asarray(mean_loss, dtype=np.float64)
    if loss.shape != n.shape or not np.all((loss > 0) & (loss < math.inf)):  # NaN fails too
        raise ValueError("rate fit needs one positive mean loss per grid point, each finite")
    gamma = 2.0 + 2.0 * s + 2.0 * t
    x = np.log(n) - 2.0 * gamma * np.log(np.log(n))
    y = np.log(loss)
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
    spec, config, master_seed, n, rep = payload
    sample = generate_sample(spec, n, seed=seeds.sequence(master_seed, "coverage", n, rep))
    return estimate_resolution(sample, config)


# Positive doubles sort like their bit patterns read as integers, so the
# beta quantile bisects the integers from 0 (0.0) to this one (1.0).
_ONE_BITS = 0x3FF0000000000000
# The continued fraction stops when a step changes it by less than this
# relative amount; 1e-16 is below what its rounding lets it settle to.
# Its term count grows like sqrt(a + b) only right at the mean, where I_x
# is near 1/2: at most 3,983 terms for reps = _CP_MAX_REPS, so the guard
# covers every reps _clopper_pearson takes.  At reps = 10^13 it is reached.
_FRACTION_TOL = 1e-15
_FRACTION_TERMS = 10_000
# The one level coverage-study reports (95 %), and the largest reps it takes.
_CP_ALPHA = 0.05
_CP_MAX_REPS = 10**9


def _stirling_error(x: float) -> float:
    """log Gamma(x) - [(x - 1/2) log x - x + log(2 pi)/2] for x >= 10, to 3e-17."""
    r = 1.0 / (x * x)
    return (
        1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r * (1 / 1188 - r * (691 / 360360 - r / 156)))))
    ) / x


def _log_beta(a: int, b: int) -> float:
    """log B(a, b) for integers a, b >= 1, to a few ulp of its size.

    With p = min(a, b) below 10, 1/B(a, b) = max(a, b) * C(a + b - 1, p - 1)
    is an integer of at most nine factors, so its log is rounded once.
    Otherwise the Stirling form of R's and Boost's lbeta, whose terms are
    each of the size of the result; lgamma(a) + lgamma(b) - lgamma(a + b)
    cancels terms of size (a + b) log(a + b) and loses about a + b ulp.
    """
    p, q = min(a, b), max(a, b)
    if p < 10:
        return -math.log(q * math.comb(p + q - 1, p - 1))
    s = p + q
    correction = _stirling_error(p) + _stirling_error(q) - _stirling_error(s)
    return 0.5 * math.log(2 * math.pi / q) + correction + (p - 0.5) * math.log(p / s) + q * math.log1p(-p / s)


def _beta_fraction(a: int, b: int, x: float, y: float, lam: float) -> float:
    """I_x(a, b) * B(a, b) / (x^a y^b) for y = 1 - x and lam = a - (a + b) x >= 0.

    The continued fraction BFRAC of DiDonato & Morris (ACM TOMS 18, 1992,
    Algorithm 708), by its three-term recurrence rescaled at every step.
    x and y enter only through products and y + 1, and 1 - x only
    through lam, so a caller that passes an exact x and lam loses nothing
    to the rounding of y.  For integer b the terms vanish from n = b on.
    """
    c = lam + 1.0
    c0 = b / a
    c1 = 1.0 / a + 1.0
    yp1 = y + 1.0
    p = 1.0
    s = a + 1.0
    an, bn, anp1, bnp1 = 0.0, 1.0, 1.0, c / c1
    r = c1 / c
    for n in range(1, _FRACTION_TERMS + 1):
        t = n / a
        w = n * (b - n) * x
        e = a / s
        alpha = p * (p + c0) * e * e * (w * x)
        e = (t + 1.0) / (c1 + t + t)
        beta = n + w / s + e * (c + n * yp1)
        p = t + 1.0
        s += 2.0
        an, anp1 = anp1, alpha * an + beta * anp1
        bn, bnp1 = bnp1, alpha * bn + beta * bnp1
        r0, r = r, anp1 / bnp1
        if abs(r - r0) <= _FRACTION_TOL * r:
            return r
        an, bn, anp1, bnp1 = an / bnp1, bn / bnp1, r, 1.0
    raise RuntimeError(f"the incomplete beta fraction did not converge in {_FRACTION_TERMS} terms (a={a}, b={b})")


def _beta_quantile(q: float, a: int, b: int) -> float:
    """The least double p with I_p(a, b) >= q, for integers a, b >= 1 and 0 < q < 1.

    I_x(a, b) is x^a (1 - x)^b / B(a, b) times _beta_fraction.  Below the
    mean a / (a + b) the fraction gives I_x(a, b); above it, it gives
    1 - I_x(a, b) = I_{1-x}(b, a), which is then compared with 1 - q.
    Neither tail is found by a subtraction from 1, and lam comes from x
    itself, so a bound near 0 keeps its relative accuracy.  The search
    bisects the doubles in [0, 1] by their bit patterns: 62 steps at
    most, each one evaluation of the fraction, which needs a few terms
    away from the mean and some thousands right at it for a + b = 10^9.
    """
    log_beta = _log_beta(a, b)
    lo, hi = 0, _ONE_BITS
    while hi - lo > 1:
        mid = (lo + hi) // 2
        (x,) = struct.unpack("<d", struct.pack("<q", mid))
        front = math.exp(a * math.log(x) + b * math.log1p(-x) - log_beta)
        lam = a - (a + b) * x
        if lam >= 0:
            reached = front * _beta_fraction(a, b, x, 1.0 - x, lam) >= q
        else:
            reached = front * _beta_fraction(b, a, 1.0 - x, x, -lam) <= 1.0 - q
        lo, hi = (lo, mid) if reached else (mid, hi)
    return struct.unpack("<d", struct.pack("<q", hi))[0]


def _clopper_pearson(hits: int, reps: int) -> tuple[float, float]:
    """Exact two-sided 95 % interval for a binomial proportion, reps <= 10^9.

    The bounds are the alpha/2 quantile of Beta(hits, reps - hits + 1)
    and the 1 - alpha/2 quantile of Beta(hits + 1, reps - hits), alpha =
    _CP_ALPHA (Clopper & Pearson, Biometrika 1934), and 0 at hits = 0 and
    1 at hits = reps, where those distributions degenerate.  Each quantile
    is _beta_quantile, which is within 14 ulp of the exact root on every
    test case up to reps = 500; above _CP_MAX_REPS its fraction may not converge.
    """
    if not 1 <= reps <= _CP_MAX_REPS:
        raise ValueError(f"reps must lie in 1..{_CP_MAX_REPS}, got {reps}")
    if not 0 <= hits <= reps:
        raise ValueError(f"hits must lie in 0..{reps}, got {hits}")
    low = 0.0 if hits == 0 else _beta_quantile(_CP_ALPHA / 2, hits, reps - hits + 1)
    high = 1.0 if hits == reps else _beta_quantile(1 - _CP_ALPHA / 2, hits + 1, reps - hits)
    return low, high


def _coverage_inputs(spec: DgpSpec, n_grid, reps: int, master_seed: int, jobs: int) -> tuple[list[int], list]:
    """coverage_study's input check: its grid and the bracket at each n (_summary_inputs), or an _InputError."""
    grid = _checked_grid(n_grid)
    if _count("reps", reps, 1) > _CP_MAX_REPS:
        raise _InputError("reps", f"reps must be at most {_CP_MAX_REPS}, not {reps}")
    _count("jobs", jobs, 1)
    return _summary_inputs(spec, grid, master_seed)


def coverage_study(
    spec: DgpSpec,
    config: EstimatorConfig,
    n_grid,
    reps: int,
    master_seed: int,
    jobs: int = 1,
) -> list[CoverageResult]:
    """Replicate the resolution scan at each n and count bracketing hits with an exact CI (reps <= 10^9).

    One CoverageResult per n of n_grid.  Every (n, rep) replication goes
    through one _grid_rows call, in (n, rep) order, so a parallel study
    starts one process pool and each n counts the same hits as a
    one-point grid, for any parallelism degree.
    """
    grid, brackets = _coverage_inputs(spec, n_grid, reps, master_seed, jobs)
    rows = _grid_rows(_coverage_replication, (spec, config, master_seed), grid, [()] * len(grid), reps, jobs)
    results = []
    for n, (lower, upper), row in zip(grid, brackets, rows):
        hits = int(np.sum((row >= lower) & (row < upper)))
        ci_low, ci_high = _clopper_pearson(hits, reps)
        results.append(
            CoverageResult(
                n=n,
                reps=int(reps),
                hits=hits,
                fraction=hits / reps,
                ci_low=ci_low,
                ci_high=ci_high,
                lower_bound=int(lower),
                upper_bound=int(upper),
            )
        )
    return results


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


def _summary_inputs(spec: DgpSpec, n_grid, master_seed: int) -> tuple[list[int], list[tuple[int, int]]]:
    """oracle_summary's input check: its grid and the bracket at each n, or an _InputError."""
    grid = _checked_grid(n_grid)
    _count("master_seed", master_seed, -math.inf)
    return grid, _each_n("spec.t", lambda n: deterministic_resolution_bounds(spec.t, n), grid)


def oracle_summary(
    spec: DgpSpec,
    config: EstimatorConfig,
    n_grid,
    master_seed: int,
) -> list[OracleSummary]:
    """Risk profiles over m = 0..support plus a realized resolution bound from one derived sample.

    One OracleSummary per n of n_grid, from one read of the sigma^2 oracle.
    """
    grid, brackets = _summary_inputs(spec, n_grid, master_seed)
    sigma = sigma_sq_profile(spec, spec.phi.support)
    results = []
    for n, (lower, upper) in zip(grid, brackets):
        sample = generate_sample(spec, n, seed=seeds.sequence(master_seed, "oracle-study", n, 0))
        resolution = estimate_resolution(sample, config)
        summary = OracleSummary(
            n=n,
            oracle_m=oracle_level(spec.phi, spec.t, sigma, n),
            restricted_oracle_m=restricted_oracle_level(spec.phi, spec.t, sigma, n, resolution),
            resolution=int(resolution),
            lower_bound=int(lower),
            upper_bound=int(upper),
            remainder=truncation_remainder(spec.phi, spec.t, sigma, n),
            risk_values=_risk_scan(spec.phi, spec.t, sigma, n, risk_naive),
            penalized_risk_values=_risk_scan(spec.phi, spec.t, sigma, n, risk_penalized),
        )
        results.append(summary)
    return results
