"""Adaptive spectral cut-off estimation pipeline.

From a sample of (Y, X, W) triples the pipeline estimates the response
coefficients r_hat, the operator eigenvalues lambda_hat, and the term
variances sigma_sq_hat; truncates the eigenvalue sequence at the first
index where the estimate drops below log(n) / sqrt(n); minimizes a
penalized contrast over truncation levels m; and inverts the retained
coefficients to produce the adaptive estimate.

Every sum over the sample is taken in blocks of _SCAN_BLOCK basis
indices (_blocks) and, within a block, of _SCAN_ROWS rows (_chunks), so
a basis block stays near 8 MiB whatever n and K are.  The sigma_k^2
oracle in dgp runs estimate_sigma_sq over its fixed-seed sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import CoefficientVector, basis_matrix
from .dgp import IvSample, eigenvalue_profile, true_eigenvalue
from .serialize import to_plain, write_csv

__all__ = [
    "DegenerateSampleError",
    "EstimateReport",
    "EstimatorConfig",
    "adaptive_estimate",
    "deterministic_resolution_bounds",
    "estimate_eigenvalues",
    "estimate_r_coeffs",
    "estimate_resolution",
    "estimate_sigma_sq",
    "naive_estimator",
    "penalized_criterion",
    "select_level",
    "select_resolution",
    "thresholded_estimator",
]

_SCAN_BLOCK = 16
#: Rows per row block: a 2^20-cell basis block of _SCAN_BLOCK columns.
_SCAN_ROWS = (1 << 20) // _SCAN_BLOCK
#: Largest basis index the deterministic resolution bracket may reach.
_BRACKET_CAP = 10**8


class DegenerateSampleError(ValueError):
    """Raised when the sample is too small for the resolution threshold."""


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs of the adaptive estimator.

    k_max caps the eigenvalue scan: the horizon is min(n^4, k_max).
    penalty_log_exponent is the power p in the penalty weight
    log(n)^p / n (default 2).
    allow_empty_model admits m = 0.
    """

    k_max: int = 10**6
    penalty_log_exponent: float = 2.0
    allow_empty_model: bool = True

    def __post_init__(self):
        if self.k_max < 1:
            raise ValueError("k_max must be positive")
        if not math.isfinite(self.penalty_log_exponent):
            raise ValueError("penalty_log_exponent must be finite")
        if self.penalty_log_exponent < 0:
            raise ValueError("penalty_log_exponent must be nonnegative")

    def resolution_cap(self, n: int) -> int:
        return min(int(n) ** 4, self.k_max)


def _chunks(n: int) -> list[slice]:
    """Row blocks of _SCAN_ROWS rows covering 0..n-1 (one block for n <= 2^16)."""
    return [slice(i0, min(i0 + _SCAN_ROWS, n)) for i0 in range(0, n, _SCAN_ROWS)]


def _block_sums(sample: IvSample, ks: np.ndarray, eigen: bool, moments: bool) -> np.ndarray:
    """Sums over the sample for the basis indices ks: three rows, one column per index.

    With eigen, row 0 sums psi_k(X) psi_k(W); with moments, rows 1 and 2
    sum Y psi_k(W) and (Y psi_k(W))^2.  Rows not asked for stay 0.  Each
    row block builds psi(W) once, and psi(X) only with eigen.  Row
    blocks do not depend on len(ks), so an index gets the same sums in a
    short block as in a full one.
    """
    sums = np.zeros((3, ks.size))
    for sl in _chunks(sample.n):
        bw = basis_matrix(sample.w[sl], ks).T
        if eigen:
            sums[0] += np.einsum("ij,ij->i", basis_matrix(sample.x[sl], ks).T, bw)
        if moments:
            bw *= sample.y[sl]
            sums[1] += bw.sum(axis=1)
            bw *= bw
            sums[2] += bw.sum(axis=1)
    return sums


def _estimates(sums: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lambda_hat, r_hat, sigma_sq_hat) from the rows of _block_sums."""
    r_hat = sums[1] / n
    return sums[0] / n, r_hat, np.maximum(sums[2] / n - r_hat * r_hat, 0.0)


def _blocks(sample: IvSample, cap: int, eigen: bool, moments: bool):
    """_block_sums for k = 1..cap, _SCAN_BLOCK indices at a time, the last block cut at cap."""
    for k0 in range(1, cap + 1, _SCAN_BLOCK):
        yield _block_sums(sample, np.arange(k0, min(k0 + _SCAN_BLOCK, cap + 1)), eigen, moments)


def _estimates_upto(
    sample: IvSample, K: int, eigen: bool, moments: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_estimates for k = 1..K over the scan's blocks."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    blocks = [np.zeros((3, 0)), *_blocks(sample, K, eigen, moments)]
    return _estimates(np.concatenate(blocks, axis=1), sample.n)


def estimate_r_coeffs(sample: IvSample, K: int) -> np.ndarray:
    """Empirical response coefficients (1/n) sum_i Y_i psi_k(W_i), k = 1..K."""
    return _estimates_upto(sample, K, eigen=False, moments=True)[1]


def estimate_eigenvalues(sample: IvSample, K: int) -> np.ndarray:
    """Empirical eigenvalues (1/n) sum_i psi_k(W_i) phi_k(X_i), k = 1..K."""
    return _estimates_upto(sample, K, eigen=True, moments=False)[0]


def estimate_sigma_sq(sample: IvSample, K: int) -> np.ndarray:
    """Biased empirical variance of {Y_i psi_k(W_i)} (divide by n), k = 1..K.

    Computed uncentred, as the mean square minus the squared mean
    (clipped at 0), from the same sums as adaptive_estimate; it is
    within about 1e-15 relative of the centred two-pass form.
    """
    return _estimates_upto(sample, K, eigen=False, moments=True)[2]


def resolution_threshold(n: int) -> float:
    """Noise level log(n) / sqrt(n) below which estimated eigenvalues are cut."""
    if n < 3:
        raise DegenerateSampleError("need n >= 3 so that log n exceeds 1")
    return math.log(n) / math.sqrt(n)


def select_resolution(lambda_hat, n: int, config: EstimatorConfig | None = None) -> int:
    """First index where |lambda_hat| falls to the noise level, minus one.

    Returns the scan horizon itself when no crossing occurs (permissive
    cap convention); 0 means the empty model.
    """
    config = config or EstimatorConfig()
    lam = np.asarray(lambda_hat, dtype=np.float64)
    thr = resolution_threshold(n)
    horizon = min(lam.size, config.resolution_cap(n))
    below = np.nonzero(np.abs(lam[:horizon]) <= thr)[0]
    return int(below[0]) if below.size else int(horizon)


def _resolution_scan(sample: IvSample, config: EstimatorConfig, moments: bool):
    """Lazy eigenvalue scan up to the threshold crossing or the cap.

    Each block of indices is cut by select_resolution, so the scan
    applies the rule that function states.  Returns (resolution,
    _block_sums rows for k = 1..resolution, cap_reached).
    """
    cap = config.resolution_cap(sample.n)
    collected: list[np.ndarray] = []
    for sums in _blocks(sample, cap, eigen=True, moments=moments):
        kept = select_resolution(sums[0] / sample.n, sample.n, config)
        collected.append(sums[:, :kept])
        if kept < sums.shape[1]:
            break
    sums = np.concatenate(collected, axis=1)
    return sums.shape[1], sums, sums.shape[1] == cap


def estimate_resolution(sample: IvSample, config: EstimatorConfig | None = None) -> int:
    """Data-driven resolution bound via the lazy eigenvalue scan (no moments)."""
    resolution, _, _ = _resolution_scan(sample, config or EstimatorConfig(), moments=False)
    return resolution


def deterministic_resolution_bounds(t: float, n: int) -> tuple[int, int]:
    """Deterministic bracket (lower, upper) for the random resolution bound.

    lower uses the inflated threshold log(n)^2 / sqrt(n) and subtracts
    one; upper uses the deflated threshold log(n)^(3/4) / sqrt(n)
    without subtracting (the two thresholds sandwich the data-driven
    one, so lower <= M < upper with high probability).  Raises
    ValueError when a crossing lies beyond basis index 10^8.
    """
    if n < 3:
        raise ValueError("bounds need n >= 3 so that log n exceeds 1")
    root_n = math.sqrt(n)
    lower = _first_eigenvalue_crossing(t, math.log(n) ** 2 / root_n) - 1
    upper = _first_eigenvalue_crossing(t, math.log(n) ** 0.75 / root_n)
    return lower, upper


def _first_eigenvalue_crossing(t: float, threshold: float) -> int:
    """Smallest basis index k with true_eigenvalue(k, t) <= threshold.

    (1 + j)^(-t) <= threshold exactly when j >= threshold^(-1/t) - 1, so
    the crossing is the cosine index 2j - 1 of the first such frequency
    j.  That frequency is then checked against true_eigenvalue at its
    neighbours, so rounding in the power cannot move the result.
    """
    if t <= 0:
        raise ValueError("ill-posedness degree t must be positive")
    if -math.log(threshold) / t <= math.log(_BRACKET_CAP):  # log(1 + j) at the crossing
        j = max(1, math.ceil(threshold ** (-1.0 / t) - 1.0))
        while True:
            prev, cur = true_eigenvalue(np.array([max(1, 2 * j - 3), 2 * j - 1]), t)
            if cur > threshold:
                j += 1
            elif j > 1 and prev <= threshold:
                j -= 1
            else:
                break
        if 2 * j - 1 <= _BRACKET_CAP:
            return 2 * j - 1
    raise ValueError(f"eigenvalues at t = {t:g} stay above {threshold:.3g} up to basis index {_BRACKET_CAP}")


def naive_estimator(r_hat, t: float, m: int) -> CoefficientVector:
    """Known-operator projection estimate r_hat_k / lambda_k for k <= m."""
    r = np.asarray(r_hat, dtype=np.float64)
    if m < 0 or m > r.size:
        raise ValueError("truncation level m exceeds the available coefficients")
    return CoefficientVector(r[:m] / eigenvalue_profile(m, t))


def thresholded_estimator(r_hat, lambda_hat, m: int, resolution: int) -> CoefficientVector:
    """Estimated-operator projection r_hat_k / lambda_hat_k, support <= min(m, resolution)."""
    if m < 0:
        raise ValueError("truncation level m must be nonnegative")
    r = np.asarray(r_hat, dtype=np.float64)
    lam = np.asarray(lambda_hat, dtype=np.float64)
    mm = min(m, resolution, r.size, lam.size)
    return CoefficientVector(r[:mm] / lam[:mm])


def _criterion_values(r_hat, lambda_hat, sigma_sq_hat, weight: float, upto: int) -> np.ndarray:
    r, lam, sig = (np.asarray(a, dtype=np.float64)[:upto] for a in (r_hat, lambda_hat, sigma_sq_hat))
    inv_sq = 1.0 / (lam * lam)
    return np.concatenate(([0.0], -np.cumsum(r * r * inv_sq) + weight * np.cumsum(sig * inv_sq)))


def penalized_criterion(
    r_hat, lambda_hat, sigma_sq_hat, m: int, n: int, config: EstimatorConfig | None = None
) -> float:
    """Contrast -sum_k lambda_hat^-2 r_hat^2 + (log^p n / n) sum_k lambda_hat^-2 sigma_hat^2."""
    config = config or EstimatorConfig()
    if m < 0:
        raise ValueError("truncation level m must be nonnegative")
    weight = math.log(n) ** config.penalty_log_exponent / n
    return float(_criterion_values(r_hat, lambda_hat, sigma_sq_hat, weight, m)[m])


def select_level(criterion_values, allow_empty: bool = True) -> int:
    """Smallest minimizer of the contrast over m = 0..len-1 (ties go small)."""
    values = np.asarray(criterion_values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("criterion values must be nonempty")
    if allow_empty or values.size == 1:
        return int(np.argmin(values))
    return 1 + int(np.argmin(values[1:]))


@dataclass(frozen=True)
class EstimateReport:
    """Everything computed from one sample.

    Arrays r_hat, lambda_hat, sigma_sq_hat cover k = 1..resolution and
    every retained |lambda_hat_k| exceeds log(n) / sqrt(n); criterion
    holds the contrast at m = 0..resolution.  phi_hat has support
    exactly m_selected with coefficients r_hat_k / lambda_hat_k.
    cap_reached flags the no-crossing fallback where the resolution is
    the scan horizon itself.
    """

    n: int
    resolution: int
    r_hat: np.ndarray
    lambda_hat: np.ndarray
    sigma_sq_hat: np.ndarray
    criterion: np.ndarray
    m_selected: int
    phi_hat: CoefficientVector
    config: EstimatorConfig
    cap_reached: bool = False

    @property
    def empty_model(self) -> bool:
        return self.m_selected == 0

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "resolution": self.resolution,
            "r_hat": to_plain(self.r_hat),
            "lambda_hat": to_plain(self.lambda_hat),
            "sigma_sq_hat": to_plain(self.sigma_sq_hat),
            "criterion": to_plain(self.criterion),
            "m_selected": self.m_selected,
            "phi_hat": self.phi_hat.to_json_dict(),
            "empty_model": self.empty_model,
            "cap_reached": self.cap_reached,
            "config": to_plain(self.config),
        }

    def write_phi_csv(self, path) -> None:
        coeffs = self.phi_hat.coeffs
        write_csv(path, {"k": np.arange(1, coeffs.size + 1), "coefficient": coeffs})


def adaptive_estimate(sample: IvSample, config: EstimatorConfig | None = None) -> EstimateReport:
    """Run the full pipeline: scan, coefficients, contrast, selection, inversion."""
    config = config or EstimatorConfig()
    n = sample.n
    if n < 3:
        raise DegenerateSampleError("need n >= 3 so that log n exceeds 1")
    resolution, sums, cap_reached = _resolution_scan(sample, config, moments=True)
    lambda_hat, r_hat, sigma_sq_hat = _estimates(sums, n)
    weight = math.log(n) ** config.penalty_log_exponent / n
    criterion = _criterion_values(r_hat, lambda_hat, sigma_sq_hat, weight, resolution)
    m_selected = select_level(criterion, allow_empty=config.allow_empty_model)
    phi_hat = thresholded_estimator(r_hat, lambda_hat, m_selected, resolution)
    return EstimateReport(
        n=n,
        resolution=resolution,
        r_hat=r_hat,
        lambda_hat=lambda_hat,
        sigma_sq_hat=sigma_sq_hat,
        criterion=criterion,
        m_selected=m_selected,
        phi_hat=phi_hat,
        config=config,
        cap_reached=cap_reached,
    )
