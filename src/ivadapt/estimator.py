"""Adaptive spectral cut-off estimation pipeline.

From a sample of (Y, X, W) triples the pipeline estimates the response
coefficients r_hat, the operator eigenvalues lambda_hat, and the term
variances sigma_sq_hat; truncates the eigenvalue sequence at the first
index where the estimate drops below log(n) / sqrt(n); minimizes a
penalized contrast over truncation levels m; and inverts the retained
coefficients to produce the adaptive estimate.

The sample is read through three sums over its points for each basis
index k: psi_k(X) psi_k(W), Y psi_k(W) and (Y psi_k(W))^2.  One walk,
_blocks, takes all three over pairs of an index block (_SCAN_BLOCK
indices) and a row block (8,192 points, basis._chunks), so a basis table
stays near 1 MiB whatever n and K are.  The lazy resolution scan goes
index block first and stops at the first block whose lambda_hat crosses
the threshold; the standalone estimates, whose K is known up front, go
row block first in one pass.  The walk starts from the rotations
exp(2 pi i W), and exp(2 pi i X) when it needs the eigenvalues: slices
of the rotations the sampler kept (dgp._KEEP_ROTATIONS_UPTO), or, for
any other sample, rotations it makes one row block at a time, once per
call.  The lazy scan makes them all before its first index block and
keeps them, 16 B per point per variable; the one pass drops each row
block's after its last index block, so it holds one row block's.  The
walk allocates its basis tables once, as a workspace of _SCAN_BLOCK
columns by the largest row block, and every basis_matrix call writes
into it (out=).  The sigma_k^2 oracle, risk.sigma_sq_profile, runs
estimate_sigma_sq over its fixed-seed sample.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from .basis import CoefficientVector, _chunks, _cis, _count, _InputError, _real, basis_matrix
from .dgp import IvSample, eigenvalue_profile, true_eigenvalue
from .serialize import to_plain, write_csv

__all__ = [
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
#: Largest basis index the deterministic resolution bracket may reach.
_BRACKET_CAP = 10**8


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs of the adaptive estimator.

    k_max, an int >= 1, caps the eigenvalue scan: the horizon is min(n^4, k_max).
    penalty_log_exponent is the power p >= 0, a finite real, in the
    penalty weight log(n)^p / n (default 2).
    allow_empty_model, a Python or numpy bool, admits m = 0.
    A broken rule raises a ValueError naming its field.
    """

    k_max: int = 10**6
    penalty_log_exponent: float = 2.0
    allow_empty_model: bool = True

    def __post_init__(self):
        _count("k_max", self.k_max, 1)
        _real("penalty_log_exponent", self.penalty_log_exponent, 0)
        if not isinstance(self.allow_empty_model, (bool, np.bool_)):
            raise _InputError("allow_empty_model", f"allow_empty_model must be a bool, not {self.allow_empty_model!r}")

    def resolution_cap(self, n: int) -> int:
        return min(_count("n", n, 1) ** 4, self.k_max)

    def penalty_weight(self, n: int) -> float:
        """Penalty weight log(n)^p / n, n an int >= 1; ValueError when log(n)^p overflows a float."""
        n = _count("n", n, 1)
        try:
            return math.log(n) ** self.penalty_log_exponent / n
        except OverflowError:
            raise ValueError(f"penalty weight log(n)^{self.penalty_log_exponent:g} overflows a float") from None


def _blocks(sample: IvSample, cap: int, eigen: bool, moments: bool, lazy: bool):
    """Rows (lambda_hat, r_hat, sigma_sq_hat) of k = 1..cap: one array per index block, or one in all.

    The walk the module docstring describes; with cap = 0 it rotates and
    allocates nothing.  Lazy, it goes index block first and yields each
    block's array, the last cut at cap, before it builds the next block's
    tables; otherwise it goes row block first and yields one array for
    k = 1..cap.  Either way each (row block, index block) pair runs the
    same body: psi(W) once into work[0], and psi(X) only with eigen, into
    work[1], their sums added in row-block order, so an index gets the
    same bits in either order.  Each index block starts at a cosine index,
    so its tables fill at most _SCAN_BLOCK rows of the workspace, and row
    blocks do not depend on the index block, so an index gets the same
    bits in a short block as in a full one.  Rows not asked for
    (lambda_hat without eigen, the moments without moments) are 0, and a
    FloatingPointError reports a moment product or sum that overflows.
    sigma_sq_hat is uncentred: the mean of (Y psi_k(W))^2 minus r_hat^2,
    clipped at 0.
    """
    if cap < 1:
        return
    n = sample.n
    chunks = _chunks(n)
    zx, zw = sample._rotations or (None, None)
    row_blocks = (
        (sample.y[sl], _rotate(sample.x, zx, sl) if eigen else None, _rotate(sample.w, zw, sl)) for sl in chunks
    )
    if lazy:  # every row block rotated before the first index block, and kept for the next
        row_blocks = list(row_blocks)
        spans = ((k0, min(k0 + _SCAN_BLOCK, cap + 1)) for k0 in range(1, cap + 1, _SCAN_BLOCK))
    else:  # one pass: each row block rotated, used for every index block, then dropped
        spans = [(1, cap + 1)]
    work = np.empty((1 + eigen, _SCAN_BLOCK * max(sl.stop - sl.start for sl in chunks)))
    for first, stop in spans:
        sums = np.zeros((3, stop - first))
        for y, zeta_x, zeta_w in row_blocks:
            for k0 in range(first, stop, _SCAN_BLOCK):
                ks = np.arange(k0, min(k0 + _SCAN_BLOCK, stop))
                block = sums[:, k0 - first : k0 - first + ks.size]
                bw = basis_matrix(zeta_w, ks, out=work[0]).T
                if eigen:
                    block[0] += np.einsum("ij,ij->i", basis_matrix(zeta_x, ks, out=work[1]).T, bw)
                if moments:
                    with np.errstate(over="raise"):
                        bw *= y
                        block[1] += bw.sum(axis=1)
                        bw *= bw
                        block[2] += bw.sum(axis=1)
        sums /= n  # the sums become the estimates in place
        sums[2] -= sums[1] * sums[1]
        np.maximum(sums[2], 0.0, out=sums[2])
        yield sums


def _rotate(points: np.ndarray, zeta: np.ndarray | None, sl: slice) -> np.ndarray:
    """exp(2 pi i points[sl]): a slice of the rotations zeta when the sample has them, else evaluated."""
    return _cis(points[sl]) if zeta is None else zeta[sl]


def _estimates_upto(sample: IvSample, K: int, eigen: bool, moments: bool) -> np.ndarray:
    """The rows (lambda_hat, r_hat, sigma_sq_hat) for k = 1..K, K an int >= 0: _blocks's one row-first pass."""
    return next(_blocks(sample, _count("K", K), eigen, moments, lazy=False), np.zeros((3, 0)))


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
    """Noise level log(n) / sqrt(n) below which estimated eigenvalues are cut; n an int >= 3 (so log n exceeds 1)."""
    n = _count("n", n, 3)
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


def _resolution_scan(sample: IvSample, config: EstimatorConfig, moments: bool) -> tuple[np.ndarray, bool]:
    """Lazy eigenvalue scan up to the threshold crossing or the cap.

    Each block's lambda_hat is cut by select_resolution, so the scan
    applies the rule that function states.  Returns the rows
    (lambda_hat, r_hat, sigma_sq_hat) for k = 1..resolution, one column
    per index, and cap_reached.
    """
    cap = config.resolution_cap(sample.n)
    kept: list[np.ndarray] = []
    for estimates in _blocks(sample, cap, eigen=True, moments=moments, lazy=True):
        resolution = select_resolution(estimates[0], sample.n, config)
        kept.append(estimates[:, :resolution])
        if resolution < estimates.shape[1]:
            break
    estimates = np.concatenate(kept, axis=1)
    return estimates, estimates.shape[1] == cap


def estimate_resolution(sample: IvSample, config: EstimatorConfig | None = None) -> int:
    """Data-driven resolution bound via the lazy eigenvalue scan (no moments)."""
    estimates, _ = _resolution_scan(sample, config or EstimatorConfig(), moments=False)
    return estimates.shape[1]


def deterministic_resolution_bounds(t: float, n: int) -> tuple[int, int]:
    """Deterministic bracket (lower, upper) for the random resolution bound.

    lower uses the inflated threshold log(n)^2 / sqrt(n) and subtracts
    one; upper uses the deflated threshold log(n)^(3/4) / sqrt(n)
    without subtracting (the two thresholds sandwich the data-driven
    one, so lower <= M < upper with high probability).  Raises
    ValueError unless t is a finite real > 0 and n an int >= 3 (checked
    before the cache), or when a crossing lies beyond basis index 10^8.
    Cached by (t, n), so a study's input check and the study find each bracket once.
    """
    return _bracket(_real("t", t, 0, strict=True), _count("n", n, 3))


@functools.cache
def _bracket(t: float, n: int) -> tuple[int, int]:
    root_n = math.sqrt(n)
    lower = _first_eigenvalue_crossing(t, math.log(n) ** 2 / root_n) - 1
    upper = _first_eigenvalue_crossing(t, math.log(n) ** 0.75 / root_n)
    return lower, upper


def _first_eigenvalue_crossing(t: float, threshold: float) -> int:
    """Smallest basis index k with true_eigenvalue(k, t) <= threshold.

    Found by bisection on the exact eigenvalues: they fall with the
    frequency j, whose first index is the cosine index 2j - 1, so the
    search bisects j = 1..(_BRACKET_CAP + 1) // 2 on the test
    true_eigenvalue(2j - 1, t) <= threshold.
    """
    frequencies = range(1, (_BRACKET_CAP + 1) // 2 + 1)
    i = bisect.bisect_left(frequencies, True, key=lambda j: true_eigenvalue(2 * j - 1, t) <= threshold)
    if i == len(frequencies):
        raise ValueError(f"eigenvalues at t = {t:g} exceed {threshold:.3g} to basis index {_BRACKET_CAP}: no bracket")
    return 2 * frequencies[i] - 1


def naive_estimator(r_hat, t: float, m: int) -> CoefficientVector:
    """Known-operator projection estimate r_hat_k / lambda_k for k <= m."""
    m = _count("m", m)
    r = np.asarray(r_hat, dtype=np.float64)
    if m > r.size:
        raise ValueError("truncation level m exceeds the available coefficients")
    return CoefficientVector(r[:m] / eigenvalue_profile(m, t))


def thresholded_estimator(r_hat, lambda_hat, m: int, resolution: int) -> CoefficientVector:
    """Estimated-operator projection r_hat_k / lambda_hat_k, support <= min(m, resolution)."""
    m = _count("m", m)
    resolution = _count("resolution", resolution)
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
    m = _count("m", m)
    if m > min(np.size(a) for a in (r_hat, lambda_hat, sigma_sq_hat)):
        raise ValueError("truncation level m exceeds the available coefficients")
    return float(_criterion_values(r_hat, lambda_hat, sigma_sq_hat, config.penalty_weight(n), m)[m])


def select_level(criterion_values, allow_empty: bool = True) -> int:
    """Smallest minimizer of the contrast over m = 0..len-1 (ties go small); allow_empty a Python or numpy bool."""
    if not isinstance(allow_empty, (bool, np.bool_)):
        raise _InputError("allow_empty", f"allow_empty must be a bool, not {allow_empty!r}")
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
        return {**to_plain(self), "empty_model": self.empty_model}

    def write_phi_csv(self, path) -> None:
        coeffs = self.phi_hat.coeffs
        write_csv(path, {"k": np.arange(1, coeffs.size + 1), "coefficient": coeffs})


def adaptive_estimate(sample: IvSample, config: EstimatorConfig | None = None) -> EstimateReport:
    """Run the full pipeline: scan, coefficients, contrast, selection, inversion."""
    config = config or EstimatorConfig()
    n = sample.n
    resolution_threshold(n)  # ValueError below n = 3
    weight = config.penalty_weight(n)  # before the scan, so that an overflowing weight fails first
    (lambda_hat, r_hat, sigma_sq_hat), cap_reached = _resolution_scan(sample, config, moments=True)
    resolution = r_hat.size
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
