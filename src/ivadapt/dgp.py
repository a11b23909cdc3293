"""Exact sampler for a circular instrumental-variable model.

The instrument W is uniform on [0, 1), the regressor is X = W + eps
mod 1 with circular noise eps, so the conditional-expectation operator
g -> E[g(X) | W] is diagonal in the trigonometric basis.  The noise law
is chosen so the eigenvalue at frequency j is exactly (1 + j)^(-t),
giving polynomial decay of degree t in the basis index.

The error U = a (g(X) - (Tg)(W)) + eta satisfies E[U | W] = 0
identically while E[U | X] != 0 whenever a != 0 and g != 0, so the
regressor is endogenous and W is a valid instrument by construction.
The response Y = phi(X) + U is synthesized as h(X) - a (Tg)(W) + eta Z
with h = phi + a g and Z standard normal, so X is synthesized once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import seeds
from .basis import CoefficientVector, FunctionFamilySpec, basis_matrix, frequency, make_test_function, synthesize
from .serialize import write_csv

__all__ = [
    "ORACLE_DRAWS",
    "ORACLE_SEED",
    "DgpSpec",
    "IvSample",
    "apply_operator",
    "eigenvalue_profile",
    "generate_sample",
    "sample_noise",
    "sigma_sq_profile",
    "true_eigenvalue",
]

#: Fixed seed and size of the Monte Carlo oracle used for sigma_k^2.
ORACLE_SEED = 741_003
ORACLE_DRAWS = 10**6

_TWO_PI = 2.0 * math.pi
_BLOCK_CELLS = 1 << 20


def true_eigenvalue(k, t):
    """Operator eigenvalue (1 + j(k))^(-t) at basis index k (scalar or array)."""
    if t <= 0:
        raise ValueError("ill-posedness degree t must be positive")
    j = np.atleast_1d(np.asarray(frequency(k), dtype=np.float64))
    out = (1.0 + j) ** (-float(t))
    return float(out[0]) if np.ndim(k) == 0 else out


def eigenvalue_profile(K: int, t: float) -> np.ndarray:
    """Eigenvalues for k = 1..K."""
    return true_eigenvalue(np.arange(1, K + 1), t)


def sample_noise(t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n circular noise values with cosine moments (1 + j)^(-t).

    Construction: mix a wrapped Cauchy through a Gamma subordinator.
    With G ~ Gamma(t, 1) and rho = exp(-G), a wrapped Cauchy angle with
    concentration rho has E[cos(j theta)] = rho^j, hence
    E[cos(2 pi j eps)] = E[rho^j] = (1 + j)^(-t) by the Gamma Laplace
    transform, and every sine moment vanishes by symmetry.  The wrapped
    Cauchy draw uses the closed-form quantile transform, so the sampler
    is exact and O(1) per draw.
    """
    if t <= 0:
        raise ValueError("ill-posedness degree t must be positive")
    if n < 1:
        raise ValueError("need at least one draw")
    g = rng.gamma(shape=t, scale=1.0, size=n)
    rho = np.exp(-g)
    v = rng.random(n)
    theta = 2.0 * np.arctan(((1.0 - rho) / (1.0 + rho)) * np.tan(np.pi * (v - 0.5)))
    return (theta / _TWO_PI) % 1.0


def apply_operator(f: CoefficientVector, t: float) -> CoefficientVector:
    """Coefficient-wise image under the operator: (Tf)[k] = lambda_k f[k]."""
    return CoefficientVector(eigenvalue_profile(f.support, t) * f.coeffs)


@dataclass(frozen=True)
class DgpSpec:
    """Full description of the simulated joint law of (Y, X, W).

    t is the eigenvalue decay degree, phi the true regression function,
    g the endogeneity carrier, a the endogeneity strength, and eta_sd
    the standard deviation of the exogenous Gaussian noise (0 gives the
    degenerate noiseless case used in algebraic tests).
    """

    t: float
    phi: CoefficientVector
    g: CoefficientVector
    a: float
    eta_sd: float

    def __post_init__(self):
        for name in ("t", "a", "eta_sd"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if self.t <= 0:
            raise ValueError("ill-posedness degree t must be positive")
        if self.eta_sd < 0:
            raise ValueError("eta_sd must be nonnegative")

    @classmethod
    def default(cls) -> "DgpSpec":
        """Reference configuration for the Monte Carlo studies."""
        phi = make_test_function(
            FunctionFamilySpec(kind="sobolev", s=1.0, q=2.0, amplitude=1.0, k_support=50)
        )
        return cls(t=1.0, phi=phi, g=CoefficientVector([1.0, 0.5]), a=0.5, eta_sd=0.5)

    def key(self) -> tuple:
        return (
            float(self.t),
            float(self.a),
            float(self.eta_sd),
            self.phi.coeffs.tobytes(),
            self.g.coeffs.tobytes(),
        )

    def to_json_dict(self) -> dict:
        return {
            "t": float(self.t),
            "a": float(self.a),
            "eta_sd": float(self.eta_sd),
            "phi": self.phi.to_json_dict(),
            "g": self.g.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "DgpSpec":
        return cls(
            t=float(payload["t"]),
            a=float(payload["a"]),
            eta_sd=float(payload["eta_sd"]),
            phi=CoefficientVector.from_json_dict(payload["phi"]),
            g=CoefficientVector.from_json_dict(payload["g"]),
        )


@dataclass(frozen=True)
class IvSample:
    """n observed triples (y, x, w) with x and w on the unit interval."""

    y: np.ndarray
    x: np.ndarray
    w: np.ndarray

    def __post_init__(self):
        for name in ("y", "x", "w"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.y.size == self.x.size == self.w.size):
            raise ValueError("y, x, w must have equal length")
        if self.y.size < 1:
            raise ValueError("sample must contain at least one observation")
        for name in ("x", "w"):
            arr = getattr(self, name)
            if arr.min() < 0.0 or arr.max() >= 1.0:
                raise ValueError(f"{name} values must lie in [0, 1)")

    @property
    def n(self) -> int:
        return int(self.y.size)

    def scaled_response(self, c: float) -> "IvSample":
        return IvSample(y=float(c) * self.y, x=self.x, w=self.w)

    def to_csv(self, path) -> None:
        write_csv(path, {"y": self.y, "x": self.x, "w": self.w})

    @classmethod
    def from_csv(cls, path) -> "IvSample":
        text = Path(path).read_text(encoding="utf-8").strip().splitlines()
        if not text or text[0] != "y,x,w":
            raise ValueError("sample CSV must start with header 'y,x,w'")
        data = np.array([[float(c) for c in line.split(",")] for line in text[1:]])
        return cls(y=data[:, 0], x=data[:, 1], w=data[:, 2])


def generate_sample(spec: DgpSpec, n: int, seed) -> IvSample:
    """Exact draw of n observation triples; deterministic given the seed."""
    if n < 1:
        raise ValueError("sample size must be positive")
    rng = seeds.rng_from(seed)
    w = rng.random(n)
    eps = sample_noise(spec.t, n, rng)
    z = rng.standard_normal(n)
    x = (w + eps) % 1.0
    size = max(spec.phi.support, spec.g.support)
    h = CoefficientVector(spec.phi.padded(size) + spec.a * spec.g.padded(size))
    y = synthesize(h, x) - spec.a * synthesize(apply_operator(spec.g, spec.t), w) + spec.eta_sd * z
    return IvSample(y=y, x=x, w=w)


def _chunks(n: int, width: int) -> list[slice]:
    """Row blocks covering 0..n-1, each of at most _BLOCK_CELLS cells.

    A block holds max(1, _BLOCK_CELLS // width) rows, so a basis block
    of ``width`` columns stays near 8 MiB whatever n and K are: large
    enough that a replication-sized sample (n <= 2^15, K <= 32) is one
    block, small enough that the 10^6 x 100 oracle never materializes.
    """
    rows = max(1, _BLOCK_CELLS // max(1, width))
    return [slice(i0, min(i0 + rows, n)) for i0 in range(0, n, rows)]


def _response_moments(sample: IvSample, K: int) -> tuple:
    """Mean, centred second and centred fourth moment of Z_k = Y psi_k(W), k = 1..K.

    Two passes over row blocks: the first gives the mean of Z_k, the
    second the mean centred square and fourth power.  Both work on the
    (K, rows) transpose of the basis block, so every reduction runs
    along contiguous memory.  A sample of one block builds its basis
    once for both passes.
    """
    n = sample.n
    ks = np.arange(1, K + 1)
    chunks = _chunks(n, K)
    whole = basis_matrix(sample.w, ks).T if len(chunks) == 1 else None

    def basis_t(sl):
        return whole if whole is not None else basis_matrix(sample.w[sl], ks).T

    total = np.zeros(K)
    for sl in chunks:
        total += basis_t(sl) @ sample.y[sl]
    mean = total / n
    centre = mean[:, None]
    acc2 = np.zeros(K)
    acc4 = np.zeros(K)
    for sl in chunks:
        dev = basis_t(sl) * sample.y[sl]
        dev -= centre
        dev *= dev
        acc2 += np.sum(dev, axis=1)
        dev *= dev
        acc4 += np.sum(dev, axis=1)
    return mean, acc2 / n, acc4 / n


_SIGMA_CACHE: dict = {}


def sigma_sq_profile(
    spec: DgpSpec,
    K: int,
    n_draws: int = ORACLE_DRAWS,
    seed: int = ORACLE_SEED,
) -> tuple[np.ndarray, np.ndarray]:
    """Monte Carlo oracle for sigma_k^2 = Var(Y psi_k(W)), k = 1..K.

    Returns (values, standard errors), cached per (spec, K, n_draws,
    seed) so oracle risks are reproducible constants for a given spec.
    """
    if K < 1:
        raise ValueError("need K >= 1")
    cache_key = (spec.key(), int(K), int(n_draws), int(seed))
    hit = _SIGMA_CACHE.get(cache_key)
    if hit is not None:
        return hit
    sample = generate_sample(spec, n_draws, seed=seeds.sequence(seed, "sigma-oracle"))
    _, var, mu4 = _response_moments(sample, K)
    se = np.sqrt(np.maximum(mu4 - var**2, 0.0) / n_draws)
    var.setflags(write=False)
    se.setflags(write=False)
    _SIGMA_CACHE[cache_key] = (var, se)
    return var, se
