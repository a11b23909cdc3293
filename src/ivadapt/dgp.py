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
The last two terms go one row block at a time (basis._chunks), Z drawn
per row block from the same stream, so a draw holds the sample's three
arrays and row-block scratch.  Both synthesize calls take one pair of
point forms: up to _KEEP_ROTATIONS_UPTO points the rotations
exp(2 pi i X) and exp(2 pi i W), which the sample then keeps for the
estimator's walk, so a replication rotates each point of each variable
once; above it the points, which synthesize rotates one row block at a
time.
The sigma_k^2 oracle, the estimator over a sample drawn here, lives in
risk (sigma_sq_profile), so this module imports no estimator code.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .basis import CoefficientVector, FunctionFamilySpec, frequency, make_test_function, synthesize
from .basis import _chunks, _cis, _count, _InputError, _real
from .basis import basis_matrix  # noqa: F401  (unused here, but the benchmark's tracer rebinds dgp.basis_matrix)
from .serialize import write_csv

__all__ = [
    "DgpSpec",
    "IvSample",
    "eigenvalue_profile",
    "generate_sample",
    "sample_noise",
    "true_eigenvalue",
]

#: Largest sample that keeps its rotations exp(2 pi i X) and exp(2 pi i W)
#: for the estimator: 32 B per point held from sampling until the sample
#: is dropped, traded for the two rotations per point (one tan each,
#: 20 ns in all) the estimator would repeat.  Every Monte Carlo replication of
#: the studies stays below it, the 10^6-draw sample of the sigma^2 oracle
#: (risk.sigma_sq_profile) above, so the oracle's memory does not grow.
_KEEP_ROTATIONS_UPTO = 1 << 16

_TWO_PI = 2.0 * math.pi


def _mod_one(v: np.ndarray) -> np.ndarray:
    """v mod 1 in place, as v - floor(v).

    For every finite double this gives the bits of numpy's v % 1.0
    (fmod, then + 1 for a negative remainder and +0.0 for a zero one),
    in about a twentieth of its time.
    """
    v -= np.floor(v)
    return v


def true_eigenvalue(k, t):
    """Operator eigenvalue (1 + j(k))^(-t) at basis index k (scalar or array), t a finite real > 0."""
    t = _real("t", t, 0, strict=True)
    j = np.atleast_1d(np.asarray(frequency(k), dtype=np.float64))
    out = (1.0 + j) ** (-t)
    return float(out[0]) if np.ndim(k) == 0 else out


def eigenvalue_profile(K: int, t: float) -> np.ndarray:
    """Eigenvalues for k = 1..K, K an int >= 0."""
    return true_eigenvalue(np.arange(1, _count("K", K) + 1), t)


def sample_noise(t: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n circular noise values with cosine moments (1 + j)^(-t), t a finite real > 0, n an int >= 1.

    Construction: mix a wrapped Cauchy through a Gamma subordinator.
    With G ~ Gamma(t, 1) and rho = exp(-G), a wrapped Cauchy angle with
    concentration rho has E[cos(j theta)] = rho^j, hence
    E[cos(2 pi j eps)] = E[rho^j] = (1 + j)^(-t) by the Gamma Laplace
    transform, and every sine moment vanishes by symmetry.  The wrapped
    Cauchy draw uses the closed-form quantile transform, so the sampler
    is exact and O(1) per draw.

    The arithmetic is that of
    (2 arctan((1 - rho) / (1 + rho) tan(pi (v - 1/2))) / 2 pi) mod 1,
    the same operations in the same order, done in place so that at most
    three arrays of n draws are alive at once.
    """
    t = _real("t", t, 0, strict=True)
    n = _count("n", n, 1)
    rho = rng.gamma(shape=t, scale=1.0, size=n)
    np.negative(rho, out=rho)
    np.exp(rho, out=rho)
    theta = 1.0 - rho
    rho += 1.0
    theta /= rho
    del rho
    v = rng.random(n)
    v -= 0.5
    v *= np.pi
    theta *= np.tan(v, out=v)
    del v
    np.arctan(theta, out=theta)
    theta *= 2.0
    theta /= _TWO_PI
    return _mod_one(theta)


@dataclass(frozen=True)
class DgpSpec:
    """Full description of the simulated joint law of (Y, X, W).

    t > 0 is the eigenvalue decay degree, phi the true regression function,
    g the endogeneity carrier (each a CoefficientVector), a the endogeneity
    strength, and eta_sd >= 0 the standard deviation of the exogenous
    Gaussian noise (0 gives the degenerate noiseless case used in algebraic
    tests); each real finite.  A broken rule raises a ValueError naming its field.
    """

    t: float
    phi: CoefficientVector
    g: CoefficientVector
    a: float
    eta_sd: float

    def __post_init__(self):
        _real("t", self.t, 0, strict=True)
        for name in ("phi", "g"):
            if not isinstance(getattr(self, name), CoefficientVector):
                raise _InputError(name, f"{name} must be a CoefficientVector, not {getattr(self, name)!r}")
        _real("a", self.a)
        _real("eta_sd", self.eta_sd, 0)

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


@dataclass(frozen=True, eq=False)
class IvSample:
    """n observed triples (y, x, w) with x and w on the unit interval.

    _rotations is (exp(2 pi i x), exp(2 pi i w)), read-only, when
    generate_sample kept them, else None.  It is not an __init__
    argument, so it always agrees with x and w; it takes no part in ==,
    repr or the CSV, and dataclasses.replace drops it.
    """

    y: np.ndarray
    x: np.ndarray
    w: np.ndarray
    _rotations: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("y", "x", "w"):
            arr = np.asarray(getattr(self, name), dtype=np.float64).ravel()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (self.y.size == self.x.size == self.w.size):
            raise ValueError("y, x, w must have equal length")
        if self.y.size < 1:
            raise ValueError("sample must contain at least one observation")
        if not np.all(np.isfinite(self.y)):
            raise ValueError("y values must be finite")
        for name in ("x", "w"):
            arr = getattr(self, name)
            if not (arr.min() >= 0.0 and arr.max() < 1.0):  # NaN fails too
                raise ValueError(f"{name} values must lie in [0, 1)")

    def __eq__(self, other):
        if not isinstance(other, IvSample):
            return NotImplemented
        return all(np.array_equal(getattr(self, name), getattr(other, name)) for name in ("y", "x", "w"))

    @property
    def n(self) -> int:
        return int(self.y.size)

    def to_csv(self, path) -> None:
        write_csv(path, {"y": self.y, "x": self.x, "w": self.w})


def generate_sample(spec: DgpSpec, n: int, seed) -> IvSample:
    """Exact draw of n observation triples, n an int >= 1; deterministic given the seed."""
    n = _count("n", n, 1)
    rng = seeds.rng_from(seed)
    w = rng.random(n)
    x = sample_noise(spec.t, n, rng)  # eps, then x = (w + eps) mod 1 in place
    x += w
    _mod_one(x)
    size = max(spec.phi.support, spec.g.support)
    h = CoefficientVector(spec.phi.padded(size) + spec.a * spec.g.padded(size))
    tg = CoefficientVector(eigenvalue_profile(spec.g.support, spec.t) * spec.g.coeffs)
    zx, zw = (_cis(x), _cis(w)) if n <= _KEEP_ROTATIONS_UPTO else (x, w)
    # y = h(X) - a (Tg)(W) + eta_sd Z, in that order and in place, the last
    # two terms one row block at a time, so no whole-array temporary is
    # made; Z follows X in the stream (synthesize draws nothing from rng),
    # and standard_normal's row blocks are the bits of one whole-array draw
    with np.errstate(over="raise", invalid="raise"):  # FloatingPointError when the spec's magnitudes overflow
        y = synthesize(h, zx)
        for sl in _chunks(n):
            tgw = synthesize(tg, zw[sl])
            tgw *= spec.a
            y[sl] -= tgw
            z = rng.standard_normal(tgw.size)
            z *= spec.eta_sd
            y[sl] += z
    sample = IvSample(y=y, x=x, w=w)
    if np.iscomplexobj(zx):
        zx.setflags(write=False)
        zw.setflags(write=False)
        object.__setattr__(sample, "_rotations", (zx, zw))
    return sample
