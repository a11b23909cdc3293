"""Real trigonometric basis on [0, 1] and finite coefficient vectors.

Single-index convention: the basis index k = 1, 2, ... maps to the
frequency j(k) = ceil(k / 2).  Odd k is the cosine mode
sqrt(2) cos(2 pi j x), even k the sine mode sqrt(2) sin(2 pi j x).
The constant mode is excluded by design, so every represented function
has mean zero on [0, 1] and the index k is in bijection with
(frequency, phase) pairs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SUP_NORM_BOUND",
    "CoefficientVector",
    "FunctionFamilySpec",
    "basis_matrix",
    "frequency",
    "make_test_function",
    "parseval_sq_distance",
    "synthesize",
]

#: Uniform bound achieved by every basis function: sup |e_k| = sqrt(2).
SUP_NORM_BOUND = math.sqrt(2.0)

_SQRT2 = math.sqrt(2.0)
_TWO_PI = 2.0 * math.pi


def frequency(k):
    """Frequency j(k) = ceil(k / 2) of basis index k (scalar or array)."""
    karr = np.asarray(k)
    if np.any(karr < 1):
        raise ValueError("basis index must satisfy k >= 1")
    j = (karr + 1) // 2
    return int(j) if np.ndim(k) == 0 else j


def basis_matrix(x, ks) -> np.ndarray:
    """Evaluate basis functions on a grid: out[i, m] = e_{ks[m]}(x[i]).

    One cos/sin table row per distinct frequency, in increasing order.
    A frequency one above its predecessor comes from the angle-addition
    step; any other is evaluated directly.  Cost is O(n x distinct
    frequencies), and the recurrence drifts by about run length x eps.

    The result is the transpose of a C-ordered (len(ks), n) table, so it
    is F-ordered: each column is contiguous, and reducing over points
    (``out.T @ y``, ``einsum("ij,ij->j", ...)``) needs no copy.  Values
    do not depend on the layout; use ``np.ascontiguousarray`` where C
    order is required.
    """
    x = np.asarray(x, dtype=np.float64)
    ks = np.asarray(ks, dtype=np.int64)
    if ks.size and ks.min() < 1:
        raise ValueError("basis index must satisfy k >= 1")
    if x.size and (x.min() < 0.0 or x.max() > 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    j = (ks + 1) // 2
    freqs = sorted(set(j.tolist()))
    tab = np.empty((len(freqs), 2, x.size))  # cos and sin row per frequency
    c1 = s1 = None
    for row, f in enumerate(freqs):
        c, s = tab[row]
        if row and f == freqs[row - 1] + 1:
            if c1 is None:
                ang = _TWO_PI * x
                c1, s1 = np.cos(ang), np.sin(ang)
            cp, sp = tab[row - 1]
            np.multiply(cp, c1, out=c)
            c -= sp * s1
            np.multiply(sp, c1, out=s)
            s += cp * s1
        else:
            ang = _TWO_PI * (x * f)
            np.cos(ang, out=c)
            np.sin(ang, out=s)
            if f == 1:
                c1, s1 = c, s
    rows = tab.reshape(2 * len(freqs), x.size)
    cols = 2 * np.searchsorted(freqs, j) + (ks % 2 == 0)
    if np.array_equal(cols, np.arange(cols.size)):
        out = rows[: cols.size]  # already in table order: no gather
    else:
        out = rows[cols]
    out *= _SQRT2
    return out.T


@dataclass(frozen=True, eq=False)
class CoefficientVector:
    """A mean-zero function stored as coefficients on indices k = 1..len.

    The squared coefficient sum equals the squared L2 norm of the
    synthesized function (Parseval).  Instances are immutable; the
    backing array is locked against writes.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.array(self.coeffs, dtype=np.float64).ravel()
        if not np.all(np.isfinite(arr)):
            raise ValueError("coefficients must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @classmethod
    def zero(cls) -> "CoefficientVector":
        return cls(np.empty(0))

    @property
    def support(self) -> int:
        """Largest stored index (coefficients beyond it are zero)."""
        return int(self.coeffs.size)

    def coeff(self, k: int) -> float:
        """Coefficient at 1-based index k, zero beyond the support."""
        if k < 1:
            raise ValueError("basis index must satisfy k >= 1")
        return float(self.coeffs[k - 1]) if k <= self.support else 0.0

    def norm_sq(self) -> float:
        return float(np.sum(self.coeffs**2))

    def padded(self, size: int) -> np.ndarray:
        """Writable copy of the coefficients, zero-padded to >= size."""
        out = np.zeros(max(int(size), self.support))
        out[: self.support] = self.coeffs
        return out

    def scaled(self, c: float) -> "CoefficientVector":
        return CoefficientVector(float(c) * self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, CoefficientVector):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )

    def __hash__(self):
        return hash((self.coeffs.size, self.coeffs.tobytes()))

    def to_json_dict(self) -> dict:
        return {"coeffs": [float(c) for c in self.coeffs]}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json_dict(cls, payload: dict) -> "CoefficientVector":
        return cls(np.asarray(payload["coeffs"], dtype=np.float64))

    @classmethod
    def from_json(cls, text: str) -> "CoefficientVector":
        return cls.from_json_dict(json.loads(text))


def synthesize(f: CoefficientVector, x):
    """Pointwise value sum_k coeffs[k] e_k(x); x scalar or array in [0, 1].

    Horner evaluation of sqrt(2) Re sum_j (c_{2j-1} - i c_{2j}) zeta^j
    with zeta = exp(2 pi i x), j = 1..J: O(n J) work and O(n) memory,
    with no basis matrix.  Rounding drifts by about J eps sum_k |c_k|.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(np.asarray(x, dtype=np.float64))
    c = f.padded(f.support + f.support % 2)
    a = c[0::2] - 1j * c[1::2]  # a[j - 1] pairs cos and sin at frequency j
    zeta = np.exp(1j * (_TWO_PI * xs))
    acc = np.zeros(xs.size, dtype=np.complex128)
    for aj in a[::-1]:
        acc += aj
        acc *= zeta
    vals = _SQRT2 * acc.real
    return float(vals[0]) if scalar else vals


def parseval_sq_distance(f: CoefficientVector, g: CoefficientVector) -> float:
    """Squared L2 distance computed in coefficient space (shorter side padded)."""
    size = max(f.support, g.support)
    diff = f.padded(size) - g.padded(size)
    return float(np.sum(diff**2))


@dataclass(frozen=True)
class FunctionFamilySpec:
    """Parameters of a canonical test-function family.

    kind "sobolev": coeffs[k] = amplitude (1 + k)^(-q), requiring
    q > s + 1/2 so the function sits strictly inside the smoothness-s
    ellipsoid; q defaults to s + 1.  kind "supersmooth":
    coeffs[k] = amplitude exp(-gamma k^t_exp).
    """

    kind: str
    k_support: int
    amplitude: float = 1.0
    s: float | None = None
    q: float | None = None
    gamma: float | None = None
    t_exp: float | None = None


def make_test_function(spec: FunctionFamilySpec) -> CoefficientVector:
    """Build the coefficient vector described by a FunctionFamilySpec."""
    if spec.k_support < 1:
        raise ValueError("k_support must be a positive integer")
    k = np.arange(1, spec.k_support + 1, dtype=np.float64)
    if spec.kind == "sobolev":
        if spec.s is None or spec.s <= 0:
            raise ValueError("sobolev family needs a smoothness index s > 0")
        q = spec.s + 1.0 if spec.q is None else float(spec.q)
        if q <= spec.s + 0.5:
            raise ValueError("sobolev decay exponent must satisfy q > s + 1/2")
        coeffs = spec.amplitude * (1.0 + k) ** (-q)
    elif spec.kind == "supersmooth":
        if spec.gamma is None or spec.gamma < 0:
            raise ValueError("supersmooth family needs gamma >= 0")
        if spec.t_exp is None or spec.t_exp <= 0:
            raise ValueError("supersmooth family needs t_exp > 0")
        coeffs = spec.amplitude * np.exp(-spec.gamma * k**spec.t_exp)
    else:
        raise ValueError(f"unknown function family: {spec.kind!r}")
    return CoefficientVector(coeffs)
