"""Real trigonometric basis on [0, 1] and finite coefficient vectors.

Single-index convention: the basis index k = 1, 2, ... maps to the
frequency j(k) = ceil(k / 2).  Odd k is the cosine mode
sqrt(2) cos(2 pi j x), even k the sine mode sqrt(2) sin(2 pi j x).
The constant mode is excluded by design, so every represented function
has mean zero on [0, 1] and the index k is in bijection with
(frequency, phase) pairs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CoefficientVector",
    "FunctionFamilySpec",
    "basis_matrix",
    "frequency",
    "make_test_function",
    "parseval_sq_distance",
    "synthesize",
]

_SQRT2 = math.sqrt(2.0)
#: Rows per row block: 8,192 rows of a 16-column float64 table are 1 MiB.
_BLOCK_ROWS = 1 << 13


class _InputError(ValueError):
    """An argument that breaks one of its function's rules; argument names it (the CLI reports it as the field)."""

    def __init__(self, argument: str, message: str):
        super().__init__(message)
        self.argument = argument


def _count(argument: str, value, low: int = 0, arrays: bool = False):
    """value as an int of at least low, or with arrays as an int array; else an _InputError naming argument.

    An int is a Python or numpy int of any size, never a bool.  The
    arrays form (truncation levels, basis indices) takes what numpy holds
    in an int dtype, so a float, a bool or an empty list fails there too.
    """
    if arrays:
        counts = np.asarray(value)
        is_int = counts.dtype.kind in "iu"
        if counts.dtype == object and all(type(c) is int for c in counts.flat):  # Python ints numpy cannot hold
            raise _InputError(argument, f"{argument} must lie in numpy's int range -2**63..2**64-1, not {value!r}")
    else:
        is_int = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if not is_int:
        kind = "an int or an array of ints" if arrays else "an int"
        raise _InputError(argument, f"{argument} must be {kind}, not {value!r}")
    least = counts.min(initial=low) if arrays else value  # min() builds no temporary
    if least < low:
        raise _InputError(argument, f"{argument} must be at least {low}, not {least}")
    return counts if arrays else int(value)


def _real(argument: str, value, low: float = -math.inf, strict: bool = False) -> float:
    """value as a float if a finite int or float (Python or numpy, no bool) >= low (> low if strict); else an error."""
    number = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    # a Python int is compared exactly (math.isfinite would overflow), so one past float range fails
    if not (number and (abs(value) <= sys.float_info.max if isinstance(value, int) else math.isfinite(value))):
        raise _InputError(argument, f"{argument} must be a finite int or float, not {value!r}")
    if not (value > low if strict else value >= low):
        raise _InputError(argument, f"{argument} must be {'above' if strict else 'at least'} {low:g}, not {value}")
    return float(value)


def frequency(k):
    """Frequency j(k) = ceil(k / 2) of basis index k >= 1, an int or int array (else ValueError)."""
    karr = _count("k", k, 1, arrays=True)
    j = karr // 2 + karr % 2  # (k + 1) // 2 would wrap at the top of a narrow dtype
    return int(j) if karr.ndim == 0 else j


def basis_matrix(x, ks, out=None) -> np.ndarray:
    """Evaluate basis functions on a grid: out[i, m] = e_{ks[m]}(x[i]).

    x is either the points, real and in [0, 1], or their rotations
    zeta = exp(2 pi i x) as a complex array (as basis._cis returns them,
    not checked), so a caller that needs several index sets over the
    same points evaluates the rotation once.  Real points are checked and
    rotated here; either form gives the same bits, and must be a scalar or
    1-D array (else ValueError).

    One cos/sin table row per distinct frequency, in increasing order,
    read off z = sqrt(2) zeta^f.  The first frequency of each run of
    consecutive ones seeds z by complex binary powering; each next
    frequency is one in-place complex step z *= zeta.  Cost is
    O(n x (distinct frequencies + log2 of each run start)), and values
    drift by about frequency x eps, as direct cos/sin of 2 pi f x does
    through the rounding of its argument.

    The result is the transpose of a C-ordered (len(ks), n) table, so it
    is F-ordered: each column is contiguous, and reducing over points
    (``out.T @ y``, ``einsum("ij,ij->j", ...)``) needs no copy.  Values
    do not depend on the layout; use ``np.ascontiguousarray`` where C
    order is required.

    With out, a C-contiguous float64 array of at least 2 n x (distinct
    frequencies) elements, the table is written into the front of out
    and the result is the same view into it, with the same bits, so a
    caller that walks many index blocks allocates its tables once.  Any
    other out raises ValueError.  A ks that is not a run of consecutive
    indices from a cosine index is gathered into a new array.
    """
    ks = np.asarray(ks) if np.size(ks) else np.empty(0, dtype=np.int64)  # [] is the empty index set
    j = frequency(ks)
    zeta = np.atleast_1d(_unit_points(x))
    if not np.iscomplexobj(zeta):
        zeta = _cis(zeta)
    freqs = sorted(set(j.tolist()))
    shape = (len(freqs), 2, zeta.size)  # cos and sin row per frequency
    size = math.prod(shape)
    if out is None:
        tab = np.empty(shape)
    elif isinstance(out, np.ndarray) and out.dtype == np.float64 and out.flags.c_contiguous and out.size >= size:
        tab = out.reshape(-1)[:size].reshape(shape)
    else:
        raise ValueError(f"out must be a C-contiguous float64 array of at least {size} values")
    for row, f in enumerate(freqs):
        if row and f == freqs[row - 1] + 1:
            z *= zeta
        else:
            z = _rotation_power(zeta, f)
            z *= _SQRT2
        tab[row, 0] = z.real
        tab[row, 1] = z.imag
    rows = tab.reshape(2 * len(freqs), zeta.size)
    cols = 2 * np.searchsorted(freqs, j) + (ks % 2 == 0)
    if np.array_equal(cols, np.arange(cols.size)):
        return rows[: cols.size].T  # already in table order: no gather
    return rows[cols].T


def _unit_points(x) -> np.ndarray:
    """x, a scalar or 1-D array, as complex128 rotations (not checked) or float64 points in [0, 1] (NaN fails too)."""
    rotated = np.iscomplexobj(x)
    x = np.asarray(x, dtype=np.complex128 if rotated else np.float64)
    if x.ndim > 1:
        raise ValueError(f"evaluation points must be a scalar or 1-D array, not {x.ndim}-D")
    if not rotated and x.size and not (x.min() >= 0.0 and x.max() <= 1.0):
        raise ValueError("evaluation points must lie in [0, 1]")
    return x


def _cis(x: np.ndarray) -> np.ndarray:
    """exp(2 pi i x), x in [0, 1], as ((1 - tau^2) + 2 i tau) / (1 + tau^2) with tau = tan(pi r).

    r = x - rint(x) lies in [-1/2, 1/2], so rounding pi r moves the angle by at most 1.6 eps:
    each component is within 2 eps of the exact value and |z| within 3 eps of 1, and x = 0, 1
    give 1 + 0j and x = 1/2 a real part of -1.0 exactly.  tau is the one float temporary.
    """
    tau = np.rint(x)
    np.subtract(x, tau, out=tau)
    tau *= np.pi
    np.tan(tau, out=tau)
    z = np.empty(x.size, dtype=np.complex128)
    re, im = z.real, z.imag
    np.square(tau, out=re)
    np.add(re, 1.0, out=im)
    np.subtract(1.0, re, out=re)
    re /= im
    tau *= 2.0
    np.divide(tau, im, out=im)
    return z


def _rotation_power(zeta: np.ndarray, f: int) -> np.ndarray:
    """zeta^f by left-to-right binary powering, for f >= 1.

    About log2(f) in-place complex products per point, so a run start
    costs no trig evaluation; the result drifts by about f x eps.
    """
    out = zeta.copy()
    for bit in bin(f)[3:]:
        out *= out
        if bit == "1":
            out *= zeta
    return out


def _chunks(n: int) -> list[slice]:
    """Row blocks of _BLOCK_ROWS rows covering 0..n-1.

    A one-row remainder joins the block before it, because numpy rounds
    a one-element in-place complex product on another path."""
    bounds = [*range(0, max(n - 1, 1), _BLOCK_ROWS), n]
    return [slice(a, b) for a, b in zip(bounds, bounds[1:])]


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

    def padded(self, size: int) -> np.ndarray:
        """Writable copy of the coefficients, zero-padded to >= size (an int >= 0)."""
        out = np.zeros(max(_count("size", size), self.support))
        out[: self.support] = self.coeffs
        return out

    def __eq__(self, other):
        if not isinstance(other, CoefficientVector):
            return NotImplemented
        return self.coeffs.shape == other.coeffs.shape and bool(
            np.all(self.coeffs == other.coeffs)
        )


def synthesize(f: CoefficientVector, x):
    """Pointwise value sum_k coeffs[k] e_k(x); x a scalar or 1-D array in [0, 1] (else ValueError).

    Horner evaluation of sqrt(2) Re sum_j (c_{2j-1} - i c_{2j}) zeta^j
    with zeta = exp(2 pi i x), j = 1..J: O(n J) work and O(n) memory,
    with no basis matrix.  The points go in row blocks of _BLOCK_ROWS,
    so the accumulator stays in cache; a point's value does not depend
    on its block.  Rounding drifts by about J eps sum_k |c_k|.

    As in basis_matrix, x may instead be the rotations zeta as a complex
    array (not checked), and either form gives the same bits.  The zero
    function (no coefficients) gives +0.0 at every point and evaluates
    no rotation.
    """
    scalar = np.ndim(x) == 0
    xs = np.atleast_1d(_unit_points(x))
    rotated = np.iscomplexobj(xs)
    c = f.padded(f.support + f.support % 2)
    a = c[0::2] - 1j * c[1::2]  # a[j - 1] pairs cos and sin at frequency j
    vals = np.zeros(xs.size)
    for sl in _chunks(xs.size) if a.size else ():
        zeta = xs[sl] if rotated else _cis(xs[sl])
        acc = np.zeros(zeta.size, dtype=np.complex128)
        for aj in a[::-1]:
            acc += aj
            acc *= zeta
        vals[sl] = _SQRT2 * acc.real
    return float(vals[0]) if scalar else vals


def parseval_sq_distance(f: CoefficientVector, g: CoefficientVector) -> float:
    """Squared L2 distance computed in coefficient space (shorter side padded)."""
    size = max(f.support, g.support)
    diff = f.padded(size) - g.padded(size)
    return float(np.sum(diff**2))


@dataclass(frozen=True)
class FunctionFamilySpec:
    """Parameters of a canonical test-function family.

    kind "sobolev": coeffs[k] = amplitude (1 + k)^(-q), requiring s > 0 and
    q > s + 1/2 so the function sits strictly inside the smoothness-s
    ellipsoid; q defaults to s + 1.  kind "supersmooth": coeffs[k] =
    amplitude exp(-gamma k^t_exp), gamma >= 0, t_exp > 0, and 0 where
    gamma k^t_exp passes float range.  Each real is finite.
    """

    kind: str
    k_support: int
    amplitude: float = 1.0
    s: float | None = None
    q: float | None = None
    gamma: float | None = None
    t_exp: float | None = None


def make_test_function(spec: FunctionFamilySpec) -> CoefficientVector:
    """The coefficient vector a FunctionFamilySpec describes; a ValueError names the parameter (kind as family)."""
    k = np.arange(1, _count("k_support", spec.k_support, 1) + 1, dtype=np.float64)
    amplitude = _real("amplitude", spec.amplitude)
    if spec.kind == "sobolev":
        s = _real("s", spec.s, 0, strict=True)
        q = s + 1.0 if spec.q is None else _real("q", spec.q)
        if q <= s + 0.5:
            raise _InputError("q", "sobolev decay exponent must satisfy q > s + 1/2")
        coeffs = amplitude * (1.0 + k) ** (-q)
    elif spec.kind == "supersmooth":
        gamma, t_exp = _real("gamma", spec.gamma, 0), _real("t_exp", spec.t_exp, 0, strict=True)
        with np.errstate(over="ignore"):  # gamma k^t_exp past float range is inf, and exp(-inf) its limit 0
            coeffs = amplitude * np.exp(-gamma * k**t_exp) if gamma else np.full(k.size, amplitude)
    else:
        raise _InputError("family", f"unknown function family: {spec.kind!r}")
    return CoefficientVector(coeffs)
