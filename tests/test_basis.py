import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import quad_grid, trapezoid_inner
from ivadapt import basis
from ivadapt import (
    CoefficientVector,
    FunctionFamilySpec,
    basis_matrix,
    frequency,
    make_test_function,
    parseval_sq_distance,
    synthesize,
)
from ivadapt.basis import _BLOCK_ROWS, _chunks, _cis

ROOT2 = math.sqrt(2.0)


def test_eval_basis_point_values():
    assert basis_matrix([0.0], [1])[0, 0] == pytest.approx(ROOT2, abs=1e-14)
    assert basis_matrix([0.25], [2])[0, 0] == pytest.approx(ROOT2, abs=1e-14)
    # k=3 has frequency 2; direct high-precision reference
    expected = ROOT2 * math.cos(2 * math.pi * 2 * 0.5)
    assert basis_matrix([0.5], [3])[0, 0] == pytest.approx(expected, abs=1e-12)


def test_eval_basis_domain_errors():
    with pytest.raises(ValueError):
        basis_matrix([0.5], [0])
    with pytest.raises(ValueError):
        basis_matrix([-0.01], [1])
    with pytest.raises(ValueError):
        basis_matrix([1.01], [1])
    with pytest.raises(ValueError):
        basis_matrix([0.5, 1.5], [1])
    with pytest.raises(ValueError):
        basis_matrix([0.5, np.nan], [1])


@given(st.integers(min_value=1, max_value=2048), st.floats(min_value=0.0, max_value=1.0))
def test_eval_basis_bounded_by_sqrt2(k, x):
    assert abs(basis_matrix([x], [k])[0, 0]) <= ROOT2 + 1e-9


def test_sup_norm_bound_on_dense_grid():
    x = np.linspace(0.0, 1.0, 4097)
    vals = basis_matrix(x, np.arange(1, 65))
    assert np.abs(vals).max() <= ROOT2 + 1e-9


def _direct_basis(x, ks):
    j = (np.asarray(ks) + 1) // 2
    arg = 2 * np.pi * np.multiply.outer(x, j)
    return ROOT2 * np.where(np.asarray(ks) % 2 == 1, np.cos(arg), np.sin(arg))


@pytest.mark.parametrize(
    "ks",
    [np.arange(k0, k0 + 16) for k0 in (17, 129, 1025)] + [[7, 3, 500], [1, 4096], [12, 11, 2, 1, 40, 39]],
    ids=["block17", "block129", "block1025", "unsorted", "far-apart", "runs"],
)
def test_basis_matrix_any_index_set_matches_direct(ks):
    x = np.concatenate([[0.0, 0.5, 1.0], np.random.default_rng(3).random(997)])
    got = basis_matrix(x, ks)
    assert got.shape == (x.size, len(ks))
    assert np.allclose(got, _direct_basis(x, ks), rtol=0.0, atol=1e-11)


def _long_double_rotation(x, j):
    """cos and sin of 2 pi j x in long double, the argument reduced mod 1 first."""
    arg = 2 * np.longdouble("3.14159265358979323846264338327950288") * np.fmod(
        np.multiply.outer(np.asarray(x).astype(np.longdouble), j), 1
    )
    return np.cos(arg), np.sin(arg)


def _long_double_basis(x, ks):
    """sqrt(2) cos/sin(2 pi j x) in long double, the argument reduced mod 1 first."""
    cos, sin = _long_double_rotation(x, (ks + 1) // 2)
    return (np.sqrt(np.longdouble(2)) * np.where(ks % 2 == 1, cos, sin)).astype(np.float64)


#: Where tau = tan(pi r) is 0 or passes its pole, and their neighbours.
CIS_EDGES = [0.0, 1 / 8, 1 / 4, 1 / 2, 3 / 4, 1.0, *np.nextafter([0.5, 0.5, 1.0], [0.0, 1.0, 0.0])]


def test_cis_is_within_2_eps_of_the_rotation():
    x = np.concatenate([CIS_EDGES, np.random.default_rng(9).random(10**6)])
    z = _cis(x)
    cos, sin = _long_double_rotation(x, 1)
    eps = np.finfo(np.float64).eps
    assert np.abs(z.real - cos).max() <= 2 * eps
    assert np.abs(z.imag - sin).max() <= 2 * eps
    assert np.abs(np.abs(z.astype(np.clongdouble)) - 1).max() <= 3 * eps


def test_cis_is_exact_at_whole_turns_and_real_at_a_half_turn():
    z = _cis(np.array([0.0, 1.0, 0.5]))
    assert z[:2].tolist() == [1 + 0j, 1 + 0j]
    assert z.real[2] == -1.0


def test_cis_peak_memory_is_its_result_and_one_float_temporary():
    n = 1 << 16
    x = np.random.default_rng(10).random(n)
    _cis(x[:3])  # first-call set-up is not the rotation's
    tracemalloc.start()
    try:
        _cis(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (16 + 8) * n + 2**12


def test_basis_matrix_deep_block_start_within_argument_rounding():
    # a block start near the default k_max is reached by about 19
    # complex squarings; its error stays at the frequency x eps level
    # that rounding the argument 2 pi f x gives direct cos/sin
    ks = np.arange(2**20 + 1, 2**20 + 17)
    x = np.random.default_rng(5).random(2000)
    assert np.abs(basis_matrix(x, ks) - _long_double_basis(x, ks)).max() <= 2e-9


@pytest.mark.parametrize("k0", [1, 17, 1025])
def test_basis_matrix_block_matches_long_double_over_three_row_blocks(k0):
    # the complex step z *= zeta drifts by about frequency x eps, the
    # same budget per frequency as the deep block start above
    n = 2 * _BLOCK_ROWS + 2
    assert len(_chunks(n)) == 3
    ks = np.arange(k0, k0 + 16)
    x = np.random.default_rng(k0).random(n)
    err = np.abs(basis_matrix(x, ks) - _long_double_basis(x, ks))
    assert np.all(err <= 4e-15 * ((ks + 1) // 2))


def test_basis_matrix_first_frequency_is_sqrt2_times_cos_and_sin():
    # cos(2 pi x 0.25) is exactly 0, but tan(fl(pi / 4)) is 1 - eps/2,
    # so the half-angle form gives (1 - tau^2) / (1 + tau^2) = eps/2
    # there: the one entry that is not exact, held to sqrt(2) eps,
    # twice the sqrt(2) eps/2 = 1.57e-16 it reads
    got = basis_matrix([0.0, 0.25], [1, 2])
    assert [got[0, 0], got[0, 1], got[1, 1]] == [ROOT2, 0.0, ROOT2]
    assert abs(got[1, 0]) <= ROOT2 * np.finfo(float).eps


def test_basis_matrix_prefix_columns_are_bitwise_stable():
    x = np.random.default_rng(4).random(501)
    full = basis_matrix(x, np.arange(1, 81))
    for K in (1, 2, 17, 40):
        assert np.array_equal(basis_matrix(x, np.arange(1, K + 1)), full[:, :K])
    assert basis_matrix(x, []).shape == (501, 0)
    assert basis_matrix([], [1, 2]).shape == (0, 2)


@pytest.mark.parametrize(
    "n, ks",
    [(501, np.arange(1, 41)), (501, [12, 11, 2, 1, 40, 39, 7]), (501, []), (0, np.arange(1, 17)), (0, [])],
    ids=["prefix", "unsorted", "no-indices", "no-points", "neither"],
)
def test_basis_matrix_takes_the_rotations_of_the_points(n, ks):
    x = np.random.default_rng(6).random(n)
    got = basis_matrix(_cis(x), ks)
    assert got.shape == (n, len(ks))
    assert got.tobytes() == basis_matrix(x, ks).tobytes()


@pytest.mark.parametrize(
    "bad", [[0.5, 1.5], [-0.1], [0.2, math.nan], [math.nan], [math.inf], [0.3, -math.inf], [-0.5], [2.0]]
)
def test_basis_matrix_still_checks_real_points(bad):
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        basis_matrix(np.array(bad), [1, 2])
    # synthesize shares the check, for arrays and scalars
    f = CoefficientVector([1.0, -0.5, 0.25])
    for points in (bad, bad[-1]):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            synthesize(f, points)


_EVALUATORS = {
    "basis_matrix": lambda points: basis_matrix(points, [1, 2]),
    "synthesize": lambda points: synthesize(CoefficientVector([1.0, -0.5, 0.25]), points),
}


@pytest.mark.parametrize("rotated", [False, True], ids=["points", "rotations"])
@pytest.mark.parametrize("name", sorted(_EVALUATORS))
def test_points_of_more_than_one_dimension_are_rejected(name, rotated):
    x = np.array([[0.1, 0.2], [0.3, 0.4]])
    points = _cis(x.ravel()).reshape(x.shape) if rotated else x
    with pytest.raises(ValueError, match=r"^evaluation points must be a scalar or 1-D array, not 2-D$"):
        _EVALUATORS[name](points)
    with pytest.raises(ValueError, match="scalar or 1-D"):
        _EVALUATORS[name](points[None])
    # a scalar point is one point, in either form
    scalar, row = _EVALUATORS[name](points[0, 1]), _EVALUATORS[name](points[0, 1:])
    assert np.asarray(scalar).tobytes() == np.asarray(row).reshape(np.shape(scalar)).tobytes()


@pytest.mark.parametrize("ks", [[0], [1, 0, 2], [-3], np.arange(-1, 5)])
def test_basis_matrix_rejects_an_index_below_one_before_reading_the_points(ks):
    # the index rule is frequency's, raised before the points are checked
    message = f"^k must be at least 1, not {min(ks)}$"
    for points in ([0.25, 0.5], [2.0]):
        with pytest.raises(ValueError, match=message):
            basis_matrix(np.array(points), ks)
    with pytest.raises(ValueError, match=message):
        frequency(ks)


@pytest.mark.parametrize("rotated", [False, True], ids=["points", "rotations"])
@pytest.mark.parametrize(
    "n, ks",
    [(1, np.arange(1, 17)), (501, np.arange(1, 17)), (501, np.arange(17, 33)), (501, np.arange(17, 20)), (501, [])],
    ids=["one-point", "first-block", "second-block", "cut-block", "no-indices"],
)
def test_basis_matrix_writes_into_out(rotated, n, ks):
    x = np.random.default_rng(8).random(n)
    points = _cis(x) if rotated else x
    buf = np.full(16 * n + 3, np.nan)
    got = basis_matrix(points, ks, out=buf)
    assert got.shape == (n, len(ks))
    assert got.tobytes() == basis_matrix(x, ks).tobytes()
    assert np.shares_memory(got, buf) == (len(ks) > 0)
    assert np.isnan(buf[16 * n :]).all()  # only the front of out is written


def test_basis_matrix_out_for_gathered_indices_keeps_the_values():
    x = np.random.default_rng(9).random(301)
    ks = [12, 11, 2, 1, 40, 39, 7]
    buf = np.empty(2 * 20 * x.size)
    assert basis_matrix(x, ks, out=buf).tobytes() == basis_matrix(x, ks).tobytes()


@pytest.mark.parametrize(
    "out",
    [
        np.empty(16 * 100, dtype=np.float32),
        np.empty(16 * 100, dtype=np.complex128),
        np.empty(32 * 100)[::2],
        np.empty((100, 16), order="F"),
        np.empty(16 * 100 - 1),
        [0.0] * (16 * 100),
    ],
    ids=["float32", "complex", "strided", "f-ordered", "too-small", "list"],
)
def test_basis_matrix_rejects_a_bad_out(out):
    x = np.random.default_rng(10).random(100)
    with pytest.raises(ValueError, match="out"):
        basis_matrix(x, np.arange(1, 17), out=out)


@given(st.integers(min_value=1, max_value=500))
def test_index_convention(k):
    j = frequency(k)
    assert j == math.ceil(k / 2)
    x = 0.3
    if k % 2 == 1:
        expected = ROOT2 * math.cos(2 * math.pi * j * x)
    else:
        expected = ROOT2 * math.sin(2 * math.pi * j * x)
    assert basis_matrix([x], [k])[0, 0] == pytest.approx(expected, abs=1e-11)


def test_orthonormality_under_quadrature():
    x = quad_grid()
    vals = basis_matrix(x, np.arange(1, 21))
    for k in range(20):
        for l in range(20):
            inner = trapezoid_inner(vals[:, k], vals[:, l], x)
            assert inner == pytest.approx(1.0 if k == l else 0.0, abs=1e-8)


def test_synthesize_values():
    zero = CoefficientVector.zero()
    assert synthesize(zero, 0.37) == 0.0
    one_mode = CoefficientVector([1.0])
    assert synthesize(one_mode, 0.0) == pytest.approx(ROOT2, abs=1e-14)
    f = CoefficientVector([0.3, -0.2])
    expected = 0.3 * ROOT2 * math.cos(0.2 * math.pi) - 0.2 * ROOT2 * math.sin(0.2 * math.pi)
    assert synthesize(f, 0.1) == pytest.approx(expected, abs=1e-12)


def test_synthesize_vectorized_matches_scalar():
    f = CoefficientVector([0.5, 0.1, -0.4, 0.2])
    xs = np.linspace(0.0, 1.0, 17)
    vec = synthesize(f, xs)
    assert vec.shape == (17,)
    for xi, vi in zip(xs, vec):
        assert vi == pytest.approx(synthesize(f, float(xi)), abs=1e-12)


@pytest.mark.parametrize("support", [0, 1, 2, 49, 50, 51, 2000])
def test_synthesize_matches_basis_matrix_product(support):
    c = np.random.default_rng(support).standard_normal(support)
    f = CoefficientVector(c)
    x = np.concatenate([[0.0, 0.5, 1.0 - 2.0**-53], np.random.default_rng(7).random(500)])
    ref = basis_matrix(x, np.arange(1, support + 1)) @ c
    tol = 1e-12 * np.abs(c).sum()
    got = synthesize(f, x)
    assert got.shape == x.shape
    assert np.all(np.abs(got - ref) <= tol)
    for xi, ri in zip(x[:3], ref[:3]):
        value = synthesize(f, float(xi))
        assert isinstance(value, float) and abs(value - ri) <= tol


def test_synthesize_values_do_not_depend_on_row_blocks():
    # the one-row remainder joins the third block; every slice has two
    # points or more, since a one-point call rounds its in-place complex
    # products on numpy's one-element path
    n = 3 * _BLOCK_ROWS + 1
    assert [sl.stop - sl.start for sl in _chunks(n)] == [_BLOCK_ROWS, _BLOCK_ROWS, _BLOCK_ROWS + 1]
    rng = np.random.default_rng(8)
    f = CoefficientVector(rng.standard_normal(51))
    x = rng.random(n)
    whole = synthesize(f, x)
    cuts = [0, 2, 5000, _BLOCK_ROWS + 3, 20_000, n]
    parts = [synthesize(f, x[a:b]) for a, b in zip(cuts, cuts[1:])]
    assert whole.tobytes() == np.concatenate(parts).tobytes()


@pytest.mark.parametrize("support", [0, 1, 2, 51])
@pytest.mark.parametrize("n", [1, 2, 3, 501, 3 * _BLOCK_ROWS + 1])
def test_synthesize_takes_the_rotations_of_the_points(n, support):
    f = CoefficientVector(np.random.default_rng(support).standard_normal(support))
    x = np.random.default_rng(n).random(n)
    got = synthesize(f, _cis(x))
    assert got.shape == (n,)
    assert got.tobytes() == synthesize(f, x).tobytes()
    value = synthesize(f, _cis(x[:1])[0])
    assert isinstance(value, float) and value == synthesize(f, float(x[0]))


@pytest.mark.parametrize("rotated", [False, True], ids=["points", "rotations"])
@pytest.mark.parametrize("n", [0, 1, 3 * _BLOCK_ROWS + 1, None], ids=["0", "1", "3-blocks", "scalar"])
def test_synthesize_of_the_zero_function_rotates_nothing(monkeypatch, rotated, n):
    x = 0.37 if n is None else np.random.default_rng(4).random(n)
    if rotated:
        x = _cis(np.atleast_1d(x)).reshape(np.shape(x))
    points = []
    monkeypatch.setattr(basis, "_cis", lambda x: points.append(x.size) or _cis(x))
    got = synthesize(CoefficientVector.zero(), x)
    assert points == []
    if n is None:
        assert isinstance(got, float) and got == 0.0 and math.copysign(1.0, got) == 1.0
    else:
        assert got.tobytes() == np.zeros(n).tobytes()  # +0.0 everywhere
    with pytest.raises(ValueError, match=r"\[0, 1\]"):  # real points are still checked
        synthesize(CoefficientVector.zero(), [0.5, 1.5])


def test_parseval_identity_and_orthonormal_distance():
    f = CoefficientVector([1.0, 0.0])
    g = CoefficientVector([0.0, 1.0])
    assert parseval_sq_distance(f, f) == 0.0
    assert parseval_sq_distance(f, g) == pytest.approx(2.0)
    # padding: shorter vector treated as zero beyond its support
    assert parseval_sq_distance(CoefficientVector([1.0]), CoefficientVector.zero()) == 1.0


def test_parseval_matches_quadrature_on_random_pairs():
    rng = np.random.default_rng(42)
    x = quad_grid()
    for _ in range(100):
        f = CoefficientVector(rng.standard_normal(10))
        g = CoefficientVector(rng.standard_normal(10))
        fv = synthesize(f, x)
        gv = synthesize(g, x)
        quad = trapezoid_inner(fv - gv, fv - gv, x)
        assert parseval_sq_distance(f, g) == pytest.approx(quad, abs=1e-6)


@given(
    st.lists(st.floats(min_value=-10, max_value=10), min_size=0, max_size=12),
    st.lists(st.floats(min_value=-10, max_value=10), min_size=0, max_size=12),
)
def test_parseval_quadrature_property(fc, gc):
    f = CoefficientVector(fc)
    g = CoefficientVector(gc)
    x = np.linspace(0.0, 1.0, 2**14 + 1)
    quad = trapezoid_inner(synthesize(f, x) - synthesize(g, x), synthesize(f, x) - synthesize(g, x), x)
    assert parseval_sq_distance(f, g) == pytest.approx(quad, rel=1e-9, abs=1e-6)


def test_make_test_function_sobolev():
    spec = FunctionFamilySpec(kind="sobolev", s=1.0, q=2.0, amplitude=1.0, k_support=3)
    vec = make_test_function(spec)
    assert np.allclose(vec.coeffs, [1 / 4, 1 / 9, 1 / 16], atol=1e-15)


def test_make_test_function_supersmooth_and_zero():
    vec = make_test_function(
        FunctionFamilySpec(kind="supersmooth", gamma=0.0, t_exp=1.0, amplitude=1.0, k_support=2)
    )
    assert np.array_equal(vec.coeffs, [1.0, 1.0])
    zero = make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, amplitude=0.0, k_support=5))
    assert np.sum(zero.coeffs**2) == 0.0


@pytest.mark.parametrize(
    "gamma, expected",
    [(0.0, [-2.0] * 50), (0.5, [-2.0 * math.exp(-0.5)] + [0.0] * 49), (1e300, [0.0] * 50)],
)
def test_supersmooth_past_float_range_is_its_limit_without_a_warning(gamma, expected):
    # k^1000 passes float range from k = 3, where exp(-inf) is 0; exp(-gamma k^1000) underflows to 0 before it
    spec = FunctionFamilySpec(kind="supersmooth", gamma=gamma, t_exp=1000.0, amplitude=-2.0, k_support=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert make_test_function(spec).coeffs.tolist() == expected


@pytest.mark.parametrize("gamma, t_exp", [(0.0, 1.0), (-0.0, 3.5), (0.5, 1.0), (2.0, 0.5), (1e-3, 60.0)])
def test_supersmooth_keeps_the_bits_of_its_closed_form(gamma, t_exp):
    k = np.arange(1.0, 41.0)
    spec = FunctionFamilySpec(kind="supersmooth", gamma=gamma, t_exp=t_exp, amplitude=1.5, k_support=40)
    assert make_test_function(spec).coeffs.tobytes() == (1.5 * np.exp(-gamma * k**t_exp)).tobytes()


def test_make_test_function_rejects_flat_decay():
    with pytest.raises(ValueError):
        make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, q=1.2, k_support=3))
    with pytest.raises(ValueError):
        make_test_function(FunctionFamilySpec(kind="unknown", k_support=3))


def sobolev_seminorm_sq(f, s):
    """sum_k k^(2s) f_k^2, the smoothness-s seminorm of a coefficient vector."""
    k = np.arange(1, f.support + 1, dtype=np.float64)
    return float(np.sum(k ** (2.0 * s) * f.coeffs**2))


def test_sobolev_family_default_exponent_is_inside_ellipsoid():
    spec = FunctionFamilySpec(kind="sobolev", s=1.0, k_support=100)
    vec = make_test_function(spec)
    # default q = s + 1 = 2
    assert vec.coeffs[0] == pytest.approx(0.25)
    assert math.isfinite(sobolev_seminorm_sq(vec, 1.0))


def test_sobolev_norm_stable_under_support_growth():
    base = make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, k_support=10**4))
    bigger = make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, k_support=2 * 10**4))
    assert np.sum(bigger.coeffs**2) - np.sum(base.coeffs**2) < 1e-9
    # the s-seminorm tail obeys its integral bound sum_{k>K} k^-2 <= 1/K
    tail = sobolev_seminorm_sq(bigger, 1.0) - sobolev_seminorm_sq(base, 1.0)
    assert 0 < tail < 1e-4


def test_coefficient_vector_interface():
    vec = CoefficientVector([1.0, 2.0])
    assert vec.support == 2
    assert vec.padded(5).tolist() == [1.0, 2.0, 0.0, 0.0, 0.0]
    assert vec.padded(1).tolist() == [1.0, 2.0]
    with pytest.raises(ValueError):
        CoefficientVector([np.nan])
    with pytest.raises(ValueError):
        vec.coeffs[0] = 9.0
