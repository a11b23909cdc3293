import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import quad_grid, trapezoid_inner
from ivadapt import (
    SUP_NORM_BOUND,
    CoefficientVector,
    FunctionFamilySpec,
    basis_matrix,
    frequency,
    make_test_function,
    parseval_sq_distance,
    synthesize,
)

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


@given(st.integers(min_value=1, max_value=2048), st.floats(min_value=0.0, max_value=1.0))
def test_eval_basis_bounded_by_sqrt2(k, x):
    assert abs(basis_matrix([x], [k])[0, 0]) <= SUP_NORM_BOUND + 1e-9


def test_sup_norm_bound_on_dense_grid():
    x = np.linspace(0.0, 1.0, 4097)
    vals = basis_matrix(x, np.arange(1, 65))
    assert np.abs(vals).max() <= SUP_NORM_BOUND + 1e-9


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


def test_basis_matrix_prefix_columns_are_bitwise_stable():
    x = np.random.default_rng(4).random(501)
    full = basis_matrix(x, np.arange(1, 81))
    for K in (1, 2, 17, 40):
        assert np.array_equal(basis_matrix(x, np.arange(1, K + 1)), full[:, :K])
    assert basis_matrix(x, []).shape == (501, 0)
    assert basis_matrix([], [1, 2]).shape == (0, 2)


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
    assert zero.norm_sq() == 0.0


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
    assert bigger.norm_sq() - base.norm_sq() < 1e-9
    # the s-seminorm tail obeys its integral bound sum_{k>K} k^-2 <= 1/K
    tail = sobolev_seminorm_sq(bigger, 1.0) - sobolev_seminorm_sq(base, 1.0)
    assert 0 < tail < 1e-4


def test_coefficient_vector_json_roundtrip():
    vec = CoefficientVector([0.1, -2.5e-17, 3.0])
    again = CoefficientVector.from_json(vec.to_json())
    assert again == vec
    assert again.to_json() == vec.to_json()


def test_coefficient_vector_interface():
    vec = CoefficientVector([1.0, 2.0])
    assert vec.support == 2
    assert vec.coeff(1) == 1.0
    assert vec.coeff(5) == 0.0
    with pytest.raises(ValueError):
        vec.coeff(0)
    assert vec.norm_sq() == pytest.approx(5.0)
    assert vec.scaled(2.0) == CoefficientVector([2.0, 4.0])
    with pytest.raises(ValueError):
        CoefficientVector([np.nan])
    with pytest.raises(ValueError):
        vec.coeffs[0] = 9.0
