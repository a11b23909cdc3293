import math

import numpy as np
import pytest

from conftest import binned_means, cross_moment_stats
from ivadapt import (
    SUP_NORM_BOUND,
    CoefficientVector,
    DgpSpec,
    IvSample,
    apply_operator,
    eigenvalue_profile,
    estimate_sigma_sq,
    generate_sample,
    sample_noise,
    sigma_sq_profile,
    true_eigenvalue,
)
from ivadapt import dgp, estimator, seeds

NOISE_DRAWS = 400_000


def test_scalar_true_eigenvalue_equals_profile_entry():
    K = 2000
    ks = [1, 2, 3, 7, 100, 101, 1999, 2000]
    for t in (0.05, 0.3, 0.5, 0.7, 1.0, 1.3, 2.0, 2.5, 3.7, 5.0):
        profile = eigenvalue_profile(K, t)
        for k in ks:
            assert true_eigenvalue(k, t) == profile[k - 1], (k, t)
    assert true_eigenvalue(1, 0.3) == eigenvalue_profile(1, 0.3)[0]


def test_true_eigenvalue_values():
    assert true_eigenvalue(1, 1.0) == 0.5
    assert true_eigenvalue(2, 1.0) == 0.5  # same frequency as k=1
    assert true_eigenvalue(3, 2.0) == pytest.approx(1 / 9)
    with pytest.raises(ValueError):
        true_eigenvalue(1, 0.0)
    with pytest.raises(ValueError):
        true_eigenvalue(0, 1.0)


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_eigenvalue_polynomial_decay_band(t):
    k = np.arange(1, 10**5 + 1)
    ratio = true_eigenvalue(k, t) * k.astype(float) ** t
    assert ratio.min() >= 2.0**-t - 1e-12
    assert ratio.max() <= 2.0**t + 1e-12
    assert ratio.min() > 0


def test_noise_cosine_moment_t1():
    rng = seeds.rng(101, "noise")
    eps = sample_noise(1.0, NOISE_DRAWS, rng)
    assert eps.min() >= 0.0 and eps.max() < 1.0
    c = np.cos(2 * np.pi * eps)
    se = c.std(ddof=1) / math.sqrt(NOISE_DRAWS)
    assert abs(c.mean() - 0.5) <= 3 * se


def test_noise_sine_moment_vanishes():
    rng = seeds.rng(102, "noise")
    eps = sample_noise(1.0, NOISE_DRAWS, rng)
    s = np.sin(2 * np.pi * eps)
    se = s.std(ddof=1) / math.sqrt(NOISE_DRAWS)
    assert abs(s.mean()) <= 3 * se


def test_noise_near_uniform_for_strong_decay():
    # t=8 pushes the first cosine moment down to 2^-8
    rng = seeds.rng(103, "noise")
    eps = sample_noise(8.0, NOISE_DRAWS, rng)
    c = np.cos(2 * np.pi * eps)
    se = c.std(ddof=1) / math.sqrt(NOISE_DRAWS)
    assert abs(c.mean() - 2.0**-8) <= 3 * se


def test_noise_higher_frequency_moments():
    rng = seeds.rng(104, "noise")
    eps = sample_noise(1.5, NOISE_DRAWS, rng)
    for j in (1, 2, 3):
        c = np.cos(2 * np.pi * j * eps)
        se = c.std(ddof=1) / math.sqrt(NOISE_DRAWS)
        assert abs(c.mean() - (1.0 + j) ** -1.5) <= 4 * se


def test_apply_operator():
    assert apply_operator(CoefficientVector.zero(), 1.0) == CoefficientVector.zero()
    out = apply_operator(CoefficientVector([1.0, 0.0, 0.0]), 1.0)
    assert np.allclose(out.coeffs, [0.5, 0.0, 0.0])
    f = CoefficientVector([0.7, -0.3, 0.2])
    near_identity = apply_operator(f, 1e-9)
    assert np.allclose(near_identity.coeffs, f.coeffs, atol=1e-6)


def test_generate_sample_degenerate_is_exactly_zero():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=0.0)
    sample = generate_sample(spec, 100, seed=5)
    assert np.all(sample.y == 0.0)


def test_generate_sample_is_bit_reproducible():
    spec = DgpSpec.default()
    a = generate_sample(spec, 1000, seed=11)
    b = generate_sample(spec, 1000, seed=11)
    assert np.array_equal(a.y, b.y) and np.array_equal(a.x, b.x) and np.array_equal(a.w, b.w)
    c = generate_sample(spec, 1000, seed=12)
    assert not np.array_equal(a.y, c.y)


def test_derived_streams_differ_by_context():
    spec = DgpSpec.default()
    a = generate_sample(spec, 50, seed=seeds.sequence(7, "mc-risk", 50, 0))
    b = generate_sample(spec, 50, seed=seeds.sequence(7, "mc-risk", 50, 1))
    assert not np.array_equal(a.w, b.w)


def test_marginals_are_uniform():
    spec = DgpSpec.default()
    sample = generate_sample(spec, 10**6, seed=21)
    grid = np.arange(1, sample.n + 1) / sample.n
    for arr in (sample.w, sample.x):
        sorted_vals = np.sort(arr)
        ks = max(np.abs(sorted_vals - grid).max(), np.abs(sorted_vals - grid + 1 / sample.n).max())
        assert ks < 0.002


def test_operator_diagonality_cross_moments():
    spec = DgpSpec.default()
    sample = generate_sample(spec, 200_000, seed=22)
    mean, se = cross_moment_stats(sample.x, sample.w, K=4)
    lam = eigenvalue_profile(4, spec.t)
    for k in range(4):
        for l in range(4):
            target = lam[k] if k == l else 0.0
            assert abs(mean[k, l] - target) <= 4 * se[k, l]


def test_error_term_is_exogenous_for_instrument():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector([1.0]), a=1.0, eta_sd=0.1)
    sample = generate_sample(spec, 200_000, seed=23)
    u = sample.y  # phi = 0 so Y = U
    means, stderrs, counts = binned_means(u, sample.w, 20)
    assert counts.min() > 1000
    assert np.all(np.abs(means) <= 4 * stderrs)


def test_error_term_is_endogenous_for_regressor():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector([1.0]), a=1.0, eta_sd=0.1)
    sample = generate_sample(spec, 200_000, seed=24)
    u = sample.y
    trig = np.cos(2 * np.pi * sample.x)
    corr = np.corrcoef(u, trig)[0, 1]
    assert abs(corr) > 0.05


def _oracle_se(eta_sd, n_draws):
    # for Y = eta Z, Var((Y psi_k)^2) = eta^4 (3 E psi_k^4 - 1) = 3.5 eta^4
    return eta_sd**2 * math.sqrt(3.5 / n_draws)


def test_sigma_oracle_unit_noise():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.0)
    for k in (1, 2, 3):
        values = sigma_sq_profile(spec, k, n_draws=200_000)
        assert abs(values[k - 1] - 1.0) <= 3 * _oracle_se(1.0, 200_000)


def test_sigma_oracle_quadratic_scaling():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=2.0)
    values = sigma_sq_profile(spec, 1, n_draws=200_000)
    assert abs(values[0] - 4.0) <= 3 * _oracle_se(2.0, 200_000)


def test_sigma_oracle_noise_floor():
    spec = DgpSpec.default()
    values = sigma_sq_profile(spec, 10, n_draws=200_000)
    assert np.all(values >= spec.eta_sd**2 * (1 - 0.05))


def test_sigma_oracle_is_cached_and_deterministic():
    spec = DgpSpec.default()
    a = sigma_sq_profile(spec, 5, n_draws=100_000)
    b = sigma_sq_profile(spec, 5, n_draws=100_000)
    assert a is b
    assert not a.flags.writeable


def test_sigma_oracle_is_the_estimators_sigma_sq_bitwise():
    # 70,000 draws span two row blocks, and K = 19 cuts the second index block
    spec = DgpSpec.default()
    assert len(estimator._chunks(70_000)) == 2
    sample = generate_sample(spec, 70_000, seed=seeds.sequence(dgp._ORACLE_SEED, "sigma-oracle"))
    oracle = sigma_sq_profile(spec, 19, n_draws=70_000)
    assert oracle.tobytes() == estimate_sigma_sq(sample, 19).tobytes()


def test_model_conditions_up_to_k50():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.0)
    assert SUP_NORM_BOUND == pytest.approx(math.sqrt(2.0))
    # lambda_k k^t over k <= 50 runs from 1/2 (k=1) up to 50/26
    ratio = eigenvalue_profile(50, spec.t) * np.arange(1, 51, dtype=np.float64) ** spec.t
    assert ratio.min() == pytest.approx(0.5)
    assert ratio.max() == pytest.approx(50 / 26)
    sigma = sigma_sq_profile(spec, 50, n_draws=200_000)
    assert 0.9 < sigma.min() <= sigma.max() < 1.1


def test_dgp_spec_json_roundtrip():
    spec = DgpSpec.default()
    again = DgpSpec.from_json_dict(spec.to_json_dict())
    assert again == spec


def test_dgp_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(t=0.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.0)
    with pytest.raises(ValueError):
        DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=-1.0)


def test_iv_sample_validation_and_csv_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        IvSample(y=[1.0], x=[0.5], w=[1.0])  # w out of [0, 1)
    with pytest.raises(ValueError):
        IvSample(y=[1.0, 2.0], x=[0.5], w=[0.5])
    sample = generate_sample(DgpSpec.default(), 64, seed=3)
    path = tmp_path / "sample.csv"
    sample.to_csv(path)
    again = IvSample.from_csv(path)
    assert np.array_equal(sample.y, again.y)
    assert np.array_equal(sample.x, again.x)
    assert np.array_equal(sample.w, again.w)
