import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import binned_means, cross_moment_stats
from ivadapt import (
    CoefficientVector,
    DgpSpec,
    FunctionFamilySpec,
    IvSample,
    basis_matrix,
    eigenvalue_profile,
    estimate_sigma_sq,
    generate_sample,
    make_test_function,
    oracle_level,
    sample_noise,
    sigma_sq_profile,
    synthesize,
    true_eigenvalue,
)
from ivadapt import basis, dgp, estimator, risk, seeds

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


def _noise_out_of_place(t, n, rng):
    g = rng.gamma(shape=t, scale=1.0, size=n)
    rho = np.exp(-g)
    v = rng.random(n)
    theta = 2.0 * np.arctan(((1.0 - rho) / (1.0 + rho)) * np.tan(np.pi * (v - 0.5)))
    return (theta / (2.0 * math.pi)) % 1.0


def _sample_out_of_place(spec, n, seed):
    rng = seeds.rng_from(seed)
    w = rng.random(n)
    eps = _noise_out_of_place(spec.t, n, rng)
    z = rng.standard_normal(n)
    x = (w + eps) % 1.0
    size = max(spec.phi.support, spec.g.support)
    h = CoefficientVector(spec.phi.padded(size) + spec.a * spec.g.padded(size))
    tg = CoefficientVector(eigenvalue_profile(spec.g.support, spec.t) * spec.g.coeffs)
    return synthesize(h, x) - spec.a * synthesize(tg, w) + spec.eta_sd * z, x, w


@pytest.mark.parametrize("t", [0.3, 1.0, 4.0])
@pytest.mark.parametrize("n", [1, 2, 3, 1000, 8193, 100_000])
def test_in_place_sampler_is_bitwise_the_out_of_place_formula(t, n):
    eps = sample_noise(t, n, seeds.rng(n, "noise"))
    assert eps.tobytes() == _noise_out_of_place(t, n, seeds.rng(n, "noise")).tobytes()
    spec = DgpSpec(t=t, phi=DgpSpec.default().phi, g=CoefficientVector([1.0, 0.5]), a=0.5, eta_sd=0.5)
    sample = generate_sample(spec, n, seed=n)
    y, x, w = _sample_out_of_place(spec, n, n)
    assert (sample.y.tobytes(), sample.x.tobytes(), sample.w.tobytes()) == (y.tobytes(), x.tobytes(), w.tobytes())


def test_mod_one_is_bitwise_numpy_remainder():
    rng = np.random.default_rng(20261019)
    patterns = rng.integers(0, 2**64, size=10**6, dtype=np.uint64, endpoint=False).view(np.float64)
    tiny = 5e-324
    edges = [0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 1 - 2**-53, -(1 - 2**-53), 2**-60, -(2**-60),
             tiny, -tiny, 2 * tiny, -2 * tiny, 2.2250738585072014e-308, -2.2250738585072014e-308,
             1e300, -1e300, 1e-300, -1e-300, 2.0**52 + 0.5, -(2.0**52 + 0.5), 2.0**53, -(2.0**53)]
    values = np.concatenate([
        patterns[np.isfinite(patterns)],
        rng.uniform(-2.0, 2.0, 10**6),
        np.nextafter(np.array([-2.0, -1.0, 0.0, 1.0, 2.0]).repeat(2), np.tile([-np.inf, np.inf], 5)),
        edges,
    ])
    expected = values % 1.0
    assert dgp._mod_one(values).tobytes() == expected.tobytes()


def test_oracle_sample_peak_memory():
    # the three n-draw arrays of the result (22.9 MiB at 10^6 draws) and
    # row-block scratch: the noise and the a (Tg)(W) term are made one
    # row block at a time, where a whole-array term would add an n-point
    # temporary (8 MiB)
    n = risk._ORACLE_DRAWS
    tracemalloc.start()
    try:
        generate_sample(DgpSpec.default(), n, seed=seeds.sequence(risk._ORACLE_SEED, "sigma-oracle"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * 8 * n + 2 * 2**20


@pytest.mark.parametrize("n", [8193, 8194, 3 * 8192 + 5, 2**16 + 1])
def test_sampler_tail_matches_the_whole_array_formula(n):
    # y's last two terms go in row blocks, with the noise drawn a row
    # block at a time: the bits of one whole-array pass and one draw
    spec = DgpSpec.default()
    sample = generate_sample(spec, n, seed=n)
    rng = seeds.rng_from(n)
    rng.random(n)  # w
    sample_noise(spec.t, n, rng)
    z = rng.standard_normal(n)
    size = max(spec.phi.support, spec.g.support)
    h = CoefficientVector(spec.phi.padded(size) + spec.a * spec.g.padded(size))
    tg = CoefficientVector(eigenvalue_profile(spec.g.support, spec.t) * spec.g.coeffs)
    y = synthesize(h, sample.x) - spec.a * synthesize(tg, sample.w) + spec.eta_sd * z
    assert sample.y.tobytes() == y.tobytes()


def test_sample_at_the_rotation_cut_peak_memory():
    # three n-draw arrays, the two rotations (32 B per point) and one
    # temporary: 64 B per point, plus the sampler's row-block scratch
    n = dgp._KEEP_ROTATIONS_UPTO
    generate_sample(DgpSpec.default(), 3, seed=n)  # first-call imports are not the sample's
    tracemalloc.start()
    try:
        sample = generate_sample(DgpSpec.default(), n, seed=n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sample._rotations is not None
    assert peak < 64 * n + 2**19


@pytest.mark.parametrize("n", [1, 3, 8194, dgp._KEEP_ROTATIONS_UPTO, dgp._KEEP_ROTATIONS_UPTO + 1])
def test_sample_keeps_its_rotations_read_only_and_out_of_sight(tmp_path, n):
    sample = generate_sample(DgpSpec.default(), n, seed=n)
    if n > dgp._KEEP_ROTATIONS_UPTO:
        assert sample._rotations is None
        return
    zx, zw = sample._rotations
    assert zx.tobytes() == basis._cis(sample.x).tobytes() and zw.tobytes() == basis._cis(sample.w).tobytes()
    for zeta in (zx, zw):
        with pytest.raises(ValueError, match="read-only"):
            zeta[0] = 1.0
    with pytest.raises(TypeError):
        IvSample(y=sample.y, x=sample.x, w=sample.w, _rotations=sample._rotations)
    built = IvSample(y=sample.y, x=sample.x, w=sample.w)
    assert built._rotations is None
    assert [f.name for f in dataclasses.fields(IvSample) if f.compare] == ["y", "x", "w"]
    assert repr(built) == repr(sample) and "_rotations" not in repr(sample)
    assert built == sample
    assert dataclasses.replace(sample)._rotations is None
    sample.to_csv(tmp_path / "drawn.csv")
    built.to_csv(tmp_path / "built.csv")
    assert (tmp_path / "drawn.csv").read_bytes() == (tmp_path / "built.csv").read_bytes()
    assert (tmp_path / "drawn.csv").read_text().startswith("y,x,w\n")


@pytest.mark.parametrize("n", [2, 8193])
def test_samples_compare_by_content(n):
    sample = generate_sample(DgpSpec.default(), n, seed=n)
    assert sample == IvSample(y=sample.y.copy(), x=sample.x.copy(), w=sample.w.copy())
    for name in ("y", "x", "w"):
        changed = getattr(sample, name).copy()
        changed[-1] = (changed[-1] + 0.5) % 1.0
        assert sample != dataclasses.replace(sample, **{name: changed})
    assert sample != IvSample(y=sample.y[:-1], x=sample.x[:-1], w=sample.w[:-1])
    assert sample != (sample.y, sample.x, sample.w)


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
    # 70,000 draws span several row blocks, and K = 19 cuts the second index block
    spec = DgpSpec.default()
    assert len(estimator._chunks(70_000)) >= 2
    sample = generate_sample(spec, 70_000, seed=seeds.sequence(risk._ORACLE_SEED, "sigma-oracle"))
    oracle = sigma_sq_profile(spec, 19, n_draws=70_000)
    assert oracle.tobytes() == estimate_sigma_sq(sample, 19).tobytes()


def _two_sided(coeffs, J):
    """F(p), p = -J..J, of sum_k c_k psi_k: F(+-j) = (c_{2j-1} -+ i c_{2j}) / sqrt(2), F(0) = 0."""
    c = np.zeros(2 * J)
    c[: coeffs.size] = coeffs
    f = (c[0::2] - 1j * c[1::2]) / math.sqrt(2.0)
    return np.concatenate((np.conj(f[::-1]), [0.0], f))


def _exact_sigma_sq(spec, K):
    """sigma_k^2 = Var(Y psi_k(W)) = eta^2 + M(0) +- Re M(2j) - (lambda_k phi_k)^2, k = 1..K, in closed form.

    With l(p) = (1 + |p|)^-t, E[exp(2 pi i (pX + qW))] = 1{p + q = 0} l(p).
    Y = V + eta Z with V = h(X) - a (Tg)(W) and h = phi + a g, so
    E[Y psi_k(W)] = lambda_k phi_k, and psi_k(W)^2 = 1 +- cos(4 pi j W)
    (+ for a cosine index) gives E[Y^2 psi_k(W)^2] = eta^2 + M(0) +- Re M(2j)
    with M(m) = E[V^2 exp(2 pi i m W)] = l(m) (H*H)(-m) - 2a ((lH)*G)(-m)
    + a^2 (G*G)(-m), over the two-sided coefficients H of h and G of Tg.
    """
    J = max(spec.phi.support, spec.g.support, K + 1) // 2 + 1  # so that 2j <= 2J for every k <= K
    ell = (1.0 + np.abs(np.arange(-J, J + 1))) ** -spec.t
    ell_sq = (1.0 + np.abs(np.arange(-2 * J, 2 * J + 1))) ** -spec.t  # l over the convolutions' -2J..2J
    H = _two_sided(spec.phi.padded(2 * J) + spec.a * spec.g.padded(2 * J), J)
    G = ell * _two_sided(spec.g.coeffs, J)
    M = (ell_sq * np.convolve(H, H) - 2 * spec.a * np.convolve(ell * H, G) + spec.a**2 * np.convolve(G, G))[::-1]
    k = np.arange(1, K + 1)
    sign = np.where(k % 2 == 1, 1.0, -1.0)
    mean = eigenvalue_profile(K, spec.t) * spec.phi.padded(K)[:K]
    return spec.eta_sd**2 + M[2 * J].real + sign * M[2 * J + k + k % 2].real - mean**2  # m = 2j at 2J + 2j


def _oracle_stderr(spec, K, n_draws):
    """Standard error of each sigma_k^2 oracle value, from the oracle's own sample.

    The oracle is mean(Z^2) - mean(Z)^2 with Z = Y psi_k(W), whose
    influence function is Z^2 - 2 mu Z; its variance comes from the first
    four power sums of Z, taken one row block at a time.
    """
    sample = generate_sample(spec, n_draws, seed=seeds.sequence(risk._ORACLE_SEED, "sigma-oracle"))
    sums = np.zeros((4, K))
    for sl in basis._chunks(n_draws):
        z = basis_matrix(sample.w[sl], np.arange(1, K + 1)) * sample.y[sl, None]
        power = z.copy()
        for row in sums:
            row += power.sum(axis=0)
            power *= z
    m1, m2, m3, m4 = sums / n_draws
    variance = m4 - 4 * m1 * m3 + 4 * m1**2 * m2 - (m2 - 2 * m1**2) ** 2
    return np.sqrt(variance / n_draws)


# the README spec with the oracle's 10^6 draws, and one at 2 10^5 draws whose
# a (Tg)(W) term is large enough that dropping Tg's eigenvalues fails by 17 SEs
EXACT_CASES = [
    (DgpSpec.default(), 50, risk._ORACLE_DRAWS),
    (
        DgpSpec(
            t=0.5,
            phi=make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, k_support=20)),
            g=CoefficientVector([0.8, -0.6, 0.4, 0.3]),
            a=0.7,
            eta_sd=0.3,
        ),
        20,
        200_000,
    ),
]


@pytest.mark.parametrize("spec, K, n_draws", EXACT_CASES, ids=["default", "t0.5-g4"])
def test_sigma_oracle_lies_within_4_stderrs_of_the_exact_sigma_sq(spec, K, n_draws):
    oracle = sigma_sq_profile(spec, K, n_draws=n_draws)
    exact = _exact_sigma_sq(spec, K)
    assert np.all(np.abs(oracle - exact) <= 4 * _oracle_stderr(spec, K, n_draws))
    # and both give the same oracle level at every n of 2^9..2^23
    for n in [2**e for e in range(9, 24)]:
        assert oracle_level(spec.phi, spec.t, oracle, n) == oracle_level(spec.phi, spec.t, exact, n)


def test_exact_sigma_sq_of_pure_noise_is_eta_sq():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.5)
    assert _exact_sigma_sq(spec, 7).tolist() == [2.25] * 7


def test_model_conditions_up_to_k50():
    spec = DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.0)
    # lambda_k k^t over k <= 50 runs from 1/2 (k=1) up to 50/26
    ratio = eigenvalue_profile(50, spec.t) * np.arange(1, 51, dtype=np.float64) ** spec.t
    assert ratio.min() == pytest.approx(0.5)
    assert ratio.max() == pytest.approx(50 / 26)
    sigma = sigma_sq_profile(spec, 50, n_draws=200_000)
    assert 0.9 < sigma.min() <= sigma.max() < 1.1


def test_dgp_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(t=0.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.0)
    with pytest.raises(ValueError):
        DgpSpec(t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=-1.0)


@pytest.mark.parametrize(
    "field, value", [("y", math.nan), ("y", math.inf), ("y", -math.inf), ("x", math.nan), ("w", math.nan)]
)
def test_iv_sample_rejects_non_finite_values_by_field(field, value):
    # NaN passes neither "min < 0" nor "max >= 1", so the range checks must fail on it
    columns = {"y": [1.0, 2.0, 3.0], "x": [0.1, 0.2, 0.3], "w": [0.4, 0.5, 0.6]}
    columns[field][1] = value
    with pytest.raises(ValueError, match=f"^{field} values"):
        IvSample(**columns)


def test_iv_sample_validation_and_csv_roundtrip(tmp_path):
    with pytest.raises(ValueError):
        IvSample(y=[1.0], x=[0.5], w=[1.0])  # w out of [0, 1)
    with pytest.raises(ValueError):
        IvSample(y=[1.0, 2.0], x=[0.5], w=[0.5])
    sample = generate_sample(DgpSpec.default(), 64, seed=3)
    path = tmp_path / "sample.csv"
    sample.to_csv(path)
    assert path.read_text().startswith("y,x,w\n")
    again = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(again, np.column_stack([sample.y, sample.x, sample.w]))
