import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ivadapt import (
    CoefficientVector,
    DgpSpec,
    EstimatorConfig,
    IvSample,
    adaptive_estimate,
    deterministic_resolution_bounds,
    eigenvalue_profile,
    estimate_eigenvalues,
    estimate_r_coeffs,
    estimate_resolution,
    estimate_sigma_sq,
    generate_sample,
    naive_estimator,
    penalized_criterion,
    select_level,
    select_resolution,
    thresholded_estimator,
    true_eigenvalue,
)
from ivadapt import basis, dgp, estimator, seeds
from ivadapt.estimator import _chunks, _criterion_values

ROOT2 = math.sqrt(2.0)


def _uniform_sample(n, seed, y=None):
    rng = seeds.rng(seed, "unit")
    w = rng.random(n)
    x = rng.random(n)
    yv = rng.standard_normal(n) if y is None else y
    return IvSample(y=yv, x=x, w=w)


# ---------------------------------------------------------------------------
# coefficient estimators


def test_r_coeffs_zero_response():
    sample = _uniform_sample(50, 1, y=np.zeros(50))
    assert np.all(estimate_r_coeffs(sample, 6) == 0.0)


def test_r_coeffs_single_point():
    sample = IvSample(y=[2.0], x=[0.3], w=[0.0])
    r = estimate_r_coeffs(sample, 1)
    assert r[0] == pytest.approx(2.0 * ROOT2, abs=1e-14)


def test_r_coeffs_linearity():
    sample = _uniform_sample(200, 2)
    base = estimate_r_coeffs(sample, 8)
    doubled = IvSample(y=2.0 * sample.y, x=sample.x, w=sample.w)
    assert np.array_equal(estimate_r_coeffs(doubled, 8), 2.0 * base)
    scaled = IvSample(y=3.7 * sample.y, x=sample.x, w=sample.w)
    assert np.allclose(estimate_r_coeffs(scaled, 8), 3.7 * base, rtol=1e-14)


def test_eigenvalues_identity_operator():
    # X identical to W makes the empirical eigenvalue the mean of phi_k^2
    rng = seeds.rng(3, "unit")
    w = rng.random(100_000)
    sample = IvSample(y=np.zeros(w.size), x=w, w=w)
    lam = estimate_eigenvalues(sample, 1)
    assert abs(lam[0] - 1.0) < 0.02


def test_eigenvalues_single_point():
    sample = IvSample(y=[0.0], x=[0.2], w=[0.7])
    lam = estimate_eigenvalues(sample, 3)
    for k in (1, 2, 3):
        j = (k + 1) // 2
        fx = ROOT2 * (math.cos if k % 2 else math.sin)(2 * math.pi * j * 0.2)
        fw = ROOT2 * (math.cos if k % 2 else math.sin)(2 * math.pi * j * 0.7)
        assert lam[k - 1] == pytest.approx(fx * fw, abs=1e-12)


def test_eigenvalues_unbiased_for_true_value():
    spec = DgpSpec.default()
    reps, n = 50, 20_000
    values = np.empty(reps)
    for rep in range(reps):
        sample = generate_sample(spec, n, seed=seeds.sequence(9, "eig", n, rep))
        values[rep] = estimate_eigenvalues(sample, 1)[0]
    se = values.std(ddof=1) / math.sqrt(reps)
    assert abs(values.mean() - 0.5) <= 3 * se


def test_sigma_sq_single_point_is_zero():
    sample = IvSample(y=[3.0], x=[0.2], w=[0.4])
    assert estimate_sigma_sq(sample, 4) == pytest.approx(np.zeros(4), abs=1e-25)


def test_sigma_sq_matches_two_pass_oracle():
    sample = _uniform_sample(500, 4, y=np.full(500, 2.5))
    got = estimate_sigma_sq(sample, 5)
    for k in range(1, 6):
        j = (k + 1) // 2
        trig = math.cos if k % 2 else math.sin
        psi = ROOT2 * np.array([trig(2 * math.pi * j * wi) for wi in sample.w])
        z = sample.y * psi
        r_hat = z.mean()
        oracle = np.mean((z - r_hat) ** 2)
        assert got[k - 1] == pytest.approx(oracle, rel=1e-12)
        assert got[k - 1] >= 0.0


def test_sigma_sq_quadratic_scaling():
    sample = _uniform_sample(300, 5)
    base = estimate_sigma_sq(sample, 6)
    scaled = IvSample(y=3.0 * sample.y, x=sample.x, w=sample.w)
    assert np.allclose(estimate_sigma_sq(scaled, 6), 9.0 * base, rtol=1e-12)


def test_response_moments_across_the_chunk_boundary():
    n = 2**16 + 3
    sample = generate_sample(DgpSpec.default(), n, seed=29)
    K = 6
    k = np.arange(1, K + 1)
    arg = 2 * np.pi * np.multiply.outer(sample.w, (k + 1) // 2)
    z = sample.y[:, None] * ROOT2 * np.where(k % 2 == 1, np.cos(arg), np.sin(arg))
    r_ref = z.mean(axis=0)
    sigma_ref = ((z - r_ref) ** 2).mean(axis=0)
    assert np.allclose(estimate_r_coeffs(sample, K), r_ref, rtol=1e-12, atol=0.0)
    assert np.allclose(estimate_sigma_sq(sample, K), sigma_ref, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("K", [1, 16, 100])
def test_block_moments_straddle_row_blocks(K):
    # r_hat and sigma_sq_hat come from the scan's blocks, whose row
    # blocks do not depend on K
    rows = _chunks(1 << 21)[0].stop
    n = rows + rows // 2 + 1
    assert len(_chunks(n)) == 2
    sample = generate_sample(DgpSpec.default(), n, seed=31)
    r_hat = estimate_r_coeffs(sample, K)
    sigma_sq_hat = estimate_sigma_sq(sample, K)
    assert r_hat.shape == sigma_sq_hat.shape == (K,)
    for k in range(1, K + 1):
        trig = np.cos if k % 2 else np.sin
        z = sample.y * ROOT2 * trig(2 * np.pi * ((k + 1) // 2) * sample.w)
        mean = z.mean()
        var = ((z - mean) ** 2).mean()
        # relative to the mean size of the summands: a mean near zero
        # cancels, so rtol alone would demand more than rounding gives
        assert abs(r_hat[k - 1] - mean) <= 1e-12 * np.abs(z).mean()
        assert abs(sigma_sq_hat[k - 1] - var) <= 1e-12 * var


@pytest.mark.parametrize("n, k_max", [(200, 10**6), (5000, 10**6), (70_000, 19)])
def test_standalone_estimates_equal_the_scan_bitwise(n, k_max):
    config = EstimatorConfig(k_max=k_max)
    sample = generate_sample(DgpSpec.default(), n, seed=n)
    report = adaptive_estimate(sample, config)
    if k_max == 19:
        # the cap cuts the scan's second block short, over several row blocks
        assert report.cap_reached and report.resolution == 19
        assert len(_chunks(n)) >= 2
    K = report.resolution
    assert estimate_sigma_sq(sample, K).tobytes() == report.sigma_sq_hat.tobytes()
    assert estimate_r_coeffs(sample, K).tobytes() == report.r_hat.tobytes()
    assert estimate_eigenvalues(sample, K).tobytes() == report.lambda_hat.tobytes()


@pytest.mark.parametrize(
    "n", [3, 8193, 8194, 8197, 3 * 8192 + 5, dgp._KEEP_ROTATIONS_UPTO, dgp._KEEP_ROTATIONS_UPTO + 1]
)
def test_drawn_and_array_built_samples_estimate_bitwise_alike(n):
    # the scan slices the sampler's whole-array rotations of a drawn
    # sample and rotates an array-built one row block by row block
    drawn = generate_sample(DgpSpec.default(), n, seed=n)
    assert (drawn._rotations is None) == (n > dgp._KEEP_ROTATIONS_UPTO)
    built = IvSample(y=drawn.y, x=drawn.x, w=drawn.w)
    a, b = adaptive_estimate(drawn), adaptive_estimate(built)
    assert (a.resolution, a.m_selected, a.cap_reached) == (b.resolution, b.m_selected, b.cap_reached)
    for name in ("r_hat", "lambda_hat", "sigma_sq_hat", "criterion"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert a.phi_hat.coeffs.tobytes() == b.phi_hat.coeffs.tobytes()
    assert estimate_resolution(drawn) == estimate_resolution(built) == a.resolution
    for K in (1, 19, a.resolution + 5):
        for fn in (estimate_r_coeffs, estimate_sigma_sq, estimate_eigenvalues):
            assert fn(drawn, K).tobytes() == fn(built, K).tobytes()


# ---------------------------------------------------------------------------
# resolution selection


@pytest.mark.parametrize("n", [5000, _chunks(1 << 21)[0].stop + 2])
@pytest.mark.parametrize(
    "name, tables", [("adaptive_estimate", 2), ("estimate_resolution", 2), ("estimate_sigma_sq", 1)]
)
def test_block_walk_writes_every_table_into_one_workspace(monkeypatch, name, tables, n):
    # psi(W), and psi(X) for the eigenvalues, each go into one buffer of
    # the call, whatever the number of row and index blocks
    data = []
    basis_matrix = estimator.basis_matrix

    def recording(x, ks, out=None):
        data.append(None if out is None else out.__array_interface__["data"][0])
        return basis_matrix(x, ks, out=out)

    sample = generate_sample(dataclasses.replace(DgpSpec.default(), t=0.5), n, seed=n)
    monkeypatch.setattr(estimator, "basis_matrix", recording)
    args = (sample, 40) if name == "estimate_sigma_sq" else (sample,)
    getattr(estimator, name)(*args)
    assert None not in data
    assert len(data) >= 3 * tables * len(_chunks(n))
    assert len(set(data)) == tables


@pytest.mark.parametrize(
    "name, rotated", [("estimate_sigma_sq", 1), ("estimate_resolution", 2), ("adaptive_estimate", 2)]
)
def test_block_walk_peak_memory_is_its_rotations_and_tables(name, rotated):
    # an array-built sample is rotated one row block at a time: the lazy
    # scan keeps them all, 16 B per point for each rotated variable (W,
    # and X for the eigenvalues), plus one 1 MiB basis table for each, and
    # little more; the standalone estimate holds one row block's (pinned
    # below).  A whole-array rotation would add an n-point float temporary.
    n = 1 << 19
    drawn = generate_sample(DgpSpec.default(), n, seed=19)
    sample = IvSample(y=drawn.y, x=drawn.x, w=drawn.w)
    del drawn
    fn = getattr(estimator, name)
    K = (16,) if name == "estimate_sigma_sq" else ()
    fn(IvSample(y=sample.y[:3], x=sample.x[:3], w=sample.w[:3]), *K)  # first-call set-up
    tracemalloc.start()
    try:
        fn(sample, *K)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mib = 1 << 20
    assert peak <= rotated * (16 * n + mib) + mib


@pytest.mark.parametrize(
    "name, tables", [("estimate_sigma_sq", 1), ("estimate_r_coeffs", 1), ("estimate_eigenvalues", 2)]
)
def test_standalone_estimate_peak_memory_does_not_grow_with_n(name, tables):
    # a known K is one row-first pass: each row block of an array-built
    # sample is rotated (16 B per point per variable, and an 8 B
    # temporary), used for every index block and dropped, so the walk
    # holds one row block's rotations and one 1 MiB basis table per
    # variable, whatever n is
    fn = getattr(estimator, name)
    peaks = []
    for n in (1 << 17, 1 << 19):
        drawn = generate_sample(DgpSpec.default(), n, seed=n)
        sample = IvSample(y=drawn.y, x=drawn.x, w=drawn.w)
        del drawn
        fn(IvSample(y=sample.y[:3], x=sample.x[:3], w=sample.w[:3]), 50)  # first-call set-up
        tracemalloc.start()
        try:
            fn(sample, 50)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    row_block = 32 * basis._BLOCK_ROWS
    assert max(peaks) <= tables * (row_block + (1 << 20)) + row_block
    assert peaks[1] - peaks[0] < 1 << 16


def test_select_resolution_threshold_crossing():
    # threshold log(100)/10 ~ 0.4605; first crossing at k=3
    assert select_resolution([0.9, 0.5, 0.01], 100) == 2
    assert select_resolution([0.1, 0.9, 0.9], 100) == 0
    assert select_resolution([0.9, 0.9, 0.9, 0.9, 0.9], 100, EstimatorConfig(k_max=5)) == 5


def test_select_resolution_requires_n_at_least_3():
    with pytest.raises(ValueError, match=r"^n must be at least 3, not 2$"):
        select_resolution([0.9], 2)


def test_deterministic_bounds_frozen_values():
    # independent scan of the eigenvalue sequence at t=1, n=10^4
    n = 10**4
    lo_thr = math.log(n) ** 2 / math.sqrt(n)
    hi_thr = math.log(n) ** 0.75 / math.sqrt(n)

    def first_crossing(thr):
        k = 1
        while true_eigenvalue(k, 1.0) > thr:
            k += 1
        return k

    lower, upper = deterministic_resolution_bounds(1.0, n)
    assert lower == first_crossing(lo_thr) - 1 == 0
    assert upper == first_crossing(hi_thr) == 35


@pytest.mark.parametrize("t", [0.25, 0.3, 0.5, 1.0, 1.5, 2.0, 5.0])
@pytest.mark.parametrize("n", [3, 10, 100, 1000, 4096, 10**4, 2**15])
def test_deterministic_bounds_match_an_eigenvalue_scan(t, n):
    # first k with lambda_k <= threshold, from one array of eigenvalues
    def first_crossing(thr):
        K = 1024
        while True:
            below = np.nonzero(eigenvalue_profile(K, t) <= thr)[0]
            if below.size:
                return int(below[0]) + 1
            K *= 4

    lower, upper = deterministic_resolution_bounds(t, n)
    assert lower == first_crossing(math.log(n) ** 2 / math.sqrt(n)) - 1
    assert upper == first_crossing(math.log(n) ** 0.75 / math.sqrt(n))


def test_deterministic_bounds_monotone_and_ordered():
    previous = (0, 0)
    for n in (100, 1000, 10_000):
        lower, upper = deterministic_resolution_bounds(1.0, n)
        assert lower <= upper
        assert lower >= previous[0] and upper >= previous[1]
        previous = (lower, upper)
    for t in (0.5, 1.0, 2.0):
        for n in (10, 10**3, 10**5):
            lower, upper = deterministic_resolution_bounds(t, n)
            assert 0 <= lower <= upper
    with pytest.raises(ValueError):
        deterministic_resolution_bounds(1.0, 2)
    # t = 0.05, n = 1000: the upper crossing sits near frequency 10^17
    with pytest.raises(ValueError, match="basis index"):
        deterministic_resolution_bounds(0.05, 1000)


@pytest.mark.parametrize("t", [0.3, 0.5, 1.0, 2.0, 3.7])
def test_first_eigenvalue_crossing_matches_a_scan_at_and_beside_each_eigenvalue(t):
    # thresholds at the eigenvalue of frequencies 1..299 and one ulp either side of it
    cosines = 2 * np.arange(1, 300) - 1
    exact = true_eigenvalue(cosines, t)
    thresholds = np.concatenate([np.nextafter(exact, 0.0), exact, np.nextafter(exact, 1.0)])
    scan = true_eigenvalue(np.arange(1, 602), t)
    for thr in thresholds:
        assert scan[-1] <= thr
        assert estimator._first_eigenvalue_crossing(t, thr) == int(np.argmax(scan <= thr)) + 1


@pytest.mark.parametrize("t", [0.3, 1.0])
def test_first_eigenvalue_crossing_reaches_the_bracket_cap_and_no_further(t):
    last = true_eigenvalue(estimator._BRACKET_CAP - 1, t)  # the cosine index of frequency 5 * 10^7
    assert estimator._first_eigenvalue_crossing(t, last) == 99_999_999
    with pytest.raises(ValueError, match="no bracket"):
        estimator._first_eigenvalue_crossing(t, np.nextafter(last, 0.0))
    with pytest.raises(ValueError, match=f"^{re.escape(f't must be above 0, not {-t}')}$"):
        estimator._first_eigenvalue_crossing(-t, last)


# ---------------------------------------------------------------------------
# projection estimators


def test_naive_estimator():
    assert naive_estimator([], 1.0, 0) == CoefficientVector.zero()
    out = naive_estimator([0.25], 1.0, 1)
    assert np.allclose(out.coeffs, [0.5])
    base = naive_estimator([0.2, 0.4, 0.6], 1.0, 3)
    doubled = naive_estimator([0.4, 0.8, 1.2], 1.0, 3)
    assert np.allclose(doubled.coeffs, 2 * base.coeffs)
    with pytest.raises(ValueError):
        naive_estimator([0.1], 1.0, 2)


def test_thresholded_estimator():
    r = [0.2, 0.3, 0.4]
    lam = [0.4, 0.5, 0.6]
    assert thresholded_estimator(r, lam, 0, 3) == CoefficientVector.zero()
    assert thresholded_estimator(r, lam, 5, 2) == thresholded_estimator(r, lam, 2, 2)
    one = thresholded_estimator([0.2], [0.4], 1, 1)
    assert np.allclose(one.coeffs, [0.5])


@pytest.mark.parametrize(
    "call",
    [
        lambda m: naive_estimator([0.1, 0.2], 1.0, m),
        lambda m: thresholded_estimator([1.0, 2.0], [1.0, 1.0], m, 2),
        lambda m: thresholded_estimator([1.0, 2.0], [1.0, 1.0], 2, m),
        lambda m: penalized_criterion([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], m, 100),
    ],
    ids=["naive", "thresholded-m", "thresholded-resolution", "penalized"],
)
@pytest.mark.parametrize("m", [1.5, 2.5, True, np.True_, 1.0, [1]], ids=repr)
def test_level_must_be_an_int(call, m):
    # a float level sliced oddly or failed in a slice, and True counted as 1
    with pytest.raises(ValueError, match=rf"^(m|resolution) must be an int, not {re.escape(repr(m))}$"):
        call(m)
    # ints of any width still count
    assert call(np.uint8(1)) == call(1)


@pytest.mark.parametrize("m, resolution, name", [(-1, 3, "m"), (3, -1, "resolution")])
def test_thresholded_estimator_rejects_a_negative_level(m, resolution, name):
    # a negative resolution would slice from the end: [1., 2.] for these
    with pytest.raises(ValueError, match=f"^{name} must be at least 0, not -1$"):
        thresholded_estimator([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], m, resolution)


# ---------------------------------------------------------------------------
# selection criteria


def test_penalized_criterion_values():
    config = EstimatorConfig()
    assert penalized_criterion([], [], [], 0, 100, config) == 0.0
    got = penalized_criterion([0.3], [0.5], [1.0], 1, 100, config)
    expected = -4.0 * 0.09 + (math.log(100) ** 2 / 100) * 4.0
    assert got == pytest.approx(expected, abs=1e-12)
    with pytest.raises(ValueError, match="exceeds the available coefficients"):
        penalized_criterion([1.0, 2.0], [1.0, 1.0], [1.0, 1.0], 5, 100)
    with pytest.raises(ValueError, match="exceeds the available coefficients"):
        penalized_criterion([1.0, 2.0], [1.0, 1.0], [1.0], 2, 100)


def test_criterion_telescoping_increment():
    rng = np.random.default_rng(9)
    r = rng.standard_normal(6)
    lam = rng.random(6) + 0.5
    sig = rng.random(6) + 0.2
    n = 256
    config = EstimatorConfig()
    weight = math.log(n) ** 2 / n
    for m in range(1, 7):
        delta = penalized_criterion(r, lam, sig, m, n, config) - penalized_criterion(
            r, lam, sig, m - 1, n, config
        )
        expected = -r[m - 1] ** 2 / lam[m - 1] ** 2 + weight * sig[m - 1] / lam[m - 1] ** 2
        assert delta == pytest.approx(expected, rel=1e-9, abs=1e-12)


def _criterion_loop(r_hat, lambda_hat, sigma_sq_hat, weight, upto):
    # the contrast as one sequential prefix loop: the reference the
    # cumulative sums must match bitwise
    values = np.empty(upto + 1)
    values[0] = 0.0
    acc_data = 0.0
    acc_pen = 0.0
    for k in range(upto):
        lam = float(lambda_hat[k])
        inv_sq = 1.0 / (lam * lam)
        acc_data += float(r_hat[k]) * float(r_hat[k]) * inv_sq
        acc_pen += float(sigma_sq_hat[k]) * inv_sq
        values[k + 1] = -acc_data + weight * acc_pen
    return values


def test_criterion_cumsums_match_sequential_loop_bitwise():
    rng = np.random.default_rng(23)
    for _ in range(200):
        m = int(rng.integers(0, 300))
        r = rng.standard_normal(m) * 10.0 ** rng.uniform(-3, 1)
        lam = rng.choice([-1.0, 1.0], m) * 10.0 ** rng.uniform(-3, 0, m)
        sig = rng.random(m) * 10.0 ** rng.uniform(-2, 2)
        weight = 10.0 ** rng.uniform(-4, 0)
        got = _criterion_values(r, lam, sig, weight, m)
        want = _criterion_loop(r, lam, sig, weight, m)
        assert got.tobytes() == want.tobytes()
    spec = DgpSpec.default()
    report = adaptive_estimate(generate_sample(spec, 4096, seed=12))
    n = report.n
    weight = math.log(n) ** 2 / n
    want = _criterion_loop(report.r_hat, report.lambda_hat, report.sigma_sq_hat, weight, report.resolution)
    assert report.criterion.tobytes() == want.tobytes()


def test_select_level():
    assert select_level([0.0, 0.0, 0.0]) == 0
    assert select_level([0.0, -1.0, -0.5]) == 1
    assert select_level([0.5, -0.2, -0.2]) == 1
    assert select_level([0.5, 0.4], allow_empty=False) == 1
    with pytest.raises(ValueError):
        select_level([])


@given(st.lists(st.floats(min_value=-5, max_value=5), min_size=1, max_size=20))
def test_select_level_is_first_argmin(values):
    m = select_level(values)
    arr = np.asarray(values)
    assert arr[m] == arr.min()
    assert np.all(arr[:m] > arr[m])


# ---------------------------------------------------------------------------
# the full pipeline


def test_adaptive_estimate_zero_response_selects_empty_model():
    sample = _uniform_sample(500, 10, y=np.zeros(500))
    report = adaptive_estimate(sample)
    assert report.m_selected == 0
    assert report.empty_model
    assert report.phi_hat == CoefficientVector.zero()


def test_adaptive_estimate_requires_n_at_least_3():
    with pytest.raises(ValueError, match=r"^n must be at least 3, not 2$"):
        adaptive_estimate(IvSample(y=[1.0, 2.0], x=[0.1, 0.2], w=[0.3, 0.4]))


def test_adaptive_estimate_report_invariants():
    spec = DgpSpec.default()
    sample = generate_sample(spec, 4096, seed=12)
    report = adaptive_estimate(sample)
    n = sample.n
    threshold = math.log(n) / math.sqrt(n)
    assert 0 <= report.m_selected <= report.resolution
    assert report.phi_hat.support == report.m_selected
    assert np.all(np.abs(report.lambda_hat) > threshold)
    assert report.criterion.size == report.resolution + 1
    assert report.criterion[0] == 0.0
    expected = report.r_hat[: report.m_selected] / report.lambda_hat[: report.m_selected]
    assert np.array_equal(report.phi_hat.coeffs, expected)
    # every retained coefficient obeys the inversion bound
    cap = np.abs(report.r_hat[: report.m_selected]) * math.sqrt(n) / math.log(n)
    assert np.all(np.abs(report.phi_hat.coeffs) <= cap + 1e-12)


def test_adaptive_estimate_prefix_scan_equals_from_scratch():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    sample = generate_sample(spec, 2048, seed=13)
    report = adaptive_estimate(sample, config)
    for m in range(report.resolution + 1):
        from_scratch = penalized_criterion(
            report.r_hat, report.lambda_hat, report.sigma_sq_hat, m, sample.n, config
        )
        assert report.criterion[m] == from_scratch
    assert report.m_selected == select_level(report.criterion)


def test_adaptive_estimate_scaling_equivariance():
    spec = DgpSpec.default()
    config = EstimatorConfig()
    sample = generate_sample(spec, 1024, seed=14)
    report = adaptive_estimate(sample, config)
    for c in (0.1, 3.0, 10.0):
        scaled = adaptive_estimate(IvSample(y=c * sample.y, x=sample.x, w=sample.w), config)
        assert scaled.resolution == report.resolution
        assert scaled.m_selected == report.m_selected
        assert np.allclose(scaled.criterion, c * c * report.criterion, rtol=1e-10, atol=1e-15)
        assert np.allclose(scaled.phi_hat.coeffs, c * report.phi_hat.coeffs, rtol=1e-12)


def test_adaptive_estimate_permutation_invariance():
    spec = DgpSpec.default()
    sample = generate_sample(spec, 600, seed=15)
    perm = np.random.default_rng(0).permutation(sample.n)
    shuffled = IvSample(y=sample.y[perm], x=sample.x[perm], w=sample.w[perm])
    a = adaptive_estimate(sample)
    b = adaptive_estimate(shuffled)
    assert a.m_selected == b.m_selected
    assert a.resolution == b.resolution
    assert np.allclose(a.criterion, b.criterion, rtol=1e-9, atol=1e-12)


def test_adaptive_estimate_byte_identical_reports():
    spec = DgpSpec.default()
    first = adaptive_estimate(generate_sample(spec, 4096, seed=16))
    second = adaptive_estimate(generate_sample(spec, 4096, seed=16))
    import json

    assert json.dumps(first.to_json_dict(), sort_keys=True) == json.dumps(
        second.to_json_dict(), sort_keys=True
    )


def test_adaptive_estimate_disallow_empty_model():
    base = generate_sample(DgpSpec.default(), 500, seed=17)
    sample = IvSample(y=np.zeros(base.n), x=base.x, w=base.w)
    forced = adaptive_estimate(sample, EstimatorConfig(allow_empty_model=False))
    assert forced.resolution >= 1
    assert forced.m_selected >= 1
    free = adaptive_estimate(sample, EstimatorConfig(allow_empty_model=True))
    assert free.m_selected == 0


def test_r_coeffs_unbiased_across_replications():
    # one long i.i.d. draw sliced into replications of size 200
    spec = DgpSpec(
        t=1.0,
        phi=CoefficientVector([1.0, 0.5, 0.25]),
        g=CoefficientVector([1.0]),
        a=0.5,
        eta_sd=0.5,
    )
    reps, n = 10_000, 200
    sample = generate_sample(spec, reps * n, seed=18)
    targets = eigenvalue_profile(spec.phi.support, spec.t) * spec.phi.coeffs
    for k in (1, 2, 3):
        j = (k + 1) // 2
        trig = np.cos if k % 2 else np.sin
        z = sample.y * ROOT2 * trig(2 * np.pi * j * sample.w)
        per_rep = z.reshape(reps, n).mean(axis=1)
        se = per_rep.std(ddof=1) / math.sqrt(reps)
        assert abs(per_rep.mean() - targets[k - 1]) <= 3 * se


def test_lazy_scan_matches_select_resolution():
    spec = DgpSpec.default()
    sample = generate_sample(spec, 2048, seed=19)
    resolution = estimate_resolution(sample)
    lam_full = estimate_eigenvalues(sample, resolution + 8)
    assert select_resolution(lam_full, sample.n) == resolution


def test_estimator_config_validation():
    with pytest.raises(ValueError):
        EstimatorConfig(k_max=0)
    with pytest.raises(ValueError):
        EstimatorConfig(penalty_log_exponent=-1.0)
    assert EstimatorConfig(k_max=7).resolution_cap(10**9) == 7
    assert EstimatorConfig().resolution_cap(10) == 10**4
    assert EstimatorConfig().resolution_cap(10**3) == 10**6


def test_penalty_weight_overflow_is_a_value_error():
    # log(n)^p overflows a float for p = 1e4 at any n >= 3; both users
    # of the weight report it as a ValueError, not an OverflowError
    assert EstimatorConfig().penalty_weight(100) == math.log(100) ** 2 / 100
    config = EstimatorConfig(penalty_log_exponent=1e4)
    with pytest.raises(ValueError, match="overflows"):
        config.penalty_weight(100)
    with pytest.raises(ValueError, match="overflows"):
        penalized_criterion([0.3], [0.5], [1.0], 1, 100, config)
    with pytest.raises(ValueError, match="overflows"):
        adaptive_estimate(generate_sample(DgpSpec.default(), 100, seed=1), config)
