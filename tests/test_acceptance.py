"""End-to-end acceptance checks at desk scale.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s) and
asserts the stated tolerance.  The heavy Monte Carlo study is shared
across the oracle-ratio, rate, remainder, and dominance checks.
"""

import hashlib
import json
import math

import numpy as np
import pytest

from conftest import binned_means, cross_moment_stats, quad_grid, trapezoid_inner
from ivadapt import (
    CoefficientVector,
    DgpSpec,
    EstimatorConfig,
    IvSample,
    adaptive_estimate,
    basis_matrix,
    coverage_study,
    deterministic_resolution_bounds,
    eigenvalue_profile,
    estimate_eigenvalues,
    generate_sample,
    oracle_level,
    oracle_ratio_study,
    parseval_sq_distance,
    rate_fit,
    sigma_sq_profile,
    synthesize,
    truncation_remainder,
)
from ivadapt import seeds
from ivadapt.risk import _map_payloads, _usable_cores
from ivadapt.cli import main as cli_main

GRID = tuple(2**e for e in range(9, 16))
STUDY_REPS = 200
STUDY_SEED = 20240901


def check(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert ok, f"criterion {num}: {description}{suffix}"


@pytest.fixture(scope="module")
def default_spec():
    return DgpSpec.default()


@pytest.fixture(scope="module")
def sigma_default(default_spec):
    values = sigma_sq_profile(default_spec, default_spec.phi.support)
    return values


@pytest.fixture(scope="module")
def ratio_study(default_spec):
    return oracle_ratio_study(
        default_spec, EstimatorConfig(), GRID, STUDY_REPS, STUDY_SEED, jobs=_usable_cores()
    )


def test_criterion_01_basis_correctness():
    x = quad_grid()
    vals = basis_matrix(x, np.arange(1, 21))
    max_err = 0.0
    for k in range(20):
        for l in range(20):
            inner = trapezoid_inner(vals[:, k], vals[:, l], x)
            max_err = max(max_err, abs(inner - (1.0 if k == l else 0.0)))
    ortho_ok = max_err < 1e-8

    rng = np.random.default_rng(20240902)
    parseval_err = 0.0
    for _ in range(100):
        f = CoefficientVector(rng.standard_normal(10))
        g = CoefficientVector(rng.standard_normal(10))
        quad = trapezoid_inner(
            synthesize(f, x) - synthesize(g, x), synthesize(f, x) - synthesize(g, x), x
        )
        parseval_err = max(parseval_err, abs(parseval_sq_distance(f, g) - quad))
    parseval_ok = parseval_err < 1e-6

    check(
        1,
        "basis orthonormality within 1e-8 and Parseval vs quadrature within 1e-6",
        ortho_ok and parseval_ok,
        f"orthonormality err {max_err:.2e}, parseval err {parseval_err:.2e}",
    )


def test_criterion_02_eigenvalue_fidelity(default_spec):
    n = 10**6
    sample = generate_sample(default_spec, n, seed=seeds.sequence(20240903, "fidelity"))
    mean, se = cross_moment_stats(sample.x, sample.w, K=10)
    lam = eigenvalue_profile(10, default_spec.t)
    diag_dev = max(abs(mean[k, k] - lam[k]) / se[k, k] for k in range(10))
    off_dev = max(
        abs(mean[k, l]) / se[k, l] for k in range(10) for l in range(10) if k != l
    )
    check(
        2,
        "cross moments match (1+j)^-1 within 3 se on the diagonal, 0 within 4 se off it",
        diag_dev <= 3.0 and off_dev <= 4.0,
        f"max diagonal dev {diag_dev:.2f} se, max off-diagonal dev {off_dev:.2f} se",
    )


def test_criterion_03_exogeneity_and_endogeneity():
    spec = DgpSpec(
        t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector([1.0]), a=1.0, eta_sd=0.1
    )
    n = 10**6
    sample = generate_sample(spec, n, seed=seeds.sequence(20240904, "exogeneity"))
    u = sample.y  # phi = 0, so the response is the error term itself
    means, stderrs, counts = binned_means(u, sample.w, 50)
    bins_ok = bool(np.all(np.abs(means) <= 4 * stderrs)) and counts.min() > 0
    worst_bin = float(np.max(np.abs(means) / stderrs))
    corr = float(np.corrcoef(u, np.cos(2 * np.pi * sample.x))[0, 1])
    corr_ok = abs(corr) > 0.05
    check(
        3,
        "binned E[U|W] within 4 se of 0 while corr(U, cos 2 pi X) exceeds 0.05",
        bins_ok and corr_ok,
        f"worst bin {worst_bin:.2f} se, corr {corr:.3f}",
    )


def _first_eigenvalue_estimate(payload):
    spec, n, rep = payload
    sample = generate_sample(spec, n, seed=seeds.sequence(20240905, "eig", n, rep))
    return estimate_eigenvalues(sample, 1)[0]


def test_criterion_04_eigenvalue_estimator_unbiased():
    spec = DgpSpec(
        t=1.0, phi=CoefficientVector.zero(), g=CoefficientVector.zero(), a=0.0, eta_sd=1.0
    )
    reps, n = 200, 10**5
    payloads = [(spec, n, rep) for rep in range(reps)]
    values = np.asarray(_map_payloads(_first_eigenvalue_estimate, payloads, _usable_cores()))
    se = values.std(ddof=1) / math.sqrt(reps)
    dev = abs(values.mean() - 0.5) / se
    check(
        4,
        "mean estimated first eigenvalue within 3 se of 0.5 over 200 replications",
        dev <= 3.0,
        f"mean {values.mean():.6f}, dev {dev:.2f} se",
    )


def test_criterion_05_resolution_bracketing(default_spec):
    config = EstimatorConfig()
    small, big = coverage_study(
        default_spec, config, (10**3, 10**4), 500, master_seed=20240906, jobs=_usable_cores()
    )
    ok = big.fraction >= 0.90 and big.fraction >= small.fraction - 0.05
    check(
        5,
        "bracketing frequency >= 0.90 at n=10^4 and not below the n=10^3 value - 0.05",
        ok,
        f"fraction(1e4) {big.fraction:.3f}, fraction(1e3) {small.fraction:.3f}",
    )


def test_criterion_06_scaling_invariance(default_spec):
    config = EstimatorConfig()
    worst_rel = 0.0
    levels_match = True
    nonempty = 0
    for rep in range(50):
        sample = generate_sample(default_spec, 4096, seed=seeds.sequence(20240907, "scale", rep))
        base = adaptive_estimate(sample, config)
        for c in (0.1, 3.0, 10.0):
            scaled = adaptive_estimate(IvSample(y=c * sample.y, x=sample.x, w=sample.w), config)
            if scaled.m_selected != base.m_selected:
                levels_match = False
                continue
            if base.m_selected > 0:
                nonempty += 1
                rel = np.abs(scaled.phi_hat.coeffs - c * base.phi_hat.coeffs) / np.abs(
                    c * base.phi_hat.coeffs
                )
                worst_rel = max(worst_rel, float(rel.max()))
    check(
        6,
        "level selection invariant and estimate exactly homogeneous under response scaling",
        levels_match and worst_rel <= 1e-12 and nonempty > 0,
        f"worst relative error {worst_rel:.2e} over {nonempty} nonempty cases",
    )


def test_criterion_07_oracle_ratio_bounded(ratio_study):
    ratios = ratio_study.ratio
    finite = bool(np.all(np.isfinite(ratios)) and np.all(ratios > 0))
    trend_ok = ratios[-1] <= 1.5 * ratios[0]
    check(
        7,
        "loss / (log^2 n * inf penalized risk) finite at every n and non-exploding",
        finite and trend_ok,
        f"ratio(2^9) {ratios[0]:.4f}, ratio(2^15) {ratios[-1]:.4f}",
    )


def test_criterion_08_rate_of_convergence(ratio_study):
    fit = rate_fit(ratio_study.n_grid, ratio_study.mean_loss, s=1.0, t=1.0)
    ok = -0.55 <= fit.fitted_slope <= -0.25
    check(
        8,
        "fitted slope on the log-corrected abscissa within [-0.55, -0.25]",
        ok,
        f"fitted {fit.fitted_slope:.3f} (raw-n slope {fit.raw_slope:.3f}, expected {fit.expected_slope})",
    )


def test_criterion_09_remainder_vanishes(default_spec, sigma_default):
    rows = []
    ok = True
    for n in GRID:
        m0 = oracle_level(default_spec.phi, default_spec.t, sigma_default, n)
        lower, _ = deterministic_resolution_bounds(default_spec.t, n)
        remainder = truncation_remainder(default_spec.phi, default_spec.t, sigma_default, n)
        rows.append(f"n={n}: m0={m0}, lower={lower}, remainder={remainder:.4f}")
        if m0 > lower or remainder != 0.0:
            ok = False
    check(
        9,
        "oracle level within the deterministic lower bound and remainder exactly zero",
        ok,
        "; ".join(rows),
    )


def test_criterion_10_oracle_dominance(ratio_study):
    dominance = True
    envelope = True
    details = []
    for i, n in enumerate(ratio_study.n_grid):
        slack = 4.0 * (ratio_study.stderr[i] + ratio_study.naive_stderr[i])
        if ratio_study.naive_mean_loss[i] > ratio_study.mean_loss[i] + slack:
            dominance = False
        rel = ratio_study.mean_loss[i] / ratio_study.naive_mean_loss[i]
        if rel > 10.0 * math.log(int(n)) ** 2:
            envelope = False
        details.append(f"n={int(n)}: adaptive/naive {rel:.2f}")
    check(
        10,
        "known-operator oracle risk never exceeds the adaptive risk; ratio inside 10 log^2 n",
        dominance and envelope,
        "; ".join(details),
    )


def test_criterion_11_byte_identical_reruns(tmp_path):
    config = {
        "study": "rate-study",
        "dgp": {
            "t": 1.0,
            "a": 0.5,
            "eta_sd": 0.5,
            "phi": {"family": "sobolev", "s": 1.0, "q": 2.0, "amplitude": 1.0, "k_support": 50},
            "g": {"coeffs": [1.0, 0.5]},
        },
        "n_grid": [128, 256, 512, 1024, 2048],
        "reps": 10,
        "master_seed": 20240908,
        "jobs": 1,
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))

    def run_and_hash(out_name, jobs):
        out = tmp_path / out_name
        code = cli_main(
            ["rate-study", "--config", str(cfg_path), "--out", str(out), "--jobs", str(jobs)]
        )
        assert code == 0
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name != "manifest.json"
        }

    first = run_and_hash("a", jobs=1)
    second = run_and_hash("b", jobs=1)
    parallel = run_and_hash("c", jobs=2)
    ok = first == second == parallel and len(first) >= 4
    check(
        11,
        "study reruns produce byte-identical data files for any parallelism degree",
        ok,
        f"{len(first)} data files compared",
    )
