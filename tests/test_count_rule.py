"""One count rule: every integer argument is an int (Python or numpy, of any size), not a bool, and at least its
lower bound, checked by basis._count before any work; a study input still names its argument."""

import re

import numpy as np
import pytest

from ivadapt import (
    CoefficientVector,
    DgpSpec,
    EstimatorConfig,
    FunctionFamilySpec,
    basis_matrix,
    coverage_study,
    eigenvalue_profile,
    estimate_r_coeffs,
    estimate_sigma_sq,
    frequency,
    generate_sample,
    make_test_function,
    oracle_ratio_study,
    penalized_criterion,
    restricted_oracle_level,
    risk_naive,
    sigma_sq_profile,
)
from ivadapt import risk

SPEC = DgpSpec.default()
SAMPLE = generate_sample(SPEC, 64, seed=5)
POINTS = np.linspace(0.0, 1.0, 7)
PHI = CoefficientVector([1.0, 0.5, 0.25])
SIGMA = np.ones(3)


def _sobolev(k_support):
    return make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, k_support=k_support))


def _not_int(argument, value, arrays=False):
    kind = "an int or an array of ints" if arrays else "an int"
    return f"^{argument} must be {kind}, not {re.escape(repr(value))}$"


# (call, the full message); each of these was accepted, or failed inside numpy, before the one rule
REJECTED = {
    "basis_matrix-float-index": (lambda: basis_matrix(POINTS, [1.5]), _not_int("k", np.array([1.5]), arrays=True)),
    "frequency-float": (lambda: frequency(1.5), _not_int("k", 1.5, arrays=True)),
    "frequency-bool": (lambda: frequency(True), _not_int("k", True, arrays=True)),
    "eigenvalue_profile-float": (lambda: eigenvalue_profile(2.5, 1.0), _not_int("K", 2.5)),
    "eigenvalue_profile-negative": (lambda: eigenvalue_profile(-1, 1.0), "^K must be at least 0, not -1$"),
    "k_support-float": (lambda: _sobolev(2.5), _not_int("k_support", 2.5)),
    "k_max-bool": (lambda: EstimatorConfig(k_max=True), _not_int("k_max", True)),
    "estimate_sigma_sq-bool": (lambda: estimate_sigma_sq(SAMPLE, True), _not_int("K", True)),
    "estimate_r_coeffs-float": (lambda: estimate_r_coeffs(SAMPLE, 2.0), _not_int("K", 2.0)),
    "sigma_sq_profile-float": (lambda: sigma_sq_profile(SPEC, 1.5), _not_int("K", 1.5)),
    "sigma_sq_profile-draws": (lambda: sigma_sq_profile(SPEC, 0, n_draws=0), "^n_draws must be at least 1, not 0$"),
    "restricted_oracle_level-bool": (
        lambda: restricted_oracle_level(PHI, 1.0, SIGMA, 100, True),
        _not_int("resolution", True),
    ),
    "generate_sample-float": (lambda: generate_sample(SPEC, 2.5, seed=5), _not_int("n", 2.5)),
    "risk_naive-empty": (lambda: risk_naive(PHI, 1.0, SIGMA, 100, []), _not_int("m", [], arrays=True)),
    "penalized_criterion-float-n": (lambda: penalized_criterion(SIGMA, SIGMA, SIGMA, 1, 99.5), _not_int("n", 99.5)),
    "resolution_cap-bool": (lambda: EstimatorConfig().resolution_cap(True), _not_int("n", True)),
    "padded-float": (lambda: PHI.padded(4.5), _not_int("size", 4.5)),
}


@pytest.mark.parametrize("case", REJECTED)
def test_a_count_that_is_no_int_or_too_small_is_rejected(case):
    call, message = REJECTED[case]
    with pytest.raises(ValueError, match=message):
        call()


def _no_work(*args, **kwargs):
    raise AssertionError("the study did work before checking its counts")


@pytest.mark.parametrize(
    "study, argument, value",
    [
        (oracle_ratio_study, "reps", 2.5),
        (oracle_ratio_study, "reps", True),
        (coverage_study, "jobs", 1.5),
        (coverage_study, "jobs", True),
    ],
    ids=["rate-reps-float", "rate-reps-bool", "coverage-jobs-float", "coverage-jobs-bool"],
)
def test_a_study_checks_reps_and_jobs_before_the_oracle_and_the_brackets(monkeypatch, study, argument, value):
    for name in ("sigma_sq_profile", "deterministic_resolution_bounds", "generate_sample"):
        monkeypatch.setattr(risk, name, _no_work)
    counts = {"reps": 3, "jobs": 1, argument: value}
    with pytest.raises(ValueError, match=_not_int(argument, value)) as info:
        study(SPEC, EstimatorConfig(), [1000], counts["reps"], master_seed=37, jobs=counts["jobs"])
    assert info.value.argument == argument


def test_numpy_ints_of_any_width_count_as_ints():
    assert frequency(np.int8(3)) == frequency(3) == 2
    narrow = basis_matrix(POINTS, np.arange(1, 6, dtype=np.uint8))
    assert narrow.tobytes() == basis_matrix(POINTS, range(1, 6)).tobytes()
    assert eigenvalue_profile(np.uint16(4), 1.0).tolist() == eigenvalue_profile(4, 1.0).tolist()
    assert _sobolev(np.int32(4)) == _sobolev(4)
    assert EstimatorConfig(k_max=np.int64(7)).resolution_cap(100) == 7
    assert estimate_sigma_sq(SAMPLE, np.uint8(3)).tolist() == estimate_sigma_sq(SAMPLE, 3).tolist()
    assert generate_sample(SPEC, np.int16(9), seed=5) == generate_sample(SPEC, 9, seed=5)
    level = restricted_oracle_level(PHI, 1.0, SIGMA, 100, np.int64(2))
    assert level == restricted_oracle_level(PHI, 1.0, SIGMA, 100, 2)
    # (k + 1) // 2 in the index's own dtype would wrap to 0 here
    assert frequency(np.array([255], dtype=np.uint8)).tolist() == [128]


def test_a_python_int_of_any_size_counts():
    assert EstimatorConfig(k_max=10**400).resolution_cap(100) == 100**4


def test_an_empty_index_set_gives_an_empty_table():
    assert basis_matrix(POINTS, []).shape == (POINTS.size, 0)
