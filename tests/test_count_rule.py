"""One count rule and one real-number rule, each checked before any work; a study input still names its argument.

Every integer argument is an int (Python or numpy, of any size), not a bool, and at least its lower bound
(basis._count).  Every real parameter is a finite Python or numpy int or float, not a bool, and at least (or
above) its lower bound (basis._real)."""

import dataclasses
import functools
import math
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
    deterministic_resolution_bounds,
    eigenvalue_profile,
    estimate_r_coeffs,
    estimate_sigma_sq,
    frequency,
    generate_sample,
    make_test_function,
    oracle_level,
    oracle_ratio_study,
    oracle_summary,
    penalized_criterion,
    rate_fit,
    restricted_oracle_level,
    risk_naive,
    sample_noise,
    select_level,
    sigma_sq_profile,
    true_eigenvalue,
)
from ivadapt import estimator, risk

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


def _beyond_numpy(argument, value):
    return f"^{argument} must lie in numpy's int range {re.escape('-2**63..2**64-1')}, not {value}$"


def _not_real(argument, value):
    return f"^{argument} must be a finite int or float, not {re.escape(repr(value))}$"


def _supersmooth(gamma=1.0, t_exp=1.0, amplitude=1.0):
    return make_test_function(
        FunctionFamilySpec(kind="supersmooth", gamma=gamma, t_exp=t_exp, amplitude=amplitude, k_support=3)
    )


def _bracket_after_its_valid_twin(t, n):
    deterministic_resolution_bounds(1.0, 1000)  # the entry a hit would read
    return deterministic_resolution_bounds(t, n)


NAN, INF = math.nan, math.inf
LOSSES = [1.0, 0.5, 0.25, 0.125]
NOT_A_GRID = "^n_grid must be a nonempty sequence of strictly increasing int sample sizes, at least 3 and at most "
NOT_A_GRID += f"{np.iinfo(np.intp).max // 8}$"


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
    # a Python int beyond numpy's 64-bit range is named by the range rule
    "frequency-beyond-uint64": (lambda: frequency(10**20), _beyond_numpy("k", 10**20)),
    "true_eigenvalue-beyond-uint64": (lambda: true_eigenvalue(2**64, 1.0), _beyond_numpy("k", 2**64)),
    # the real-number rule: each of these returned a value, or failed another way, before it
    "oracle_level-nan-t": (lambda: oracle_level(PHI, NAN, SIGMA, 100), _not_real("t", NAN)),
    "risk_naive-nan-t": (lambda: risk_naive(PHI, NAN, SIGMA, 100, 2), _not_real("t", NAN)),
    "true_eigenvalue-nan-t": (lambda: true_eigenvalue(3, NAN), _not_real("t", NAN)),
    "true_eigenvalue-bool-t": (lambda: true_eigenvalue(3, True), _not_real("t", True)),
    "sample_noise-nan-t": (lambda: sample_noise(NAN, 5, None), _not_real("t", NAN)),  # before the draw: no rng needed
    "bracket-inf-t": (lambda: deterministic_resolution_bounds(INF, 1000), _not_real("t", INF)),
    "bracket-cached-float-n": (lambda: _bracket_after_its_valid_twin(1.0, 1000.0), _not_int("n", 1000.0)),
    "bracket-cached-bool-t": (lambda: _bracket_after_its_valid_twin(True, 1000), _not_real("t", True)),
    "rate_fit-t-zeroes-the-slope": (lambda: rate_fit([10, 100, 1000, 10000], LOSSES, s=0.25, t=-0.75),
                                    "^t must be above 0, not -0.75$"),
    "rate_fit-nan-s": (lambda: rate_fit([10, 100, 1000, 10000], LOSSES, s=NAN, t=1.0), _not_real("s", NAN)),
    "sobolev-nan-s": (lambda: make_test_function(FunctionFamilySpec(kind="sobolev", s=NAN, k_support=3)),
                      _not_real("s", NAN)),
    "sobolev-zero-s": (lambda: make_test_function(FunctionFamilySpec(kind="sobolev", s=0.0, k_support=3)),
                       "^s must be above 0, not 0.0$"),
    "sobolev-nan-q": (lambda: make_test_function(FunctionFamilySpec(kind="sobolev", s=1.0, q=NAN, k_support=3)),
                      _not_real("q", NAN)),
    "supersmooth-nan-t_exp": (lambda: _supersmooth(t_exp=NAN), _not_real("t_exp", NAN)),
    "supersmooth-zero-t_exp": (lambda: _supersmooth(t_exp=0), "^t_exp must be above 0, not 0$"),
    "supersmooth-negative-gamma": (lambda: _supersmooth(gamma=-1.0), "^gamma must be at least 0, not -1.0$"),
    "supersmooth-nan-amplitude": (lambda: _supersmooth(amplitude=NAN), _not_real("amplitude", NAN)),
    "dgp-negative-eta_sd": (lambda: dataclasses.replace(SPEC, eta_sd=-0.5), "^eta_sd must be at least 0, not -0.5$"),
    "dgp-nan-a": (lambda: dataclasses.replace(SPEC, a=NAN), _not_real("a", NAN)),
    # a flag is a Python or numpy bool, and a DgpSpec's functions are CoefficientVectors
    "allow_empty_model-str": (lambda: EstimatorConfig(allow_empty_model="no"),
                              "^allow_empty_model must be a bool, not 'no'$"),
    "select_level-str": (lambda: select_level([0.0, 1.0, 2.0], allow_empty="no"), "^allow_empty must be a bool, not 'no'$"),
    "dgp-list-phi": (lambda: dataclasses.replace(SPEC, phi=[1.0]), r"^phi must be a CoefficientVector, not \[1\.0\]$"),
    "dgp-list-g": (lambda: dataclasses.replace(SPEC, g=[0.5]), r"^g must be a CoefficientVector, not \[0\.5\]$"),
    # rate_fit's grid is a study grid
    "rate_fit-grid-from-1": (lambda: rate_fit([1, 10, 100, 1000], LOSSES, s=1.0, t=1.0), NOT_A_GRID),
    "rate_fit-grid-from-0": (lambda: rate_fit([0, 10, 100, 1000], LOSSES, s=1.0, t=1.0), NOT_A_GRID),
    "rate_fit-unsorted-grid": (lambda: rate_fit([100, 10, 1000, 5], LOSSES, s=1.0, t=1.0), NOT_A_GRID),
    "rate_fit-float-grid": (lambda: rate_fit([2.5, 30, 300, 3000], LOSSES, s=1.0, t=1.0), NOT_A_GRID),
}

# NaN, an infinity, a bool, a string and an int beyond float range, for t, eta_sd, the penalty exponent and gamma
NOT_FINITE_REALS = {"nan": NAN, "inf": INF, "bool": True, "str": "1.0", "huge-int": 10**400}
REAL_PARAMETERS = {
    "t": lambda value: dataclasses.replace(SPEC, t=value),
    "eta_sd": lambda value: dataclasses.replace(SPEC, eta_sd=value),
    "penalty_log_exponent": lambda value: EstimatorConfig(penalty_log_exponent=value),
    "gamma": lambda value: _supersmooth(gamma=value),
}
REJECTED.update(
    (f"{argument}-{label}", (functools.partial(make, value), _not_real(argument, value)))
    for argument, make in REAL_PARAMETERS.items()
    for label, value in NOT_FINITE_REALS.items()
)


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


@pytest.mark.parametrize("value", [1.5, True, None, "7"], ids=["float", "bool", "none", "str"])
@pytest.mark.parametrize("study", ["ratio", "coverage", "summary"])
def test_a_study_checks_its_master_seed_before_the_oracle_the_brackets_and_any_sample(monkeypatch, study, value):
    for name in ("sigma_sq_profile", "deterministic_resolution_bounds", "generate_sample"):
        monkeypatch.setattr(risk, name, _no_work)
    calls = {
        "ratio": lambda: oracle_ratio_study(SPEC, EstimatorConfig(), [1000], 3, master_seed=value),
        "coverage": lambda: coverage_study(SPEC, EstimatorConfig(), [1000], 3, master_seed=value),
        "summary": lambda: oracle_summary(SPEC, EstimatorConfig(), [1000], master_seed=value),
    }
    with pytest.raises(ValueError, match=_not_int("master_seed", value)) as info:
        calls[study]()
    assert info.value.argument == "master_seed"


def test_a_master_seed_is_any_int_read_as_its_64_bit_mask():
    runs = [coverage_study(SPEC, EstimatorConfig(), [1000], 3, master_seed=seed) for seed in (-1, np.int64(-1), 2**64 - 1)]
    assert runs[0] == runs[1] == runs[2]


@pytest.mark.parametrize("t, n, argument", [(NAN, 1000, "t"), (True, 1000, "t"), (1.0, 1000.0, "n"), (1.0, 2, "n")])
def test_the_bracket_checks_t_and_n_before_its_cache_and_its_bisection(monkeypatch, t, n, argument):
    monkeypatch.setattr(estimator, "_bracket", _no_work)
    monkeypatch.setattr(estimator, "_first_eigenvalue_crossing", _no_work)
    with pytest.raises(ValueError) as info:
        deterministic_resolution_bounds(t, n)
    assert info.value.argument == argument


def test_a_real_may_be_a_python_int_or_a_numpy_float():
    third = true_eigenvalue(3, 1.0)
    assert true_eigenvalue(3, 1) == true_eigenvalue(3, np.float32(1.0)) == true_eigenvalue(3, np.float64(1.0)) == third
    assert generate_sample(dataclasses.replace(SPEC, t=1), 64, seed=5) == SAMPLE
    assert dataclasses.replace(SPEC, a=-0.5, eta_sd=np.float64(0.0)).a == -0.5  # a takes any finite value
    assert _supersmooth(amplitude=0) == CoefficientVector(np.zeros(3))
    assert _supersmooth(gamma=0, t_exp=np.float32(2.0)) == CoefficientVector(np.ones(3))
    assert EstimatorConfig(penalty_log_exponent=np.float64(0.0)).penalty_weight(100) == 1 / 100
    assert deterministic_resolution_bounds(np.float64(1.0), np.int64(1000)) == deterministic_resolution_bounds(1, 1000)
    assert rate_fit([10, 100, 1000, 10000], LOSSES, s=1, t=np.float32(1.0)).expected_slope == -2 / 5


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
