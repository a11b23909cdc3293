import dataclasses
import hashlib
import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ivadapt import cli, estimator, oracle_ratio_study, rate_fit, risk
from ivadapt.cli import STUDIES, CliError, emit_plot_data, load_config, main
from ivadapt.estimator import resolution_threshold
from ivadapt.serialize import to_plain

BASE_CONFIG = {
    "study": "simulate",
    "dgp": {
        "t": 1.0,
        "a": 0.5,
        "eta_sd": 0.5,
        "phi": {"family": "sobolev", "s": 1.0, "q": 2.0, "amplitude": 1.0, "k_support": 50},
        "g": {"coeffs": [1.0, 0.5]},
    },
    "estimator": {"penalty_log_exponent": 2.0},
    "n_grid": [10],
    "reps": 1,
    "master_seed": 99,
    "jobs": 1,
}


def write_config(tmp_path, **overrides):
    payload = json.loads(json.dumps(BASE_CONFIG))
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


def data_files(out_dir):
    return sorted(
        p.name for p in out_dir.iterdir() if p.suffix in (".csv", ".json") and p.name != "manifest.json"
    )


def hash_outputs(out_dir):
    return {
        name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest() for name in data_files(out_dir)
    }


def test_simulate_writes_csv_contract(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "sample.csv").read_text().strip().splitlines()
    assert lines[0] == "y,x,w"
    assert len(lines) == 11
    for line in lines[1:]:
        y, x, w = (float(c) for c in line.split(","))
        assert 0.0 <= x < 1.0 and 0.0 <= w < 1.0


def test_rerun_is_byte_identical(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b)]) == 0
    assert hash_outputs(out_a) == hash_outputs(out_b)


def test_estimate_outputs(tmp_path):
    cfg = write_config(tmp_path, n_grid=[512])
    out = tmp_path / "run"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "estimate_report.json").read_text())
    assert report["n"] == 512
    assert 0 <= report["m_selected"] <= report["resolution"]
    phi_lines = (out / "phi_hat.csv").read_text().strip().splitlines()
    assert phi_lines[0] == "k,coefficient"
    assert len(phi_lines) == 1 + report["m_selected"]


def test_rate_study_outputs_and_jobs_independence(tmp_path):
    cfg = write_config(tmp_path, n_grid=[128, 256, 512, 1024, 2048], reps=10)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["rate-study", "--config", str(cfg), "--out", str(out_a), "--jobs", "1"]) == 0
    assert main(["rate-study", "--config", str(cfg), "--out", str(out_b), "--jobs", "2"]) == 0
    assert hash_outputs(out_a) == hash_outputs(out_b)
    fit = json.loads((out_a / "rate_fit.json").read_text())
    assert fit["expected_slope"] == pytest.approx(-0.4)
    assert fit["gamma"] == 6.0
    curve_lines = (out_a / "risk_curve.csv").read_text().strip().splitlines()
    assert curve_lines[0] == "n,mean_loss,stderr,oracle_risk,ratio"
    assert len(curve_lines) == 6
    plot_lines = (out_a / "plot_data.csv").read_text().strip().splitlines()
    assert plot_lines[0] == "block,log_n,log_loss"
    assert sum(1 for l in plot_lines if l.startswith("data,")) == 5
    assert sum(1 for l in plot_lines if l.startswith("fit,")) == 2


def test_rate_study_results_are_the_study_fields(tmp_path):
    # results.json holds every field of the study result at its top level
    cfg = write_config(tmp_path, n_grid=[128, 256, 512, 1024, 2048], reps=3)
    out = tmp_path / "run"
    assert main(["rate-study", "--config", str(cfg), "--out", str(out)]) == 0
    config, _ = load_config(cfg, study="rate-study", out=str(out))
    result = oracle_ratio_study(config.dgp, config.estimator, config.n_grid, config.reps, config.master_seed)
    fields = {f.name: getattr(result, f.name) for f in dataclasses.fields(result)}
    assert len(fields) == 9
    expected = {
        "config": config.to_json_dict(run_params=False),
        "study": "rate-study",
        "master_seed": config.master_seed,
        "rate_fit": rate_fit(result.n_grid, result.mean_loss, s=1.0, t=1.0),
        **fields,
    }
    assert json.loads((out / "results.json").read_text()) == to_plain(expected)


def test_risk_curve_is_the_rate_study_curve_without_the_fit(tmp_path):
    cfg = write_config(tmp_path, n_grid=[128, 256, 512, 1024, 2048], reps=4)
    curve, rate = tmp_path / "curve", tmp_path / "rate"
    assert main(["risk-curve", "--config", str(cfg), "--out", str(curve)]) == 0
    assert main(["rate-study", "--config", str(cfg), "--out", str(rate)]) == 0
    assert data_files(curve) == ["results.json", "risk_curve.csv"]
    assert (curve / "risk_curve.csv").read_bytes() == (rate / "risk_curve.csv").read_bytes()
    assert json.loads((curve / "results.json").read_text())["study"] == "risk-curve"


def test_rate_study_requires_family(tmp_path):
    cfg = write_config(
        tmp_path,
        n_grid=[128, 256, 512, 1024, 2048],
        reps=5,
        dgp={
            "t": 1.0,
            "a": 0.0,
            "eta_sd": 0.5,
            "phi": {"coeffs": [0.5, 0.2]},
            "g": {"coeffs": [1.0]},
        },
    )
    code = main(["rate-study", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2


def test_coverage_study_outputs(tmp_path):
    cfg = write_config(tmp_path, n_grid=[500, 1000], reps=25)
    out = tmp_path / "run"
    assert main(["coverage-study", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "coverage.csv").read_text().strip().splitlines()
    assert lines[0] == "n,reps,hits,fraction,ci_low,ci_high,lower_bound,upper_bound"
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert 0.0 <= float(cells[3]) <= 1.0


def test_coverage_study_jobs_independence(tmp_path):
    cfg = write_config(tmp_path, n_grid=[500, 1000], reps=12)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["coverage-study", "--config", str(cfg), "--out", str(out_a), "--jobs", "1"]) == 0
    assert main(["coverage-study", "--config", str(cfg), "--out", str(out_b), "--jobs", "2"]) == 0
    assert data_files(out_a) == ["coverage.csv", "results.json"]
    assert hash_outputs(out_a) == hash_outputs(out_b)


def test_oracle_study_outputs(tmp_path):
    cfg = write_config(tmp_path, n_grid=[512, 1024], reps=1)
    out = tmp_path / "run"
    assert main(["oracle-study", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "oracle_summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("n,oracle_m,restricted_oracle_m,resolution")
    assert len(lines) == 3
    results = json.loads((out / "results.json").read_text())
    assert len(results["results"]) == 2


@pytest.mark.parametrize("study", ["coverage-study", "oracle-study"])
def test_a_bracket_study_finds_each_bracket_once(tmp_path, monkeypatch, study):
    # the load check and the study read one bracket per n: two crossings
    # (lower and upper) per n and run
    crossing = estimator._first_eigenvalue_crossing
    thresholds = []

    def counting(t, threshold):
        thresholds.append(threshold)
        return crossing(t, threshold)

    monkeypatch.setattr(estimator, "_first_eigenvalue_crossing", counting)
    estimator._bracket.cache_clear()
    cfg = write_config(tmp_path, n_grid=[500, 1000, 2000], reps=2)
    assert main([study, "--config", str(cfg), "--out", str(tmp_path / "run")]) == 0
    assert len(thresholds) == 2 * 3


def test_manifest_checksums_match(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["tool"] == "ivadapt"
    assert set(manifest["outputs"]) == set(data_files(out))
    for name, entry in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        assert entry["sha256"] == digest
        assert entry["bytes"] == (out / name).stat().st_size


def test_manifest_records_numpy_and_its_dispatch_targets(tmp_path):
    # the data files are byte-identical for one numpy version and dispatch target
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    record = json.loads((out / "manifest.json").read_text())["numpy"]
    assert set(record) == {"version", "dispatch"}
    assert record["version"] == np.__version__
    dispatch = record["dispatch"]
    assert dispatch is None or set(dispatch) == {"tan", "arctan", "exp", "power"}


def test_manifest_checksum_reads_an_output_in_blocks(tmp_path):
    # a several-MiB output (a 2^18-row sample.csv is 15 MB) is never held whole
    path = tmp_path / "sample.csv"
    path.write_bytes(np.random.default_rng(4).bytes(6 * 2**20 + 12345))
    tracemalloc.start()
    try:
        digest = cli._sha256(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()
    assert peak < 2 * 2**20
    for size in (0, 1, cli._HASH_BLOCK - 1, cli._HASH_BLOCK, cli._HASH_BLOCK + 1):
        path.write_bytes(b"\x5a" * size)
        assert cli._sha256(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_invalid_config_gives_machine_readable_error(tmp_path, capsys):
    cfg = write_config(tmp_path, n_grid=[])
    code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record

    missing = main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
    assert missing == 2


@pytest.mark.parametrize(
    "study, overrides, field",
    [
        ("estimate", {"n_grid": [2]}, "n_grid"),
        ("coverage-study", {"n_grid": [2]}, "n_grid"),
        ("oracle-study", {"n_grid": [2]}, "n_grid"),
        ("simulate", {"n_grid": [0]}, "n_grid"),
        ("risk-curve", {"n_grid": [128, 256], "reps": 1}, "reps"),
        ("rate-study", {"n_grid": [128, 256, 512, 1024, 2048], "reps": 1}, "reps"),
        ("rate-study", {"n_grid": [128, 512, 2048], "reps": 2}, "n_grid"),
        ("rate-study", {"n_grid": [128, 256, 512, 1024], "reps": 2}, "n_grid"),
        ("coverage-study", {"n_grid": [1000], "reps": 10**9 + 1}, "reps"),
        ("simulate", {"reps": 0}, "reps"),
        ("estimate", {"reps": 0}, "reps"),
        ("oracle-study", {"reps": 0}, "reps"),
    ],
)
def test_study_preconditions_give_error_record(tmp_path, capsys, study, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main([study, "--config", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["field"] == field and record["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"estimator": [1]}, "estimator"),
        ({"estimator": ["k_max"]}, "estimator"),
        ({"dgp": {"phi": {"coeffs": "abc"}}}, "dgp.phi.coeffs"),
        ({"dgp": {"phi": {"family": "sobolev", "s": "abc"}}}, "dgp.phi.s"),
        ({"dgp": {"phi": {"coeffs": [1.0]}, "g": {"coeffs": [1.0]}, "t": [1]}}, "dgp.t"),
    ],
)
def test_malformed_config_fields_give_error_record(tmp_path, capsys, overrides, field):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "x"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["field"] == field and record["error"]
    assert not out.exists()


def with_dgp(**fields):
    return {"dgp": {**BASE_CONFIG["dgp"], **fields}}


def with_estimator(**fields):
    return {"estimator": {**BASE_CONFIG["estimator"], **fields}}


def with_phi(**fields):
    return with_dgp(phi={**BASE_CONFIG["dgp"]["phi"], **fields})


NAN, INF = float("nan"), float("inf")

# JSON NaN and Infinity are numbers that no field takes
NON_FINITE_FLOATS = [
    ("estimate", with_dgp(t=NAN), "dgp.t"),
    ("estimate", with_dgp(t=INF), "dgp.t"),
    ("estimate", with_dgp(t=-INF), "dgp.t"),
    ("estimate", with_dgp(eta_sd=NAN), "dgp.eta_sd"),
    ("estimate", with_dgp(a=INF), "dgp.a"),
    ("estimate", with_dgp(a=-INF), "dgp.a"),
    ("coverage-study", with_dgp(t=NAN), "dgp.t"),
    ("coverage-study", with_dgp(t=INF), "dgp.t"),
    ("coverage-study", with_dgp(eta_sd=NAN), "dgp.eta_sd"),
    ("coverage-study", with_dgp(a=INF), "dgp.a"),
    ("estimate", with_estimator(penalty_log_exponent=NAN), "estimator.penalty_log_exponent"),
    ("estimate", with_estimator(penalty_log_exponent=INF), "estimator.penalty_log_exponent"),
    ("estimate", with_phi(amplitude=NAN), "dgp.phi.amplitude"),
    ("estimate", with_dgp(g={"coeffs": [1.0, INF]}), "dgp.g.coeffs"),
]

# the flat-penalty constant is no longer a knob: any value is an unknown key
RETIRED_KEYS = [
    ("estimate", with_estimator(u0_constant=2.0), "estimator"),
    ("estimate", with_estimator(u0_constant="nan"), "estimator"),
]

# a flag must be a JSON boolean, a float field takes a JSON number only
# (no boolean, numeric string or null), and a path is a JSON string
MISTYPED = [
    ("estimate", with_estimator(allow_empty_model="false"), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_estimator(allow_empty_model=0), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_estimator(allow_empty_model=1), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_estimator(allow_empty_model=None), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_dgp(t=True), "dgp.t", "number"),
    ("estimate", with_dgp(a=True), "dgp.a", "number"),
    ("estimate", with_dgp(eta_sd=False), "dgp.eta_sd", "number"),
    ("estimate", with_estimator(penalty_log_exponent=True), "estimator.penalty_log_exponent", "number"),
    ("estimate", with_dgp(t="0.5"), "dgp.t", "number"),
    ("estimate", with_dgp(t="nan"), "dgp.t", "number"),
    ("estimate", with_dgp(a="inf"), "dgp.a", "number"),
    ("estimate", with_dgp(t=None), "dgp.t", "number"),
    ("estimate", with_estimator(penalty_log_exponent="2"), "estimator.penalty_log_exponent", "number"),
    ("estimate", with_estimator(k_max=None), "estimator.k_max", "integer"),
    ("estimate", {"output_dir": ["x", 1]}, "output_dir", "string"),
    ("estimate", {"output_dir": None}, "output_dir", "string"),
    ("estimate", {"study": 3}, "study", "string"),
]

# at t = 0.05, n = 1000 the upper bracket crossing sits near frequency 10^17;
# k_max keeps the oracle study short should that check ever be skipped
UNBOUNDED_BRACKET = [
    ("coverage-study", with_dgp(t=0.05), "dgp.t", "bracket"),
    ("oracle-study", {**with_dgp(t=0.05), **with_estimator(k_max=100)}, "dgp.t", "bracket"),
]

NON_INTEGER_COUNTS = [
    ("simulate", {"n_grid": [1000.5]}, "n_grid"),
    ("simulate", {"n_grid": [True]}, "n_grid"),
    ("simulate", {"n_grid": ["10"]}, "n_grid"),
    ("simulate", {"n_grid": 10}, "n_grid"),
    ("simulate", {"n_grid": "10"}, "n_grid"),
    ("coverage-study", {"reps": 2.5}, "reps"),
    ("coverage-study", {"reps": True}, "reps"),
    ("coverage-study", {"reps": "3"}, "reps"),
    ("simulate", {"master_seed": 1.5}, "master_seed"),
    ("simulate", {"master_seed": "7"}, "master_seed"),
    ("simulate", {"master_seed": False}, "master_seed"),
    ("simulate", {"jobs": 1.5}, "jobs"),
    ("simulate", {"jobs": "2"}, "jobs"),
    ("simulate", {"jobs": True}, "jobs"),
    ("estimate", with_estimator(k_max=2.5), "estimator.k_max"),
    ("estimate", with_estimator(k_max="100"), "estimator.k_max"),
]

# k_max is the only scan horizon: the separate cap is an unknown key
RETIRED_SCAN_CAP = [
    ("estimate", with_estimator(n_cap=2.5), "estimator"),
    ("estimate", with_estimator(n_cap=True), "estimator"),
    ("estimate", with_estimator(n_cap="5"), "estimator"),
]


SUPERSMOOTH = {"family": "supersmooth", "gamma": 0.5, "t_exp": 1.0, "k_support": 20}

# function-family fields are read as the same integers and numbers as
# every other config field
MISTYPED_FAMILY = [
    ("estimate", with_phi(k_support=True), "dgp.phi.k_support", "integer"),
    ("estimate", with_phi(k_support=7.9), "dgp.phi.k_support", "integer"),
    ("estimate", with_phi(amplitude=True), "dgp.phi.amplitude", "number"),
    ("estimate", with_phi(s=True), "dgp.phi.s", "number"),
    ("estimate", with_phi(s=0.25, q=True), "dgp.phi.q", "number"),
    ("estimate", with_dgp(g={**SUPERSMOOTH, "gamma": True}), "dgp.g.gamma", "number"),
    ("estimate", with_dgp(g={**SUPERSMOOTH, "t_exp": True}), "dgp.g.t_exp", "number"),
    ("estimate", with_phi(q="3"), "dgp.phi.q", "number"),
    ("estimate", with_phi(s=None), "dgp.phi.s", "number"),
    ("estimate", with_phi(family=["sobolev"]), "dgp.phi.family", "string"),
]

# dgp.phi and dgp.g take raw coeffs alone or a family with its parameters
COEFFS_OR_FAMILY = [
    ("estimate", with_dgp(phi={"coeffs": [1.0], "family": "sobolev", "s": -3}), "dgp.phi", "exactly one"),
    ("estimate", with_dgp(g={"coeffs": [1.0], "s": 1.0}), "dgp.g", "exactly one"),
    ("estimate", with_dgp(g={"s": 1.0}), "dgp.g", "exactly one"),
    ("estimate", with_dgp(g={}), "dgp.g", "exactly one"),
]

# a rule on a value names the value's dotted field, whichever object checks it
OUT_OF_RANGE = [
    ("estimate", with_dgp(t=-1.0), "dgp.t", "t must be above 0, not -1.0"),
    ("estimate", with_estimator(penalty_log_exponent=-1), "estimator.penalty_log_exponent",
     "penalty_log_exponent must be at least 0, not -1.0"),
    ("estimate", with_phi(s=-3), "dgp.phi.s", "s must be above 0, not -3.0"),
    ("estimate", with_phi(family="holder"), "dgp.phi.family", "unknown function family"),
    ("estimate", with_estimator(k_max=0), "estimator.k_max", "k_max must be at least 1, not 0"),
    ("estimate", with_dgp(eta_sd=-0.5), "dgp.eta_sd", "eta_sd must be at least 0, not -0.5"),
    ("estimate", with_phi(q=1.2), "dgp.phi.q", "q > s + 1/2"),
    ("estimate", with_phi(k_support=0), "dgp.phi.k_support", "k_support must be at least 1, not 0"),
    ("estimate", with_dgp(g={**SUPERSMOOTH, "gamma": -1}), "dgp.g.gamma", "gamma must be at least 0, not -1.0"),
]

# raw coefficients must be a JSON list of numbers: no booleans, no strings
MISTYPED_COEFFS = [
    ("estimate", with_dgp(g={"coeffs": True}), "dgp.g.coeffs", "list of numbers"),
    ("estimate", with_dgp(g={"coeffs": [True, False]}), "dgp.g.coeffs", "list of numbers"),
    ("estimate", with_dgp(g={"coeffs": "3"}), "dgp.g.coeffs", "list of numbers"),
    ("estimate", with_dgp(g={"coeffs": 3}), "dgp.g.coeffs", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [1.0, "0.5"]}), "dgp.phi.coeffs", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [1.0, None]}), "dgp.phi.coeffs", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [[1.0]]}), "dgp.phi.coeffs", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [10**400]}), "dgp.phi.coeffs", "float"),
    ("estimate", with_phi(s=10**400), "dgp.phi.s", "range"),
    ("estimate", with_dgp(t=10**400), "dgp.t", "range"),
]


# a zero phi makes the oracle risk 0 at m = 0, which the ratio divides
# by; with no noise and no endogeneity the whole risk curve is 0
ZERO_PHI = {"coeffs": [0.0]}
ZERO_RESPONSE = [
    ("risk-curve", with_dgp(phi=ZERO_PHI), "dgp.phi", "nonzero phi"),
    ("risk-curve", with_dgp(phi=ZERO_PHI, eta_sd=0.0, a=0.0), "dgp.phi", "nonzero phi"),
    ("rate-study", {**with_phi(amplitude=0), "n_grid": [100, 300, 1000, 3000]}, "dgp.phi", "nonzero phi"),
]


# the studies that compute the contrast need a finite penalty weight
# log(n)^p / n at every n of the grid: log(1000)^400 overflows, log(10)^400 does not
PENALTY_OVERFLOW = [
    ("estimate", with_estimator(penalty_log_exponent=1e4), "estimator.penalty_log_exponent", "overflows"),
    ("risk-curve", {**with_estimator(penalty_log_exponent=400), "n_grid": [10, 1000]},
     "estimator.penalty_log_exponent", "n = 1000"),
    ("rate-study", {**with_estimator(penalty_log_exponent=1e4), "n_grid": [100, 300, 1000, 3000]},
     "estimator.penalty_log_exponent", "overflows"),
]


# 8 n bytes must fit numpy's array size (intp): above it numpy raises
# ValueError before any allocation, so the bound is checked at load
N_TOO_LARGE = [
    (study, {"n_grid": [n]}, "n_grid", "at most")
    for study in ("simulate", "estimate")
    for n in (10**300, 2**62, 2**60)
]


@pytest.mark.parametrize(
    "study, overrides, field, reason",
    [(*case, "finite") for case in NON_FINITE_FLOATS]
    + [(*case, "unknown") for case in RETIRED_KEYS]
    + [(*case, "integer") for case in NON_INTEGER_COUNTS]
    + [(*case, "unknown") for case in RETIRED_SCAN_CAP]
    + MISTYPED
    + UNBOUNDED_BRACKET
    + MISTYPED_FAMILY
    + COEFFS_OR_FAMILY
    + OUT_OF_RANGE
    + MISTYPED_COEFFS
    + N_TOO_LARGE
    + ZERO_RESPONSE
    + PENALTY_OVERFLOW,
)
def test_non_finite_floats_and_non_integer_counts_give_error_record(
    tmp_path, capsys, study, overrides, field, reason
):
    cfg = write_config(tmp_path, **{"n_grid": [1000], "reps": 3, **overrides})
    out = tmp_path / "x"
    assert main([study, "--config", str(cfg), "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    record = json.loads(lines[0])
    assert record["field"] == field and reason in record["error"]
    assert not out.exists()


@pytest.mark.parametrize(
    "study, dgp",
    [
        ("oracle-study", {"phi": ZERO_PHI}),
        ("oracle-study", {"phi": ZERO_PHI, "eta_sd": 0.0}),
        ("coverage-study", {"phi": ZERO_PHI, "eta_sd": 0.0, "a": 0.0}),
        ("estimate", {"phi": ZERO_PHI, "eta_sd": 0.0, "a": 0.0}),
    ],
)
def test_zero_phi_is_accepted_where_no_risk_is_divided_by(tmp_path, study, dgp):
    cfg = write_config(tmp_path, n_grid=[1000], **with_dgp(**dgp))
    config, _ = load_config(cfg, study=study, out=str(tmp_path / "out"))
    assert not config.dgp.phi.coeffs.any()


@pytest.mark.parametrize(
    "dgp",
    [{"phi": ZERO_PHI, "eta_sd": 0.0, "a": 0.0}, {"phi": {"coeffs": []}, "eta_sd": 0.5}],
    ids=["zero-response", "empty-phi"],
)
def test_oracle_study_of_a_zero_phi_finds_oracle_level_0(tmp_path, dgp):
    # a zero response has a flat risk profile; an empty phi scans the one level m = 0
    cfg = write_config(tmp_path, n_grid=[500, 1000], **with_dgp(**dgp))
    out = tmp_path / "run"
    assert main(["oracle-study", "--config", str(cfg), "--out", str(out)]) == 0
    results = json.loads((out / "results.json").read_text())["results"]
    assert [(r["n"], r["oracle_m"], r["remainder"]) for r in results] == [(500, 0, 0.0), (1000, 0, 0.0)]


@pytest.mark.parametrize("study", ["simulate", "coverage-study", "oracle-study"])
def test_penalty_exponent_is_free_where_no_contrast_is_computed(tmp_path, study):
    cfg = write_config(tmp_path, n_grid=[1000], **with_estimator(penalty_log_exponent=1e4))
    config, _ = load_config(cfg, study=study, out=str(tmp_path / "out"))
    assert config.estimator.penalty_log_exponent == 1e4


CONFIG_KEYS = {"study", "dgp", "estimator", "n_grid", "reps", "master_seed"}


@pytest.mark.parametrize("phi, extra", [(None, {"phi_family"}), ({"coeffs": [0.5, 0.2]}, set())])
def test_config_echo_key_sets(tmp_path, phi, extra):
    dgp = {} if phi is None else with_dgp(phi=phi)
    cfg = write_config(tmp_path, n_grid=[64], **dgp)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    echo = json.loads((out / "results.json").read_text())["config"]
    assert set(echo) == CONFIG_KEYS | extra
    assert set(echo["dgp"]) == {"t", "a", "eta_sd", "phi", "g"}
    assert set(echo["dgp"]["phi"]) == set(echo["dgp"]["g"]) == {"coeffs"}
    assert set(echo["estimator"]) == {"k_max", "penalty_log_exponent", "allow_empty_model"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert set(manifest["config"]) == CONFIG_KEYS | extra | {"output_dir", "jobs"}
    if extra:
        assert set(echo["phi_family"]) == {"kind", "k_support", "amplitude", "s", "q", "gamma", "t_exp"}


def test_estimate_report_key_set(tmp_path):
    cfg = write_config(tmp_path, n_grid=[512])
    out = tmp_path / "run"
    assert main(["estimate", "--config", str(cfg), "--out", str(out)]) == 0
    report = json.loads((out / "estimate_report.json").read_text())
    assert set(report) == {
        "n", "resolution", "r_hat", "lambda_hat", "sigma_sq_hat", "criterion", "m_selected",
        "phi_hat", "empty_model", "cap_reached", "config",
    }
    assert set(report["phi_hat"]) == {"coeffs"}
    assert report["empty_model"] == (report["m_selected"] == 0)
    assert set(report["config"]) == {"k_max", "penalty_log_exponent", "allow_empty_model"}


def test_jobs_defaults_to_the_usable_cores(tmp_path, monkeypatch):
    monkeypatch.setattr(cli.risk, "_usable_cores", lambda: 3)
    payload = {key: value for key, value in BASE_CONFIG.items() if key != "jobs"}
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(payload))
    config, adjustments = load_config(cfg, out=str(tmp_path / "out"))
    assert config.jobs == 3
    assert "jobs defaulted to available cores: 3" in adjustments


def test_family_fields_are_read_as_floats(tmp_path):
    # a JSON integer in a float field is read as its float, as in dgp.t
    cfg = write_config(tmp_path, **with_phi(s=1, q=3, amplitude=2))
    config, _ = load_config(cfg, out=str(tmp_path / "out"))
    family = config.phi_family
    assert (family.s, family.q, family.amplitude) == (1.0, 3.0, 2.0)
    assert all(type(v) is float for v in (family.s, family.q, family.amplitude))
    assert config.to_json_dict()["phi_family"]["q"] == 3.0


def test_integral_floats_are_taken_as_ints(tmp_path):
    as_ints = tmp_path / "ints"
    as_ints.mkdir()
    as_floats = tmp_path / "floats"
    as_floats.mkdir()
    cfg_a = write_config(
        as_ints, n_grid=[10], reps=1, master_seed=99, jobs=1, **with_estimator(k_max=10**4)
    )
    cfg_b = write_config(
        as_floats, n_grid=[1e1], reps=1.0, master_seed=99.0, jobs=1.0,
        **with_estimator(k_max=1e4),
    )
    config, _ = load_config(cfg_b, out=str(tmp_path / "b"))
    assert config.n_grid == (10,) and type(config.n_grid[0]) is int
    assert type(config.reps) is int and type(config.master_seed) is int and type(config.jobs) is int
    assert config.estimator.k_max == 10**4 and type(config.estimator.k_max) is int
    assert main(["simulate", "--config", str(cfg_a), "--out", str(tmp_path / "a")]) == 0
    assert main(["simulate", "--config", str(cfg_b), "--out", str(tmp_path / "b")]) == 0
    assert hash_outputs(tmp_path / "a") == hash_outputs(tmp_path / "b")


def test_unwritable_output_dir(tmp_path, capsys):
    cfg = write_config(tmp_path)
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory")
    code = main(["simulate", "--config", str(cfg), "--out", str(blocker)])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert "error" in record


def test_out_of_memory_gives_error_record(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "generate_sample", no_memory)
    cfg = write_config(tmp_path)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "MemoryError"


@pytest.mark.parametrize(
    "study, eta_sd",
    [
        # eta_sd * Z overflows float64 in generate_sample
        ("simulate", 1e308),
        ("estimate", 1e308),
        # the response is finite, but its square in the moment sums is not
        ("estimate", 1e200),
    ],
)
def test_overflowing_response_gives_error_record(tmp_path, capsys, study, eta_sd):
    cfg = write_config(tmp_path, **with_dgp(eta_sd=eta_sd), n_grid=[100])
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflow warning would fail here
        assert main([study, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["field"] == "dgp"


@pytest.mark.parametrize("gamma, coeffs", [(0.0, [1.0] * 50), (0.5, [math.exp(-0.5)] + [0.0] * 49)])
def test_a_supersmooth_g_past_float_range_runs_without_a_warning(tmp_path, capsys, gamma, coeffs):
    # gamma >= 0 is valid: k^1000 passes float range from k = 3, and gamma = 0 keeps every coefficient at 1
    g = {"family": "supersmooth", "gamma": gamma, "t_exp": 1000.0, "k_support": 50}
    cfg = write_config(tmp_path, **with_dgp(g=g), n_grid=[100])
    out = tmp_path / "run"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert json.loads((out / "results.json").read_text())["config"]["dgp"]["g"]["coeffs"] == coeffs


# one arm of counts that are valid up to past the n bound, so that many
# draws get through every field to the study checks
VALID_COUNTS = st.integers(min_value=1, max_value=2**64)
JSON_COUNTS = st.one_of(
    VALID_COUNTS,
    st.integers(min_value=-(2**80), max_value=10**400),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 2.5, -0.5, 1e300, True, False, None, "10", ""]),
    st.lists(st.integers(min_value=-3, max_value=3), max_size=2),
)
N_GRIDS = st.one_of(
    st.lists(VALID_COUNTS, min_size=1, max_size=5, unique=True).map(sorted),
    st.lists(JSON_COUNTS, min_size=1, max_size=4),
)


# one arm of numbers every float field takes, so that many draws load
JSON_VALUES = st.one_of(
    st.floats(min_value=0.1, max_value=4.0),
    st.floats(allow_nan=True, allow_infinity=True),
    st.integers(min_value=-3, max_value=10**400),
    st.sampled_from([10**400, -(10**400), True, False, None, "0.5", "nan", ""]),
    st.lists(st.floats(min_value=0.0, max_value=2.0), max_size=2),
)


# each study's input check, called as the library function that runs the study calls it
LIBRARY_CHECKS = {
    "simulate": lambda c: risk._checked_grid(c.n_grid, min_n=1),
    "estimate": lambda c: [(resolution_threshold(n), c.estimator.penalty_weight(n)) for n in c.n_grid],
    "risk-curve": lambda c: risk._ratio_inputs(c.dgp, c.estimator, c.n_grid, c.reps, c.master_seed, c.jobs),
    "rate-study": lambda c: (
        risk._ratio_inputs(c.dgp, c.estimator, c.n_grid, c.reps, c.master_seed, c.jobs),
        rate_fit(c.n_grid, np.ones(len(c.n_grid)), 1.0, 1.0),
    ),
    "coverage-study": lambda c: risk._coverage_inputs(c.dgp, c.n_grid, c.reps, c.master_seed, c.jobs),
    "oracle-study": lambda c: risk._summary_inputs(c.dgp, c.n_grid, c.master_seed),
}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    study=st.sampled_from(STUDIES),
    n_grid=N_GRIDS,
    reps=JSON_COUNTS,
    master_seed=JSON_COUNTS,
    jobs=JSON_COUNTS,
    k_max=JSON_COUNTS,
    dgp=st.fixed_dictionaries({"t": JSON_VALUES, "a": JSON_VALUES, "eta_sd": JSON_VALUES}),
    family=st.fixed_dictionaries({"s": JSON_VALUES, "q": JSON_VALUES, "amplitude": JSON_VALUES}),
    penalty_log_exponent=JSON_VALUES,
    allow_empty_model=st.one_of(st.booleans(), JSON_VALUES),
    output_dir=st.one_of(st.text(max_size=8), JSON_VALUES),
)
def test_load_config_gives_a_config_or_a_cli_error(
    tmp_path, study, n_grid, reps, master_seed, jobs, k_max, dgp, family, penalty_log_exponent,
    allow_empty_model, output_dir,
):
    # k_support is left out: a large value allocates its coefficients at load
    estimator = {"k_max": k_max, "penalty_log_exponent": penalty_log_exponent, "allow_empty_model": allow_empty_model}
    cfg = write_config(
        tmp_path, n_grid=n_grid, reps=reps, master_seed=master_seed, jobs=jobs, output_dir=output_dir,
        dgp={**with_phi(**family)["dgp"], **dgp}, estimator=estimator,
    )
    try:
        config, _ = load_config(cfg, study=study, out=str(tmp_path / "out"))
    except CliError:
        return
    assert max(config.n_grid) * 8 <= np.iinfo(np.intp).max
    spec = config.phi_family
    floats = (config.dgp.t, config.dgp.a, config.dgp.eta_sd, config.estimator.penalty_log_exponent)
    assert all(type(v) is float and math.isfinite(v) for v in floats + (spec.s, spec.q, spec.amplitude))
    assert type(config.estimator.allow_empty_model) is bool
    # the CLI and the library cannot drift apart: every config it loads passes the study's own check
    LIBRARY_CHECKS[config.study](config)


def test_seed_override_changes_outputs(tmp_path):
    cfg = write_config(tmp_path)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["simulate", "--config", str(cfg), "--out", str(out_a)]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(out_b), "--seed", "7"]) == 0
    assert hash_outputs(out_a) != hash_outputs(out_b)
    manifest = json.loads((out_b / "manifest.json").read_text())
    assert manifest["master_seed"] == 7
    assert any("master_seed" in note for note in manifest["adjustments"])


def test_load_config_validation(tmp_path):
    with pytest.raises(CliError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CliError):
        load_config(bad)
    bad.write_text('{"reps": ' + "1" * 5000 + "}")  # past the interpreter's int digit limit
    with pytest.raises(CliError):
        load_config(bad)
    unknown = write_config(tmp_path, study="bootstrap")
    with pytest.raises(CliError) as info:
        load_config(unknown, out=str(tmp_path))
    assert info.value.context == {"field": "study"}
    no_dgp = tmp_path / "no_dgp.json"
    no_dgp.write_text(json.dumps({"study": "simulate", "n_grid": [5], "master_seed": 1}))
    with pytest.raises(CliError):
        load_config(no_dgp, out=str(tmp_path))


def test_coverage_study_takes_reps_up_to_a_billion(tmp_path):
    # the interval's domain ends at 10^9 (10^9 + 1 is a precondition error); only the config is loaded
    cfg = write_config(tmp_path, n_grid=[1000], reps=10**9)
    config, _ = load_config(cfg, study="coverage-study", out=str(tmp_path / "x"))
    assert config.reps == 10**9


def test_emit_plot_data_contract(tmp_path):
    n_grid = np.array([100, 1000, 10_000, 100_000])
    mean_loss = 2.0 * n_grid.astype(float) ** -0.4
    path = tmp_path / "plot.csv"
    emit_plot_data(n_grid, mean_loss, rate_fit(n_grid, mean_loss, 1.0, 1.0), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 + 2
    # exact power law: fit endpoints coincide with the data rows
    data = {float(c[1]): float(c[2]) for c in (l.split(",") for l in lines[1:5])}
    for line in lines[5:]:
        _, xs, ys = line.split(",")
        assert data[float(xs)] == pytest.approx(float(ys), abs=1e-9)

