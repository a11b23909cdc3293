import hashlib
import json

import numpy as np
import pytest

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ivadapt import RiskCurve, cli, rate_fit
from ivadapt.cli import STUDIES, CliError, emit_plot_data, load_config, main

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


def test_oracle_study_outputs(tmp_path):
    cfg = write_config(tmp_path, n_grid=[512, 1024], reps=1)
    out = tmp_path / "run"
    assert main(["oracle-study", "--config", str(cfg), "--out", str(out)]) == 0
    lines = (out / "oracle_summary.csv").read_text().strip().splitlines()
    assert lines[0].startswith("n,oracle_m,restricted_oracle_m,resolution")
    assert len(lines) == 3
    results = json.loads((out / "results.json").read_text())
    assert len(results["results"]) == 2


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
        ({"dgp": {"phi": {"coeffs": "abc"}}}, "dgp.phi"),
        ({"dgp": {"phi": {"family": "sobolev", "s": "abc"}}}, "dgp.phi"),
        ({"dgp": {"phi": {"coeffs": [1.0]}, "g": {"coeffs": [1.0]}, "t": [1]}}, "dgp"),
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


NON_FINITE_FLOATS = [
    ("estimate", with_dgp(t="nan"), "dgp"),
    ("estimate", with_dgp(t="inf"), "dgp"),
    ("estimate", with_dgp(t="-inf"), "dgp"),
    ("estimate", with_dgp(eta_sd="nan"), "dgp"),
    ("estimate", with_dgp(a="inf"), "dgp"),
    ("estimate", with_dgp(a="-inf"), "dgp"),
    ("coverage-study", with_dgp(t="nan"), "dgp"),
    ("coverage-study", with_dgp(t="inf"), "dgp"),
    ("coverage-study", with_dgp(eta_sd="nan"), "dgp"),
    ("coverage-study", with_dgp(a="inf"), "dgp"),
    ("estimate", with_estimator(penalty_log_exponent="nan"), "estimator"),
    ("estimate", with_estimator(penalty_log_exponent="inf"), "estimator"),
]

# the flat-penalty constant is no longer a knob: any value is an unknown key
RETIRED_KEYS = [
    ("estimate", with_estimator(u0_constant=2.0), "estimator"),
    ("estimate", with_estimator(u0_constant="nan"), "estimator"),
]

# a flag must be a JSON boolean, and a float field takes no boolean
MISTYPED = [
    ("estimate", with_estimator(allow_empty_model="false"), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_estimator(allow_empty_model=0), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_estimator(allow_empty_model=1), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_estimator(allow_empty_model=None), "estimator.allow_empty_model", "boolean"),
    ("estimate", with_dgp(t=True), "dgp", "number"),
    ("estimate", with_dgp(a=True), "dgp", "number"),
    ("estimate", with_dgp(eta_sd=False), "dgp", "number"),
    ("estimate", with_estimator(penalty_log_exponent=True), "estimator", "number"),
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


def with_phi(**fields):
    return with_dgp(phi={**BASE_CONFIG["dgp"]["phi"], **fields})


SUPERSMOOTH = {"family": "supersmooth", "gamma": 0.5, "t_exp": 1.0, "k_support": 20}

# function-family fields are read as the same integers and numbers as
# every other config field
MISTYPED_FAMILY = [
    ("estimate", with_phi(k_support=True), "dgp.phi", "integer"),
    ("estimate", with_phi(k_support=7.9), "dgp.phi", "integer"),
    ("estimate", with_phi(amplitude=True), "dgp.phi", "number"),
    ("estimate", with_phi(s=True), "dgp.phi", "number"),
    ("estimate", with_phi(s=0.25, q=True), "dgp.phi", "number"),
    ("estimate", with_dgp(g={**SUPERSMOOTH, "gamma": True}), "dgp.g", "number"),
    ("estimate", with_dgp(g={**SUPERSMOOTH, "t_exp": True}), "dgp.g", "number"),
]

# raw coefficients must be a JSON list of numbers: no booleans, no strings
MISTYPED_COEFFS = [
    ("estimate", with_dgp(g={"coeffs": True}), "dgp.g", "list of numbers"),
    ("estimate", with_dgp(g={"coeffs": [True, False]}), "dgp.g", "list of numbers"),
    ("estimate", with_dgp(g={"coeffs": "3"}), "dgp.g", "list of numbers"),
    ("estimate", with_dgp(g={"coeffs": 3}), "dgp.g", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [1.0, "0.5"]}), "dgp.phi", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [1.0, None]}), "dgp.phi", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [[1.0]]}), "dgp.phi", "list of numbers"),
    ("estimate", with_dgp(phi={"coeffs": [10**400]}), "dgp.phi", "float"),
    ("estimate", with_phi(s=10**400), "dgp.phi", "range"),
    ("estimate", with_dgp(t=10**400), "dgp", "range"),
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
    + MISTYPED_COEFFS
    + N_TOO_LARGE,
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


def test_family_fields_are_read_as_floats(tmp_path):
    # a numeric string is read as its float, as dgp.t is
    cfg = write_config(tmp_path, **with_phi(s=1, q="3", amplitude=2))
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


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    study=st.sampled_from(STUDIES),
    n_grid=N_GRIDS,
    reps=JSON_COUNTS,
    master_seed=JSON_COUNTS,
    jobs=JSON_COUNTS,
    k_max=JSON_COUNTS,
)
def test_load_config_gives_a_config_or_a_cli_error(tmp_path, study, n_grid, reps, master_seed, jobs, k_max):
    # k_support is left out: a large value allocates its coefficients at load
    cfg = write_config(
        tmp_path, n_grid=n_grid, reps=reps, master_seed=master_seed, jobs=jobs, **with_estimator(k_max=k_max)
    )
    try:
        config, _ = load_config(cfg, study=study, out=str(tmp_path / "out"))
    except CliError:
        return
    assert max(config.n_grid) * 8 <= np.iinfo(np.intp).max


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
    no_dgp = tmp_path / "no_dgp.json"
    no_dgp.write_text(json.dumps({"study": "simulate", "n_grid": [5], "master_seed": 1}))
    with pytest.raises(CliError):
        load_config(no_dgp, out=str(tmp_path))


def test_emit_plot_data_contract(tmp_path):
    n_grid = np.array([100, 1000, 10_000, 100_000])
    curve = RiskCurve(
        n_grid=n_grid,
        mean_loss=2.0 * n_grid.astype(float) ** -0.4,
        stderr=np.zeros(4),
        oracle_risk=np.ones(4),
        reps=3,
    )
    path = tmp_path / "plot.csv"
    emit_plot_data(curve, rate_fit(curve, 1.0, 1.0), path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 1 + 4 + 2
    # exact power law: fit endpoints coincide with the data rows
    data = {float(c[1]): float(c[2]) for c in (l.split(",") for l in lines[1:5])}
    for line in lines[5:]:
        _, xs, ys = line.split(",")
        assert data[float(xs)] == pytest.approx(float(ys), abs=1e-9)

