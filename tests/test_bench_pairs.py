"""scripts/bench_pairs on synthetic runs: wins, ties, failures, spreads, bounds, load averages and the SIMD header."""

import importlib.util
import json
import statistics
import subprocess
from pathlib import Path

import pytest

from ivadapt import cli

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
SPEC = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

END_TO_END = [
    {"name": "wall_s", "unit": "s", "better": "lower"},
    {"name": "reps_per_s", "unit": "1/s", "better": "higher"},
]


def run(pair, side, wall, rate, exit=0, correct=True):
    metrics = {"wall_s": {"value": wall}, "reps_per_s": {"value": rate}}
    return {"pair": pair, "side": side, "exit": exit, "result": {"correct": correct, "metrics": metrics}}


def test_wins_are_counted_over_all_pairs_in_the_metrics_direction():
    runs = []
    for pair, (base, change) in enumerate([(5.0, 4.0), (5.0, 4.5), (4.0, 5.0)]):
        runs += [run(pair, "base", base, 1 / base), run(pair, "change", change, 1 / change)]
    out = bench_pairs.summarize(runs, END_TO_END)
    assert out["wall_s"]["wins"] == out["reps_per_s"]["wins"] == 2
    assert out["wall_s"]["pairs"] == 3
    assert out["wall_s"]["failed"] == {"base": 0, "change": 0}


def test_a_tie_counts_for_neither_side():
    runs = [run(0, "base", 3.0, 2.0), run(0, "change", 3.0, 2.0)]
    out = bench_pairs.summarize(runs, END_TO_END)
    assert out["wall_s"]["wins"] == out["reps_per_s"]["wins"] == 0
    assert out["wall_s"]["median_gap"] == 0.0


@pytest.mark.parametrize("side", ["base", "change"])
@pytest.mark.parametrize("broken", [{"exit": 1}, {"correct": False}])
def test_a_failed_or_incorrect_run_is_never_a_win(side, broken):
    # the change would win both pairs, but one side of pair 1 failed
    runs = [run(0, "base", 5.0, 1.0), run(0, "change", 4.0, 2.0)]
    runs += [run(1, s, 5.0 if s == "base" else 4.0, 1.0 if s == "base" else 2.0, **(broken if s == side else {}))
             for s in ("base", "change")]
    out = bench_pairs.summarize(runs, END_TO_END)
    assert out["wall_s"]["wins"] == out["reps_per_s"]["wins"] == 1
    assert out["wall_s"]["pairs"] == 2
    assert out["wall_s"]["failed"] == {"base": int(side == "base"), "change": int(side == "change")}


def test_medians_and_quartiles_come_from_correct_runs_only():
    walls = [1.0, 2.0, 3.0, 4.0, 5.0]
    runs = [run(i, "base", w, 1 / w) for i, w in enumerate(walls)]
    runs += [run(i, "change", 2 * w, 1 / (2 * w)) for i, w in enumerate(walls)]
    # a wild value on a failed run must not move the spread
    runs += [run(5, "base", 1000.0, 0.001, exit=1), run(5, "change", 1000.0, 0.001, correct=False)]
    out = bench_pairs.summarize(runs, END_TO_END)["wall_s"]
    assert out["base"]["runs"] == out["change"]["runs"] == 5
    assert out["base"]["median"] == 3.0 and out["change"]["median"] == 6.0
    assert (out["base"]["q1"], out["base"]["q3"]) == (1.5, 4.5)
    assert out["change"]["iqr"] == 6.0
    assert out["median_gap"] == 3.0
    assert out["failed"] == {"base": 1, "change": 1}


def _pairs(walls):
    runs = []
    for pair, (base, change) in enumerate(walls):
        runs += [run(pair, "base", base, 1 / base), run(pair, "change", change, 1 / change)]
    return runs


def test_claim_is_met_with_nine_tenths_of_wins_and_a_gap_beyond_the_base_iqr():
    # base 10..19, change 2 lower in 9 pairs and 1 higher in one
    walls = [(10.0 + i, 8.0 + i) for i in range(9)] + [(19.0, 20.0)]
    out = bench_pairs.summarize(_pairs(walls), END_TO_END)
    assert out["wall_s"]["wins"] == out["reps_per_s"]["wins"] == 9
    # the base's quartiles are 11.75 and 17.25: a 2.0 gap is inside the spread
    assert out["wall_s"]["base"]["iqr"] == 5.5 and out["wall_s"]["median_gap"] == -2.0
    assert not out["wall_s"]["claim_met"]
    tight = [(10.0 + 0.01 * i, 8.0 + 0.01 * i) for i in range(9)] + [(10.09, 10.5)]
    out = bench_pairs.summarize(_pairs(tight), END_TO_END)
    assert out["wall_s"]["claim_met"] and out["reps_per_s"]["claim_met"]


def test_claim_needs_nine_tenths_of_all_pairs_and_the_better_direction():
    eight = [(10.0 + 0.01 * i, 8.0) for i in range(8)] + [(10.0, 12.0), (10.0, 12.0)]
    assert not bench_pairs.summarize(_pairs(eight), END_TO_END)["wall_s"]["claim_met"]
    # a failed run leaves 9 wins of 10 pairs run: still a claim
    nine = [(10.0 + 0.01 * i, 8.0) for i in range(10)]
    runs = _pairs(nine)
    runs[-1]["exit"] = 1
    out = bench_pairs.summarize(runs, END_TO_END)["wall_s"]
    assert out["wins"] == 9 and out["pairs"] == 10 and out["claim_met"]
    worse = [(8.0, 10.0 + 0.01 * i) for i in range(10)]
    out = bench_pairs.summarize(_pairs(worse), END_TO_END)["wall_s"]
    assert out["wins"] == 0 and not out["claim_met"]


def test_paired_ratio_interval_is_reproducible_and_brackets_the_median():
    walls = [(10.0, 9.0), (11.0, 9.5), (12.0, 11.0), (10.5, 10.0), (9.0, 8.0), (13.0, 12.5)]
    runs = _pairs(walls)
    ratio = bench_pairs.summarize(runs, END_TO_END)["wall_s"]["ratio"]
    assert ratio == bench_pairs.summarize(runs, END_TO_END)["wall_s"]["ratio"]
    assert ratio["pairs"] == 6 and ratio["resamples"] == bench_pairs.BOOTSTRAP_RESAMPLES
    assert ratio["median"] == statistics.median([c / b for b, c in walls])
    assert min(c / b for b, c in walls) <= ratio["ci_low"] <= ratio["median"] <= ratio["ci_high"]
    assert ratio["ci_high"] <= max(c / b for b, c in walls)


def test_paired_ratio_skips_failed_pairs_and_is_exact_for_a_constant_ratio():
    runs = _pairs([(10.0, 5.0), (4.0, 2.0), (8.0, 4.0)])
    runs += [run(3, "base", 1.0, 1.0), run(3, "change", 100.0, 0.01, correct=False)]
    ratio = bench_pairs.summarize(runs, END_TO_END)["wall_s"]["ratio"]
    assert (ratio["median"], ratio["ci_low"], ratio["ci_high"], ratio["pairs"]) == (0.5, 0.5, 0.5, 3)
    failed = [run(0, "base", 1.0, 1.0, exit=1), run(0, "change", 1.0, 1.0)]
    assert bench_pairs.summarize(failed, END_TO_END)["wall_s"]["ratio"] is None


def test_each_run_records_the_load_average_before_and_after(monkeypatch, tmp_path, capsys):
    # no benchmark runs: subprocess.run answers for git and for ivbench/run.py
    result = {"correct": True, "metrics": {"wall_s": {"value": 2.0}, "reps_per_s": {"value": 0.5}}}

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="0123456789abcdef\n", stderr="")
        stdout = json.dumps({"run": {"numpy": "2.0"}}) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=stdout, stderr="")

    loads = iter([0.5, 1.25, 2.0, 3.5, 1.0, 0.75, 4.0, 4.5])
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_pairs.os, "getloadavg", lambda: (next(loads), 0.0, 0.0))
    for side in ("base", "change"):
        (tmp_path / side).mkdir()
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
            "--workload", "rate-ref", "--seeds", "3-4", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0

    saved = json.loads((tmp_path / "change" / "BENCH_0123456.json").read_text())
    runs = saved["workloads"]["rate-ref"]["runs"]
    assert [r["load_1m"] for r in runs] == [
        {"before": 0.5, "after": 1.25}, {"before": 2.0, "after": 3.5},
        {"before": 1.0, "after": 0.75}, {"before": 4.0, "after": 4.5},
    ]
    assert [(r["pair"], r["side"]) for r in runs] == [(0, "base"), (0, "change"), (1, "change"), (1, "base")]
    assert saved["machine"]["numpy_simd"] == bench_pairs.simd_dispatch()
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == "rate-ref pair 0 seed 3 base: exit 0 wall_s 2.0 load_1m 0.50 -> 1.25"
    assert lines[3].endswith("load_1m 4.00 -> 4.50")


def test_each_side_runs_with_its_own_fresh_bytecode_cache(monkeypatch, tmp_path):
    # bytecode left in a checkout's __pycache__ must not reach either side: each side gets
    # its own new PYTHONPYCACHEPREFIX for all its runs, and writes bytecode there
    result = {"correct": True, "metrics": {"wall_s": {"value": 2.0}, "reps_per_s": {"value": 0.5}}}
    envs = []

    def fake_run(cmd, **kwargs):
        if cmd[0] == "git":
            return subprocess.CompletedProcess(cmd, 0, stdout="0123456789abcdef\n", stderr="")
        envs.append((Path(kwargs["cwd"]).name, kwargs["env"]))
        assert Path(kwargs["env"]["PYTHONPYCACHEPREFIX"]).parent.is_dir()
        return subprocess.CompletedProcess(cmd, 0, stdout=json.dumps(result) + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    monkeypatch.setenv("PYTHONPYCACHEPREFIX", str(tmp_path / "stale"))
    for side in ("base", "change"):
        (tmp_path / side / "src" / "__pycache__").mkdir(parents=True)
    (tmp_path / "change" / "BENCHMARK.json").write_text(json.dumps({"end_to_end": END_TO_END}))
    argv = ["--base", str(tmp_path / "base"), "--change", str(tmp_path / "change"),
            "--workload", "rate-ref", "--workload", "coverage-par", "--seeds", "3-4", "--seconds", "1"]
    assert bench_pairs.main(argv) == 0

    assert len(envs) == 8 and all("PYTHONDONTWRITEBYTECODE" not in env for _, env in envs)
    prefixes = {side: {env["PYTHONPYCACHEPREFIX"] for s, env in envs if s == side} for side in ("base", "change")}
    assert all(len(p) == 1 for p in prefixes.values()) and prefixes["base"] != prefixes["change"]
    for prefix in prefixes["base"] | prefixes["change"]:
        assert not Path(prefix).exists()  # removed after the runs
        assert tmp_path not in Path(prefix).parents
    saved = json.loads((tmp_path / "change" / "BENCH_0123456.json").read_text())
    assert "PYTHONPYCACHEPREFIX" in saved["pycache"]


def test_the_header_records_numpys_dispatch_for_the_manifests_functions():
    simd = bench_pairs.simd_dispatch()
    assert set(simd) == set(cli._numpy_record()["dispatch"])
    assert all(set(entry) in ({"dd"}, {"ddd"}) for entry in simd.values())  # power takes two arguments
    assert all("current" in targets for entry in simd.values() for targets in entry.values())


BOUNDED = [{**spec, "bound": 0.25} for spec in END_TO_END]


def test_within_bound_allows_a_worse_median_up_to_the_bound_of_the_base_median():
    out = bench_pairs.summarize(_pairs([(10.0, 11.0)] * 3), END_TO_END)["wall_s"]
    assert "within_bound" not in out and "unresolved" not in out  # no bound, no verdict
    # base median 10: a change median of 12.5 is 25 % worse, 12.6 is past the bound
    for change, within in ((9.0, True), (12.5, True), (12.6, False)):
        out = bench_pairs.summarize(_pairs([(10.0, change)] * 3), BOUNDED)
        assert out["wall_s"]["within_bound"] is within
        assert out["reps_per_s"]["within_bound"] is (1 / change >= 0.75 * 0.1)
    failed = [run(0, "base", 10.0, 0.1), run(0, "change", 10.0, 0.1, exit=1)]
    assert bench_pairs.summarize(failed, BOUNDED)["wall_s"]["within_bound"] is False


def test_unresolved_needs_a_base_spread_past_the_bound_and_overlapping_runs():
    # the base's quartiles are 7.5 and 12.5: an IQR of 5 on a median of 10, past the 2.5 the bound allows
    wide = [8.0, 12.0, 7.0, 13.0, 10.0]
    out = bench_pairs.summarize(_pairs([(b, 9.0 + i) for i, b in enumerate(wide)]), BOUNDED)["wall_s"]
    assert out["base"]["iqr"] == 5.0 and out["unresolved"]
    # every change run beats every base run: resolved, however wide the base
    out = bench_pairs.summarize(_pairs([(b, 6.0) for b in wide]), BOUNDED)["wall_s"]
    assert not out["unresolved"]
    # a base spread inside the bound: resolved, even with overlapping runs
    tight = [10.0, 10.2, 9.8, 10.1, 9.9]
    out = bench_pairs.summarize(_pairs([(b, 10.0) for b in tight]), BOUNDED)["wall_s"]
    assert not out["unresolved"]
