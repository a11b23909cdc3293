"""scripts/bench_pairs.summarize on synthetic runs: wins, ties, failures and spreads."""

import importlib.util
from pathlib import Path

import pytest

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
