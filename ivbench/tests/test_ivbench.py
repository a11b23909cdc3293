"""Tests of the benchmark's own logic.

    python3 -m pytest ivbench/tests
"""

import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

from layers import COUNTERS, TIMED_LAYERS, layer_metrics, unaccounted_s  # noqa: E402
from tracing import Span, Tracer, patched, self_times, tail_percentile  # noqa: E402
from workloads import WORKLOADS, compare, expected_outputs, study_config, unexercised  # noqa: E402


class FakeClock:
    """Clock that advances by scripted steps, one per reading."""

    def __init__(self, steps):
        self.now = 0.0
        self.steps = iter(steps)

    def __call__(self):
        self.now += next(self.steps)
        return self.now


def test_self_time_of_nested_spans():
    # root [1, 11]; a [2, 5] with child c [3, 4]; b [6, 9]
    tracer = Tracer(clock=FakeClock([1, 1, 1, 1, 1, 1, 3, 2]))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("c"):
                pass
        with tracer.span("b"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert (by_name["root"].start, by_name["root"].end) == (1, 11)
    assert by_name["c"].parent == by_name["a"].span_id
    assert self_times(tracer.spans) == {"root": 4.0, "a": 2.0, "c": 1.0, "b": 3.0}
    assert sum(self_times(tracer.spans).values()) == 10.0


def test_self_time_merges_overlap_and_clips_children():
    spans = [
        Span(0, "p", 0.0, 10.0, None),
        Span(1, "x", 1.0, 4.0, 0),
        Span(2, "x", 3.0, 6.0, 0),  # overlaps the first child
        Span(3, "y", 8.0, 12.0, 0),  # runs past its parent
    ]
    selfs = self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs["x"] == pytest.approx(6.0)


def test_repeated_names_accumulate():
    spans = [Span(0, "r", 0.0, 5.0, None), Span(1, "k", 0.0, 1.0, 0), Span(2, "k", 2.0, 4.0, 0)]
    assert self_times(spans) == {"r": 2.0, "k": 3.0}


@pytest.mark.parametrize(
    "n, pct",
    [(1, 50), (19, 50), (20, 50), (21, 52), (28, 64), (100, 90), (101, 90), (200, 95), (1000, 99), (5000, 99)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    values = list(range(n, 0, -1))  # unsorted input
    got_pct, value = tail_percentile(values)
    assert got_pct == pct
    beyond = sum(v > value for v in values)
    if pct > 50:
        assert beyond >= 10
        # one percentile higher would leave fewer than ten beyond
        if pct < 99:
            assert n - math.ceil((pct + 1) / 100 * n) < 10
    else:
        assert value == statistics.median(values)


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_patched_restores_originals():
    class Owner:
        def f(self):
            return 1

    with patched([(Owner, "f", lambda fn: lambda self: fn(self) + 1)]):
        assert Owner().f() == 2
    assert Owner().f() == 1


def test_patched_refuses_a_missing_name():
    class Owner:
        def f(self):
            return 1

    with pytest.raises(AttributeError, match="Owner.absent"):
        with patched([(Owner, "f", lambda fn: lambda self: 2), (Owner, "absent", lambda fn: fn)]):
            pass
    assert Owner().f() == 1


def test_a_layer_the_tracer_stops_seeing_fails_the_unit():
    for workload in WORKLOADS.values():
        assert set(workload.exercised) <= set(COUNTERS)
        totals = dict.fromkeys(COUNTERS, 1)
        assert unexercised(workload, totals) == []
        totals["estimator.scan.indices"] = 0
        assert unexercised(workload, totals) == [f"estimator.scan.indices is 0, but {workload.name} must exercise it"]
    totals = dict.fromkeys(COUNTERS, 1)
    totals["risk.risk_evals"] = 0
    assert unexercised(WORKLOADS["rate-ref"], totals) != []
    assert unexercised(WORKLOADS["single-large"], totals) == []


def _reference_outputs(workload, study, seed=0):
    reference = json.loads((BENCH / "reference.json").read_text())
    assert str(seed) in reference["workloads"][workload]["seeds"]
    return json.loads(json.dumps(expected_outputs(reference, workload, study, seed)))


@pytest.mark.parametrize(
    "workload, study, key",
    [
        ("rate-ref", "rate-study", "oracle_levels"),
        ("rate-ref", "rate-study", "mean_loss"),
        ("coverage-par", "coverage-study", "hits"),
        ("coverage-par", "coverage-study", "upper_bound"),
        ("single-large", "estimate", "resolution"),
        ("single-large", "estimate", "lambda_hat"),
        ("single-large", "simulate", "sample.sum_y"),
    ],
)
def test_output_check_rejects_a_perturbed_value(workload, study, key):
    expected = _reference_outputs(workload, study)
    assert compare(expected, expected) == []
    actual = json.loads(json.dumps(expected))
    value = actual[key]
    if isinstance(value, list):
        value[-1] = value[-1] + 1 if isinstance(value[-1], int) else value[-1] * (1 + 1e-6) + 1e-6
    else:
        actual[key] = value + 1 if isinstance(value, int) else value * (1 + 1e-6) + 1e-6
    problems = compare(actual, expected)
    assert len(problems) == 1 and problems[0].startswith(key)


def test_output_check_accepts_last_digit_float_noise():
    expected = _reference_outputs("single-large", "estimate")
    actual = json.loads(json.dumps(expected))
    actual["criterion"] = [v * (1 + 4e-16) for v in actual["criterion"]]
    assert compare(actual, expected) == []


def test_output_check_reports_missing_and_resized_outputs():
    expected = {"a": [1, 2], "b": 3}
    assert compare({"a": [1, 2, 3]}, expected) == ["a: length 3 != 2", "b: missing"]


def test_seed_reaches_the_program_only_as_master_seed():
    for workload in WORKLOADS.values():
        for study in workload.studies:
            one = study_config(workload, study, 1, "out")
            two = study_config(workload, study, 2, "out")
            assert one == study_config(workload, study, 1, "out")
            assert (one["master_seed"], two["master_seed"]) == (1, 2)
            assert {k for k in one if one[k] != two[k]} == {"master_seed"}


def test_changing_the_seed_changes_the_generated_sample(tmp_path):
    pytest.importorskip("numpy")
    sys.path.insert(0, str(BENCH.parent / "src"))
    import ivadapt.cli as cli
    from ivadapt import seeds
    from ivadapt.dgp import generate_sample

    workload = WORKLOADS["single-large"]
    draws = []
    for seed in (1, 2, 1):
        config = study_config(workload, "simulate", seed, "out")
        path = tmp_path / f"config_{seed}.json"
        path.write_text(json.dumps(config))
        parsed, _ = cli.load_config(path, study="simulate", jobs=1)
        sample = generate_sample(parsed.dgp, 64, seed=seeds.sequence(parsed.master_seed, "simulate", 64, 0))
        draws.append(sample.y.tolist())
    assert draws[0] != draws[1]
    assert draws[0] == draws[2]


def test_layer_self_times_account_for_traced_time():
    totals = {f"{name}.self_s": 0.25 for name in TIMED_LAYERS}
    totals.update({
        "trace.study_s": 0.25 * len(TIMED_LAYERS),
        "trace.stages_s": 1.0,
        "trace.unattributed_s": 1.0,
        "basis.basis_matrix.cells": 10,
        "estimator.scan.indices": 8,
        "estimator.scan.useful": 6,
    })
    assert unaccounted_s(totals) == pytest.approx(0.0)
    metrics = layer_metrics(totals, {"estimator.adaptive_estimate": [0.001] * 3, "risk.replication": []})
    assert metrics["basis.basis_matrix.bytes_computed"] == 80
    assert metrics["estimator.scan.useful_ratio"] == 0.75
    assert metrics["estimator.adaptive_estimate.p50_ms"] == pytest.approx(1.0)
    assert metrics["risk.replication.p50_ms"] == 0.0


def test_run_refuses_a_directory_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "rate-ref", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
