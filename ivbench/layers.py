"""Layer tracing for one ivadapt study: which public calls are timed, and
the per-layer metrics computed from the spans.

Runs inside the study process.  The traced study is the CLI entry point
``cli.main`` itself, so every layer is exercised exactly as in the
untraced run.  After it
a stage pass re-runs the estimator stage by stage on the samples the
study estimated, through the public calls ``estimate_resolution``,
``estimate_sigma_sq``, ``penalized_criterion`` and ``select_level``:
``adaptive_estimate`` is the only public entry point that covers the
response moments, so this is the only way to time them from outside.
Inside the stage pass ``basis_matrix`` is counted, not timed, so the
scan, moment and selection times there include their basis work.
"""

from __future__ import annotations

import statistics
from pathlib import Path

from tracing import Tracer, patched, root_time, self_times, tail_percentile

#: Per-layer metrics, in the order they are reported, with their units.
METRICS = {
    "basis.basis_matrix.calls": "count",
    "basis.basis_matrix.self_s": "s",
    "basis.basis_matrix.cells": "count",
    "basis.basis_matrix.bytes_computed": "B",
    "basis.synthesize.self_s": "s",
    "basis.synthesize.points": "count",
    "dgp.generate_sample.self_s": "s",
    "dgp.generate_sample.draws": "count",
    "dgp.sigma_sq_profile.self_s": "s",
    "dgp.sigma_sq_profile.draws": "count",
    "estimator.adaptive_estimate.self_s": "s",
    "estimator.adaptive_estimate.calls": "count",
    "estimator.adaptive_estimate.p50_ms": "ms",
    "estimator.adaptive_estimate.tail_ms": "ms",
    "estimator.adaptive_estimate.tail_pct": "pct",
    "estimator.estimate_resolution.self_s": "s",
    "estimator.estimate_r_coeffs.self_s": "s",
    "estimator.scan.self_s": "s",
    "estimator.scan.indices": "count",
    "estimator.scan.useful_ratio": "ratio",
    "estimator.scan.cap_reached": "count",
    "estimator.moments.self_s": "s",
    "estimator.moments.cells": "count",
    "estimator.select.self_s": "s",
    "estimator.resolution.sum": "count",
    "estimator.m_selected.sum": "count",
    "risk.study.self_s": "s",
    "risk.oracle_levels.self_s": "s",
    "risk.risk_evals": "count",
    "risk.replications": "count",
    "risk.naive_refit": "count",
    "risk.replication.p50_ms": "ms",
    "risk.replication.tail_ms": "ms",
    "risk.replication.tail_pct": "pct",
    "risk.pool.tasks": "count",
    "risk.pool.cpu_per_wall": "ratio",
    "risk.pool.scaling_eff": "ratio",
    "cli.write.self_s": "s",
    "cli.write.bytes": "B",
    "seeds.streams": "count",
    "seeds.self_s": "s",
    "trace.study_s": "s",
    "trace.unattributed_s": "s",
    "trace.stages_s": "s",
    "trace.overhead_frac": "ratio",
}

#: Span names whose self time is reported as <name>.self_s.
TIMED_LAYERS = (
    "basis.basis_matrix",
    "basis.synthesize",
    "dgp.generate_sample",
    "dgp.sigma_sq_profile",
    "estimator.adaptive_estimate",
    "estimator.estimate_resolution",
    "estimator.estimate_r_coeffs",
    "estimator.scan",
    "estimator.moments",
    "estimator.select",
    "risk.study",
    "risk.oracle_levels",
    "cli.write",
    "seeds",
)

#: Counters summed over the studies of a unit.
COUNTERS = (
    "basis.basis_matrix.calls",
    "basis.basis_matrix.cells",
    "basis.synthesize.points",
    "dgp.generate_sample.draws",
    "dgp.sigma_sq_profile.draws",
    "estimator.scan.indices",
    "estimator.scan.useful",
    "estimator.scan.cap_reached",
    "estimator.moments.cells",
    "estimator.resolution.sum",
    "estimator.m_selected.sum",
    "risk.risk_evals",
    "risk.replications",
    "risk.naive_refit",
    "cli.write.bytes",
    "seeds.streams",
)

class StudyTrace:
    """Tracer plus the samples, results and replication intervals of one study."""

    def __init__(self):
        self.tracer = Tracer()
        self.estimated = []  # (sample, config, report) from adaptive_estimate
        self.scanned = []  # (sample, config, resolution) from estimate_resolution
        self.replications = []  # durations in seconds
        self._rep = None  # [start, last end] of the open replication

    # --- replication intervals: from a replication's sample draw to the
    # end of its last estimator call.
    def _begin_replication(self, args, kwargs):
        self._close_replication()
        now = self.tracer.clock()
        self._rep = [now, None]

    def _touch_replication(self):
        if self._rep is not None:
            self._rep[1] = self.tracer.clock()

    def _close_replication(self):
        if self._rep is not None and self._rep[1] is not None:
            self.replications.append(self._rep[1] - self._rep[0])
        self._rep = None

    def bindings(self, ivadapt):
        """(owner, attribute, make_wrapper) for every traced public call site."""
        t = self.tracer
        counts = t.counts
        cli, basis, dgp, estimator, risk, seeds = (
            ivadapt.cli, ivadapt.basis, ivadapt.dgp, ivadapt.estimator, ivadapt.risk, ivadapt.seeds,
        )

        def basis_matrix(fn):
            def wrapper(*args, **kwargs):
                if t.inside("stages"):
                    out = fn(*args, **kwargs)
                    counts["stage.basis_cells"] += out.size
                    return out
                with t.span("basis.basis_matrix"):
                    out = fn(*args, **kwargs)
                counts["basis.basis_matrix.calls"] += 1
                counts["basis.basis_matrix.cells"] += out.size
                return out

            return wrapper

        def synthesize(fn):
            def count(args, kwargs, result):
                counts["basis.synthesize.points"] += getattr(result, "size", 1)

            return t.wrap(fn, "basis.synthesize", after=count)

        def generate_sample(begins_replication):
            def make(fn):
                def count(args, kwargs, result):
                    key = "dgp.sigma_sq_profile.draws" if t.inside("dgp.sigma_sq_profile") else "dgp.generate_sample.draws"
                    counts[key] += result.n
                    if begins_replication:
                        counts["risk.replications"] += 1

                before = self._begin_replication if begins_replication else None
                return t.wrap(fn, "dgp.generate_sample", before=before, after=count)

            return make

        def adaptive_estimate(in_replication):
            def make(fn):
                def keep(args, kwargs, report):
                    config = args[1] if len(args) > 1 else kwargs.get("config")
                    self.estimated.append((args[0], config, report))
                    if in_replication:
                        self._touch_replication()

                return t.wrap(fn, "estimator.adaptive_estimate", after=keep)

            return make

        def estimate_resolution(fn):
            def keep(args, kwargs, resolution):
                config = args[1] if len(args) > 1 else kwargs.get("config")
                self.scanned.append((args[0], config, resolution))
                self._touch_replication()

            return t.wrap(fn, "estimator.estimate_resolution", after=keep)

        def estimate_r_coeffs(fn):
            def count(args, kwargs, result):
                counts["risk.naive_refit"] += 1
                self._touch_replication()

            return t.wrap(fn, "estimator.estimate_r_coeffs", after=count)

        def risk_eval(fn):
            def wrapper(*args, **kwargs):
                counts["risk.risk_evals"] += 1
                return fn(*args, **kwargs)

            return wrapper

        def writer(path_index):
            def make(fn):
                def count(args, kwargs, result):
                    counts["cli.write.bytes"] += Path(args[path_index]).stat().st_size

                return t.wrap(fn, "cli.write", after=count)

            return make

        def sequence(fn):
            def count(args, kwargs, result):
                counts["seeds.streams"] += 1

            return t.wrap(fn, "seeds", after=count)

        def span(name):
            return lambda fn: t.wrap(fn, name)

        bindings = [(m, "basis_matrix", basis_matrix) for m in (basis, dgp, estimator)]
        bindings += [
            (dgp, "synthesize", synthesize),
            (dgp, "generate_sample", generate_sample(False)),
            (cli, "generate_sample", generate_sample(False)),
            (risk, "generate_sample", generate_sample(True)),
            (risk, "sigma_sq_profile", span("dgp.sigma_sq_profile")),
            (cli, "adaptive_estimate", adaptive_estimate(False)),
            (risk, "adaptive_estimate", adaptive_estimate(True)),
            (risk, "estimate_resolution", estimate_resolution),
            (risk, "estimate_r_coeffs", estimate_r_coeffs),
            (risk, "risk_naive", risk_eval),
            (risk, "risk_penalized", risk_eval),
            (cli, "write_csv", writer(0)),
            (cli, "write_json", writer(0)),
            (dgp.IvSample, "to_csv", writer(1)),
            (estimator.EstimateReport, "write_phi_csv", writer(1)),
            (seeds, "sequence", sequence),
            (seeds, "rng_from", span("seeds")),
        ]
        bindings += [(cli, name, span("risk.study")) for name in ("oracle_ratio_study", "coverage_study", "oracle_summary")]
        bindings += [
            (risk, name, span("risk.oracle_levels"))
            for name in ("oracle_level", "min_penalized_risk", "restricted_oracle_level", "truncation_remainder")
        ]
        return bindings

    def run(self, ivadapt, argv) -> tuple[int, list]:
        """Run ``cli.main(argv)`` traced, then the stage pass.

        Returns the CLI's exit code and the stage-pass mismatches; the
        stage pass is skipped when the study failed.
        """
        with patched(self.bindings(ivadapt)):
            with self.tracer.span("study"):
                code = ivadapt.cli.main(argv)
            self._close_replication()
            if code != 0:
                return code, []
            with self.tracer.span("stages"):
                return code, self._stage_pass(ivadapt)

    def _stage_pass(self, ivadapt) -> list:
        est = ivadapt.estimator
        t = self.tracer
        counts = t.counts
        problems = []
        work = [(s, c, r.resolution, r) for s, c, r in self.estimated]
        work += [(s, c, resolution, None) for s, c, resolution in self.scanned]
        for sample, config, study_resolution, report in work:
            config = config or est.EstimatorConfig()
            before = counts["stage.basis_cells"]
            with t.span("estimator.scan"):
                resolution = est.estimate_resolution(sample, config)
            counts["estimator.scan.indices"] += (counts["stage.basis_cells"] - before) // (2 * sample.n)
            counts["estimator.scan.useful"] += resolution + 1
            counts["estimator.scan.cap_reached"] += int(resolution == config.resolution_cap(sample.n))
            counts["estimator.resolution.sum"] += resolution
            if resolution != study_resolution:
                problems.append(f"stage scan resolution {resolution} != study {study_resolution}")
            if report is None:
                continue
            with t.span("estimator.moments"):
                sigma_sq = est.estimate_sigma_sq(sample, resolution)
            counts["estimator.moments.cells"] += sample.n * resolution
            with t.span("estimator.select"):
                criterion = [
                    est.penalized_criterion(report.r_hat, report.lambda_hat, sigma_sq, m, sample.n, config)
                    for m in range(resolution + 1)
                ]
                m_selected = est.select_level(criterion, allow_empty=config.allow_empty_model)
            counts["estimator.m_selected.sum"] += m_selected
            if m_selected != report.m_selected:
                problems.append(f"stage selection {m_selected} != study {report.m_selected}")
            if sigma_sq.tolist() != report.sigma_sq_hat.tolist():
                problems.append("stage sigma_sq_hat differs from the study's")
        return problems

    def replication_ints(self) -> dict:
        """Per-replication integer outcomes, in call order, for the output check."""
        return {
            "resolution": [int(r.resolution) for _, _, r in self.estimated] + [int(r) for _, _, r in self.scanned],
            "m_selected": [int(r.m_selected) for _, _, r in self.estimated],
        }

    def totals(self) -> dict:
        """Additive results of this study: self times, counters and root durations."""
        spans = self.tracer.spans
        selfs = self_times(spans)
        out = {f"{name}.self_s": selfs.get(name, 0.0) for name in TIMED_LAYERS}
        out.update({key: self.tracer.counts[key] for key in COUNTERS})
        out["trace.study_s"] = root_time([s for s in spans if s.name == "study"])
        out["trace.stages_s"] = root_time([s for s in spans if s.name == "stages"])
        out["trace.unattributed_s"] = selfs.get("study", 0.0) + selfs.get("stages", 0.0)
        return out

    def latencies(self) -> dict:
        """Per-call latency samples in seconds, keyed by metric prefix."""
        return {
            "estimator.adaptive_estimate": [
                s.end - s.start for s in self.tracer.spans if s.name == "estimator.adaptive_estimate"
            ],
            "risk.replication": list(self.replications),
        }


def layer_metrics(totals: dict, latencies: dict) -> dict:
    """Per-layer metrics from summed study totals and pooled latency samples.

    The pool metrics and trace.overhead_frac need the untraced runs and
    are left for the caller.
    """
    out = {name: totals[name] for name in METRICS if name in totals}
    out["basis.basis_matrix.bytes_computed"] = 8 * totals["basis.basis_matrix.cells"]
    indices = totals["estimator.scan.indices"]
    out["estimator.scan.useful_ratio"] = totals["estimator.scan.useful"] / indices if indices else 0.0
    out["estimator.adaptive_estimate.calls"] = len(latencies["estimator.adaptive_estimate"])
    for prefix, samples in latencies.items():
        pct, tail = tail_percentile(samples) if samples else (50, 0.0)
        out[f"{prefix}.p50_ms"] = 1e3 * statistics.median(samples) if samples else 0.0
        out[f"{prefix}.tail_ms"] = 1e3 * tail
        out[f"{prefix}.tail_pct"] = pct
    return out


def unaccounted_s(totals: dict) -> float:
    """Traced time not covered by the reported self times (zero up to rounding)."""
    covered = sum(totals[f"{name}.self_s"] for name in TIMED_LAYERS) + totals["trace.unattributed_s"]
    return totals["trace.study_s"] + totals["trace.stages_s"] - covered
