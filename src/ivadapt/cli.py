"""Command-line orchestration of simulations and Monte Carlo studies.

Each subcommand reads a single JSON config document, runs the study,
and writes CSV/JSON outputs plus a manifest.json with per-file SHA-256
checksums.  Data files contain no timestamps, so a rerun with the same
config and seed is byte-identical regardless of the parallelism degree
(timestamps live only in the manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__, seeds
from .basis import CoefficientVector, FunctionFamilySpec, make_test_function
from .dgp import DgpSpec, generate_sample
from .estimator import EstimatorConfig, adaptive_estimate, deterministic_resolution_bounds
from .risk import CoverageResult, RateFit, RiskCurve, coverage_study, oracle_ratio_study, oracle_summary, rate_fit
from .serialize import to_plain, write_csv, write_json

__all__ = ["STUDIES", "CliError", "ExperimentConfig", "emit_plot_data", "load_config", "main", "run"]

STUDIES = (
    "simulate",
    "estimate",
    "risk-curve",
    "rate-study",
    "coverage-study",
    "oracle-study",
)


class CliError(Exception):
    """Configuration or dispatch failure with a machine-readable payload."""

    def __init__(self, message: str, **context):
        super().__init__(message)
        self.context = context


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Parsed experiment description driving one CLI run."""

    study: str
    dgp: DgpSpec
    estimator: EstimatorConfig
    n_grid: tuple
    reps: int
    master_seed: int
    output_dir: str
    jobs: int = 1
    phi_family: FunctionFamilySpec | None = None

    def __post_init__(self):
        if self.study not in STUDIES:
            raise CliError(f"unknown study {self.study!r}", field="study")
        if len(self.n_grid) == 0:
            raise CliError("n_grid must be nonempty", field="n_grid")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise CliError("n_grid must be strictly increasing", field="n_grid")
        min_n = 1 if self.study == "simulate" else 3
        if self.n_grid[0] < min_n:
            raise CliError(f"{self.study} needs every n >= {min_n}", field="n_grid")
        max_n = np.iinfo(np.intp).max // 8  # the longest float64 array numpy can describe
        if self.n_grid[-1] > max_n:
            raise CliError(f"every n must be at most {max_n}", field="n_grid")
        if self.study == "rate-study":
            if len(self.n_grid) < 4 or self.n_grid[-1] / self.n_grid[0] < 10.0:
                raise CliError("rate-study needs at least 4 n_grid points spanning a decade", field="n_grid")
            if self.phi_family is None or self.phi_family.kind != "sobolev":
                raise CliError(
                    "rate-study needs dgp.phi given as a sobolev family so the smoothness s is known",
                    field="dgp.phi",
                )
        if self.study in ("coverage-study", "oracle-study"):
            for n in self.n_grid:
                try:
                    deterministic_resolution_bounds(self.dgp.t, n)
                except ValueError as exc:
                    raise CliError(f"no resolution bracket at n = {n}: {exc}", field="dgp.t") from exc
        min_reps = 2 if self.study in ("risk-curve", "rate-study") else 1
        if self.reps < min_reps:
            raise CliError(f"{self.study} needs reps >= {min_reps}", field="reps")
        if self.jobs < 1:
            raise CliError("jobs must be at least 1", field="jobs")

    def to_json_dict(self, run_params: bool = True) -> dict:
        """Config echo; run_params=False drops the fields (output_dir,
        jobs) that may vary between byte-identical runs."""
        payload = {
            "study": self.study,
            "dgp": self.dgp.to_json_dict(),
            "estimator": to_plain(self.estimator),
            "n_grid": list(self.n_grid),
            "reps": self.reps,
            "master_seed": self.master_seed,
        }
        if run_params:
            payload["output_dir"] = self.output_dir
            payload["jobs"] = self.jobs
        if self.phi_family is not None:
            payload["phi_family"] = to_plain(self.phi_family)
        return payload


def _reject_unknown_keys(node, allowed, label):
    if not isinstance(node, dict):
        raise CliError(f"{label} must be an object", field=label)
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise CliError(f"unknown {label} keys: {', '.join(unknown)}", field=label)


def _integer(value, field, name=None):
    """An int from a JSON number; booleans, strings and fractions are rejected."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise CliError(f"{name or field} must be an integer, got {value!r}", field=field)
    return value


def _real(value, name):
    """A float from a JSON number or numeric string; booleans are rejected."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:
        raise ValueError(f"{name} is out of range: {value!r}") from exc


def _coefficient_node(node, label):
    _reject_unknown_keys(
        node, ("coeffs", "family", "s", "q", "gamma", "t_exp", "amplitude", "k_support"), label
    )
    if "coeffs" not in node and "family" not in node:
        raise CliError(f"{label} must provide 'coeffs' or 'family'", field=label)
    try:
        if "coeffs" in node:
            coeffs = node["coeffs"]
            if not isinstance(coeffs, list) or not all(type(c) in (int, float) for c in coeffs):
                raise TypeError(f"{label}.coeffs must be a list of numbers, got {coeffs!r}")
            return CoefficientVector(np.asarray(coeffs, dtype=np.float64)), None
        given = {
            name: _real(node[name], name)
            for name in ("s", "q", "gamma", "t_exp")
            if node.get(name) is not None
        }
        family = FunctionFamilySpec(
            kind=str(node["family"]),
            k_support=_integer(node.get("k_support", 50), label, "k_support"),
            amplitude=_real(node.get("amplitude", 1.0), "amplitude"),
            **given,
        )
        return make_test_function(family), family
    except (TypeError, ValueError, OverflowError) as exc:
        raise CliError(str(exc), field=label) from exc


def load_config(path, study=None, seed=None, out=None, jobs=None):
    """Parse a JSON config file, applying CLI overrides.

    Returns (config, adjustments) where adjustments lists every
    normalization applied, for inclusion in the manifest.
    """
    adjustments = []
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise CliError(f"config file not found: {path}", field="config") from exc
    except json.JSONDecodeError as exc:
        raise CliError(f"config file is not valid JSON: {exc}", field="config") from exc
    if not isinstance(raw, dict):
        raise CliError("config must be a JSON object", field="config")

    cfg_study = raw.get("study")
    if study is not None:
        if cfg_study is not None and cfg_study != study:
            adjustments.append(f"study overridden by subcommand: {cfg_study!r} -> {study!r}")
        cfg_study = study
    if cfg_study is None:
        raise CliError("config must name a study (or use a subcommand)", field="study")

    _reject_unknown_keys(
        raw,
        ("study", "dgp", "estimator", "n_grid", "reps", "master_seed", "output_dir", "jobs"),
        "config",
    )
    dgp_node = raw.get("dgp")
    if not isinstance(dgp_node, dict):
        raise CliError("config must provide a 'dgp' object", field="dgp")
    _reject_unknown_keys(dgp_node, ("t", "a", "eta_sd", "phi", "g"), "dgp")
    phi, phi_family = _coefficient_node(dgp_node.get("phi", {}), "dgp.phi")
    g, _ = _coefficient_node(dgp_node.get("g", {}), "dgp.g")
    try:
        dgp = DgpSpec(
            t=_real(dgp_node.get("t", 1.0), "t"),
            phi=phi,
            g=g,
            a=_real(dgp_node.get("a", 0.0), "a"),
            eta_sd=_real(dgp_node.get("eta_sd", 0.5), "eta_sd"),
        )
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc), field="dgp") from exc

    est_node = raw.get("estimator", {})
    _reject_unknown_keys(
        est_node,
        ("k_max", "penalty_log_exponent", "allow_empty_model"),
        "estimator",
    )
    allow_empty = est_node.get("allow_empty_model", True)
    if not isinstance(allow_empty, bool):
        raise CliError(
            f"estimator.allow_empty_model must be a JSON boolean, got {allow_empty!r}",
            field="estimator.allow_empty_model",
        )
    try:
        estimator = EstimatorConfig(
            k_max=_integer(est_node.get("k_max", 10**6), "estimator.k_max"),
            penalty_log_exponent=_real(est_node.get("penalty_log_exponent", 2.0), "penalty_log_exponent"),
            allow_empty_model=allow_empty,
        )
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc), field="estimator") from exc

    output_dir = out if out is not None else raw.get("output_dir")
    if output_dir is None:
        raise CliError("an output directory is required (config output_dir or --out)", field="output_dir")

    job_count = jobs if jobs is not None else raw.get("jobs")
    if job_count is None:
        job_count = os.cpu_count() or 1
        adjustments.append(f"jobs defaulted to available cores: {job_count}")
    job_count = _integer(job_count, "jobs")

    master_seed = seed if seed is not None else raw.get("master_seed")
    if master_seed is None:
        raise CliError("a master seed is required (config master_seed or --seed)", field="master_seed")
    master_seed = _integer(master_seed, "master_seed")
    if seed is not None and raw.get("master_seed") not in (None, seed):
        adjustments.append(f"master_seed overridden: {raw.get('master_seed')} -> {seed}")

    n_grid = raw.get("n_grid", [])
    if not isinstance(n_grid, list):
        raise CliError("n_grid must be a list of integers", field="n_grid")
    try:
        config = ExperimentConfig(
            study=cfg_study,
            dgp=dgp,
            estimator=estimator,
            n_grid=tuple(_integer(v, "n_grid") for v in n_grid),
            reps=_integer(raw.get("reps", 1), "reps"),
            master_seed=master_seed,
            output_dir=str(output_dir),
            jobs=job_count,
            phi_family=phi_family,
        )
    except (TypeError, ValueError) as exc:
        raise CliError(f"invalid config value: {exc}", field="config") from exc
    return config, adjustments


def emit_plot_data(curve: RiskCurve, fit: RateFit, path) -> None:
    """Two-block CSV for plotting: log-log risk points plus the ends of the raw-n fit line."""
    x = np.log(curve.n_grid.astype(np.float64)).tolist()
    ends = [x[0], x[-1]]
    write_csv(
        path,
        {
            "block": ["data"] * len(x) + ["fit"] * 2,
            "log_n": x + ends,
            "log_loss": np.log(curve.mean_loss).tolist() + [fit.raw_slope * xe + fit.raw_intercept for xe in ends],
        },
    )


def _columns(records, names) -> dict:
    """One CSV column per attribute name, in record order."""
    return {name: [getattr(r, name) for r in records] for name in names}


def _run_simulate(config: ExperimentConfig, out: Path):
    n = int(config.n_grid[0])
    sample = generate_sample(
        config.dgp, n, seed=seeds.sequence(config.master_seed, "simulate", n, 0)
    )
    sample.to_csv(out / "sample.csv")
    return ["sample.csv"], {"study": "simulate", "n": n, "rows": n}


def _run_estimate(config: ExperimentConfig, out: Path):
    n = int(config.n_grid[0])
    sample = generate_sample(
        config.dgp, n, seed=seeds.sequence(config.master_seed, "estimate", n, 0)
    )
    report = adaptive_estimate(sample, config.estimator)
    write_json(out / "estimate_report.json", report.to_json_dict())
    report.write_phi_csv(out / "phi_hat.csv")
    return ["estimate_report.json", "phi_hat.csv"], {
        "study": "estimate",
        "n": n,
        "m_selected": report.m_selected,
        "resolution": report.resolution,
        "empty_model": report.empty_model,
    }


def _run_risk_curve(config: ExperimentConfig, out: Path):
    """risk-curve, and rate-study: the same curve plus its slope fit."""
    result = oracle_ratio_study(
        config.dgp,
        config.estimator,
        config.n_grid,
        config.reps,
        config.master_seed,
        jobs=config.jobs,
    )
    curve = result.curve
    write_csv(
        out / "risk_curve.csv",
        {
            "n": curve.n_grid,
            "mean_loss": curve.mean_loss,
            "stderr": curve.stderr,
            "oracle_risk": curve.oracle_risk,
            "ratio": result.ratio,
        },
    )
    payload = {
        "study": config.study,
        "n_grid": to_plain(curve.n_grid),
        "mean_loss": to_plain(curve.mean_loss),
        "stderr": to_plain(curve.stderr),
        "oracle_risk": to_plain(curve.oracle_risk),
        "ratio": to_plain(result.ratio),
        "naive_mean_loss": to_plain(result.naive_mean_loss),
        "naive_stderr": to_plain(result.naive_stderr),
        "oracle_levels": to_plain(result.oracle_levels),
        "reps": curve.reps,
        "master_seed": config.master_seed,
    }
    if config.study == "risk-curve":
        return ["risk_curve.csv"], payload
    fit = rate_fit(curve, s=float(config.phi_family.s), t=float(config.dgp.t))
    write_json(out / "rate_fit.json", to_plain(fit))
    emit_plot_data(curve, fit, out / "plot_data.csv")
    return ["risk_curve.csv", "rate_fit.json", "plot_data.csv"], {**payload, "rate_fit": to_plain(fit)}


def _run_coverage_study(config: ExperimentConfig, out: Path):
    results = [
        coverage_study(
            config.dgp, config.estimator, int(n), config.reps, config.master_seed, jobs=config.jobs
        )
        for n in config.n_grid
    ]
    fields = [f.name for f in dataclasses.fields(CoverageResult)]
    write_csv(out / "coverage.csv", _columns(results, fields))
    return ["coverage.csv"], {"study": "coverage-study", "results": to_plain(results)}


def _run_oracle_study(config: ExperimentConfig, out: Path):
    summaries = [
        oracle_summary(config.dgp, config.estimator, int(n), config.master_seed)
        for n in config.n_grid
    ]
    columns = _columns(
        summaries,
        ("n", "oracle_m", "restricted_oracle_m", "resolution", "lower_bound", "upper_bound", "remainder"),
    )
    columns["min_risk"] = [np.min(s.risk_values) for s in summaries]
    columns["min_penalized_risk"] = [np.min(s.penalized_risk_values) for s in summaries]
    write_csv(out / "oracle_summary.csv", columns)
    return ["oracle_summary.csv"], {"study": "oracle-study", "results": to_plain(summaries)}


_DISPATCH = {
    "simulate": _run_simulate,
    "estimate": _run_estimate,
    "risk-curve": _run_risk_curve,
    "rate-study": _run_risk_curve,
    "coverage-study": _run_coverage_study,
    "oracle-study": _run_oracle_study,
}


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(config: ExperimentConfig, adjustments=()) -> dict:
    """Execute the configured study; returns the manifest payload."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    files, results = _DISPATCH[config.study](config, out)
    results_payload = {"config": config.to_json_dict(run_params=False), **results}
    write_json(out / "results.json", results_payload)
    files = list(files) + ["results.json"]
    finished = datetime.datetime.now(datetime.timezone.utc).isoformat()
    manifest = {
        "tool": "ivadapt",
        "version": __version__,
        "study": config.study,
        "master_seed": config.master_seed,
        "config": config.to_json_dict(),
        "started_at": started,
        "finished_at": finished,
        "adjustments": list(adjustments),
        "outputs": {
            name: {"sha256": _sha256(out / name), "bytes": (out / name).stat().st_size}
            for name in sorted(files)
        },
    }
    write_json(out / "manifest.json", manifest)
    return manifest


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ivadapt",
        description="Adaptive spectral cut-off estimation: simulation and Monte Carlo studies.",
    )
    sub = parser.add_subparsers(dest="study", required=True)
    for name in STUDIES:
        sp = sub.add_parser(name, help=f"run the {name} study")
        sp.add_argument("--config", required=True, help="path to the JSON config document")
        sp.add_argument("--seed", type=int, default=None, help="override the master seed")
        sp.add_argument("--out", default=None, help="override the output directory")
        sp.add_argument("--jobs", type=int, default=None, help="parallel replication workers")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        config, adjustments = load_config(
            args.config, study=args.study, seed=args.seed, out=args.out, jobs=args.jobs
        )
        run(config, adjustments)
    except CliError as exc:
        record = {"error": str(exc), **exc.context}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 2
    except (OSError, MemoryError) as exc:
        record = {"error": str(exc) or type(exc).__name__, "path": getattr(exc, "filename", None)}
        sys.stderr.write(json.dumps(record, sort_keys=True) + "\n")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
