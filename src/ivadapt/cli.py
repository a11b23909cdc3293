"""Command-line orchestration of simulations and Monte Carlo studies.

Each subcommand reads a single JSON config document, runs the study,
and writes CSV/JSON outputs plus a manifest.json with per-file SHA-256
checksums and numpy's version and dispatch targets.  Data files contain
no timestamps, so a rerun with the same config and seed is
byte-identical regardless of the parallelism degree (timestamps live
only in the manifest), for one numpy version and dispatch target.  At
load, the library checks every config value and the study's inputs
(_INPUT_CHECKS), and an error names the value's dotted field (_build),
whichever layer checks it.

Importing this module sets OPENBLAS_NUM_THREADS to 1 unless it is
already set, before numpy loads: the library makes no BLAS call, its
parallelism is --jobs worker processes, and numpy's OpenBLAS would
otherwise start one busy-waiting thread per core.  Importing ivadapt as
a library leaves BLAS alone.
"""

from __future__ import annotations

import os

# before numpy loads: ivadapt makes no BLAS call, and idle OpenBLAS worker threads busy-wait
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import dataclasses
import datetime
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from . import __version__, risk, seeds
from .basis import CoefficientVector, FunctionFamilySpec, _count, _InputError, make_test_function
from .dgp import DgpSpec, generate_sample
from .estimator import EstimatorConfig, adaptive_estimate
from .risk import CoverageResult, RateFit, coverage_study, oracle_ratio_study, oracle_summary, rate_fit
from .serialize import to_plain, write_csv, write_json

__all__ = ["STUDIES", "CliError", "ExperimentConfig", "emit_plot_data", "load_config", "main", "run"]

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
        try:
            named = b"\0" not in os.fsencode(self.output_dir)
        except UnicodeEncodeError:  # a lone surrogate that the file system encoding cannot take
            named = False
        if not named:
            raise CliError("output_dir holds a NUL or a lone surrogate, which no file path takes", field="output_dir")
        if self.study == "rate-study" and getattr(self.phi_family, "kind", None) != "sobolev":
            raise CliError("rate-study needs dgp.phi as a sobolev family, for its smoothness s", field="dgp.phi")
        if self.study in ("simulate", "estimate", "oracle-study"):  # these ignore reps, but it is still a count
            _build(_count, "", "reps", self.reps, 1)
        if self.study in ("simulate", "estimate"):  # the other studies' checks take master_seed
            _build(_count, "", "master_seed", self.master_seed, -math.inf)
        _build(_INPUT_CHECKS[self.study], "", self)

    def to_json_dict(self, run_params: bool = True) -> dict:
        """Config echo; run_params=False drops the fields (output_dir,
        jobs) that may vary between byte-identical runs."""
        payload = to_plain(self)
        if not run_params:
            del payload["output_dir"], payload["jobs"]
        if self.phi_family is None:
            del payload["phi_family"]
        return payload


_INPUT_CHECKS = {
    "simulate": lambda c: risk._checked_grid(c.n_grid, min_n=1),
    "estimate": lambda c: risk._check_penalty(c.estimator, risk._checked_grid(c.n_grid)),
    "risk-curve": lambda c: risk._ratio_inputs(c.dgp, c.estimator, c.n_grid, c.reps, c.master_seed, c.jobs),
    "rate-study": lambda c: risk._fit_grid(_INPUT_CHECKS["risk-curve"](c)),
    "coverage-study": lambda c: risk._coverage_inputs(c.dgp, c.n_grid, c.reps, c.master_seed, c.jobs),
    "oracle-study": lambda c: risk._summary_inputs(c.dgp, c.n_grid, c.master_seed),
}
_FIELDS = {"spec": "dgp", "config": "estimator"}  # a study check's arguments, as config fields

# A field's kind is int, float (a finite number), bool or str, a one-kind
# tuple for a JSON list of that kind, or a nested table for a nested object.
_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "a JSON boolean",
    str: "a string",
    (int,): "a list of integers",
    (float,): "a list of numbers",
}
_FUNCTION = {
    "coeffs": (float,),
    "family": str,
    **dict.fromkeys(("s", "q", "gamma", "t_exp", "amplitude"), float),
    "k_support": int,
}
_SCHEMA = {
    "study": str,
    "dgp": {"t": float, "a": float, "eta_sd": float, "phi": _FUNCTION, "g": _FUNCTION},
    "estimator": {"k_max": int, "penalty_log_exponent": float, "allow_empty_model": bool},
    "n_grid": (int,),
    "reps": int,
    "master_seed": int,
    "output_dir": str,
    "jobs": int,
}


def _value(kind, value):
    """A JSON value read as kind; TypeError if it is of another JSON kind.

    An integral float such as 1e4 is taken as an int.  ValueError for a
    number no float field takes: NaN, an infinity, or beyond float range.
    """
    if isinstance(kind, tuple):
        if type(value) is not list:
            raise TypeError
        return [_value(kind[0], v) for v in value]
    if kind is int and type(value) is float and value.is_integer():
        return int(value)
    if kind is float and type(value) in (int, float):
        if not abs(value) <= sys.float_info.max:
            raise ValueError("must be finite and within float range")
        return float(value)
    if type(value) is not kind:
        raise TypeError
    return value


def _read(node, schema, label):
    """The keys a JSON object gives, read by their kinds; a type error names the dotted field."""
    if not isinstance(node, dict):
        raise CliError(f"{label} must be an object", field=label)
    unknown = sorted(set(node) - set(schema))
    if unknown:
        raise CliError(f"unknown {label} keys: {', '.join(unknown)}", field=label)
    fields = {}
    for key, value in node.items():
        field = key if label == "config" else f"{label}.{key}"
        kind = schema[key]
        try:
            fields[key] = _read(value, kind, field) if isinstance(kind, dict) else _value(kind, value)
        except TypeError:
            raise CliError(f"{field} must be {_KIND_NAMES[kind]}, got {value!r}", field=field) from None
        except ValueError as exc:
            raise CliError(f"{field} {exc}, got {value!r}", field=field) from None
    return fields


def _build(make, owner: str, *args, **kwargs):
    """make(*args, **kwargs); an argument's error names its dotted config field, owner.argument.

    A study check is built with owner "": its spec and config arguments are the fields dgp and estimator.
    """
    try:
        return make(*args, **kwargs)
    except _InputError as exc:
        head, dot, rest = (f"{owner}.{exc.argument}" if owner else exc.argument).partition(".")
        raise CliError(str(exc), field=_FIELDS.get(head, head) + dot + rest) from exc


def _function(fields, label):
    """(coefficients, family or None) of dgp.phi or dgp.g."""
    if set(fields) == {"coeffs"}:
        return CoefficientVector(fields["coeffs"]), None
    if "family" not in fields or "coeffs" in fields:
        raise CliError(f"{label} takes exactly one of coeffs and family (with its parameters)", field=label)
    params = {"k_support": 50, **fields}
    family = FunctionFamilySpec(kind=params.pop("family"), **params)
    return _build(make_test_function, label, spec=family), family


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
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, an over-long integer, or deep nesting
        raise CliError(f"config file is not valid JSON: {exc}", field="config") from exc
    fields = _read(raw, _SCHEMA, "config")
    if study is not None and fields.get("study", study) != study:
        adjustments.append(f"study overridden by subcommand: {fields['study']!r} -> {study!r}")
    if seed is not None and fields.get("master_seed", seed) != seed:
        adjustments.append(f"master_seed overridden: {fields['master_seed']} -> {seed}")
    overrides = {"study": study, "master_seed": seed, "output_dir": out, "jobs": jobs}
    fields.update((key, value) for key, value in overrides.items() if value is not None)
    if "jobs" not in fields:
        fields["jobs"] = risk._usable_cores()
        adjustments.append(f"jobs defaulted to available cores: {fields['jobs']}")
    for key, message in (
        ("study", "config must name a study (or use a subcommand)"),
        ("dgp", "config must provide a 'dgp' object"),
        ("output_dir", "an output directory is required (config output_dir or --out)"),
        ("master_seed", "a master seed is required (config master_seed or --seed)"),
    ):
        if key not in fields:
            raise CliError(message, field=key)

    dgp_fields = fields["dgp"]
    phi, phi_family = _function(dgp_fields.pop("phi", {}), "dgp.phi")
    g, _ = _function(dgp_fields.pop("g", {}), "dgp.g")
    config = ExperimentConfig(
        study=fields["study"],
        # DgpSpec holds no defaults; EstimatorConfig holds its own
        dgp=_build(DgpSpec, "dgp", phi=phi, g=g, **{"t": 1.0, "a": 0.0, "eta_sd": 0.5, **dgp_fields}),
        estimator=_build(EstimatorConfig, "estimator", **fields.get("estimator", {})),
        n_grid=tuple(fields.get("n_grid", ())),
        reps=fields.get("reps", 1),
        master_seed=fields["master_seed"],
        output_dir=str(fields["output_dir"]),
        jobs=fields["jobs"],
        phi_family=phi_family,
    )
    return config, adjustments


def emit_plot_data(n_grid, mean_loss, fit: RateFit, path) -> None:
    """Two-block CSV for plotting: log-log risk points plus the ends of the raw-n fit line."""
    x = np.log(np.asarray(n_grid, dtype=np.float64)).tolist()
    ends = [x[0], x[-1]]
    write_csv(
        path,
        {
            "block": ["data"] * len(x) + ["fit"] * 2,
            "log_n": x + ends,
            "log_loss": np.log(mean_loss).tolist() + [fit.raw_slope * xe + fit.raw_intercept for xe in ends],
        },
    )


def _columns(records, names) -> dict:
    """One CSV column per attribute name, in record order."""
    return {name: [getattr(r, name) for r in records] for name in names}


def _run_sample(config: ExperimentConfig, out: Path):
    """simulate, and estimate: one sample of n = n_grid[0] from the stream (master_seed, study, n, 0)."""
    n = int(config.n_grid[0])
    sample = generate_sample(config.dgp, n, seed=seeds.sequence(config.master_seed, config.study, n, 0))
    if config.study == "simulate":
        sample.to_csv(out / "sample.csv")
        return ["sample.csv"], {"study": "simulate", "n": n, "rows": n}
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
    write_csv(
        out / "risk_curve.csv",
        {
            "n": result.n_grid,
            "mean_loss": result.mean_loss,
            "stderr": result.stderr,
            "oracle_risk": result.oracle_risk,
            "ratio": result.ratio,
        },
    )
    payload = {"study": config.study, **to_plain(result), "master_seed": config.master_seed}
    if config.study == "risk-curve":
        return ["risk_curve.csv"], payload
    fit = rate_fit(result.n_grid, result.mean_loss, s=float(config.phi_family.s), t=float(config.dgp.t))
    write_json(out / "rate_fit.json", to_plain(fit))
    emit_plot_data(result.n_grid, result.mean_loss, fit, out / "plot_data.csv")
    return ["risk_curve.csv", "rate_fit.json", "plot_data.csv"], {**payload, "rate_fit": to_plain(fit)}


def _run_coverage_study(config: ExperimentConfig, out: Path):
    results = coverage_study(
        config.dgp, config.estimator, config.n_grid, config.reps, config.master_seed, jobs=config.jobs
    )
    fields = [f.name for f in dataclasses.fields(CoverageResult)]
    write_csv(out / "coverage.csv", _columns(results, fields))
    return ["coverage.csv"], {"study": "coverage-study", "results": to_plain(results)}


def _run_oracle_study(config: ExperimentConfig, out: Path):
    summaries = oracle_summary(config.dgp, config.estimator, config.n_grid, config.master_seed)
    columns = _columns(
        summaries,
        ("n", "oracle_m", "restricted_oracle_m", "resolution", "lower_bound", "upper_bound", "remainder"),
    )
    columns["min_risk"] = [np.min(s.risk_values) for s in summaries]
    columns["min_penalized_risk"] = [np.min(s.penalized_risk_values) for s in summaries]
    write_csv(out / "oracle_summary.csv", columns)
    return ["oracle_summary.csv"], {"study": "oracle-study", "results": to_plain(summaries)}


_DISPATCH = {
    "simulate": _run_sample,
    "estimate": _run_sample,
    "risk-curve": _run_risk_curve,
    "rate-study": _run_risk_curve,
    "coverage-study": _run_coverage_study,
    "oracle-study": _run_oracle_study,
}
STUDIES = tuple(_DISPATCH)


def _sha256(path: Path) -> str:
    with path.open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def _numpy_record() -> dict:
    """numpy's version and its float64 dispatch targets for tan, arctan, exp, log and power.

    The data files' floats can move in their last bits with these, so a
    rerun is byte-identical for one version and one set of targets.
    """
    dispatch = opt_func_info(func_name="^(tan|arctan|exp|log|power)$", signature="float64")
    return {"version": np.__version__, "dispatch": dispatch}


def run(config: ExperimentConfig, adjustments=()) -> dict:
    """Execute the configured study; returns the manifest payload."""
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    started = datetime.datetime.now(datetime.UTC).isoformat()
    try:
        files, results = _DISPATCH[config.study](config, out)
    except FloatingPointError as exc:  # from generate_sample, or from the estimator's moment sums
        raise CliError(
            f"the sampled response or its moments overflow ({exc}): a dgp magnitude is too large", field="dgp"
        ) from exc
    results_payload = {"config": config.to_json_dict(run_params=False), **results}
    write_json(out / "results.json", results_payload)
    files = list(files) + ["results.json"]
    finished = datetime.datetime.now(datetime.UTC).isoformat()
    manifest = {
        "tool": "ivadapt",
        "version": __version__,
        "study": config.study,
        "master_seed": config.master_seed,
        "config": config.to_json_dict(),
        "started_at": started,
        "finished_at": finished,
        "adjustments": list(adjustments),
        "numpy": _numpy_record(),
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
