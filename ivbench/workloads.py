"""Workload definitions, generated study configs and the output check.

A workload is a unit of CLI studies run back to back on one generated
config.  The benchmark seed reaches the program only as the config's
``master_seed``.  Outputs are read back from the files the CLI writes
and compared with values recorded from the seed commit of this
benchmark (``reference.json``): integers exactly, floats within
``FLOAT_RTOL`` of the largest magnitude in their array.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path

#: Relative tolerance for float outputs, scaled by the largest magnitude
#: in the compared array (a scalar is its own array).
FLOAT_RTOL = 1e-9

#: The data-generating process of the README example config.
README_DGP = {
    "t": 1.0,
    "a": 0.5,
    "eta_sd": 0.5,
    "phi": {"family": "sobolev", "s": 1.0, "q": 2.0, "amplitude": 1.0, "k_support": 50},
    "g": {"coeffs": [1.0, 0.5]},
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    studies run in order on the same config and form one unit; pooled
    workloads run with --jobs equal to the core count, the others with
    --jobs 1.  samples is the number of samples estimated per unit.
    exercised names the layer counters a traced unit must move: one
    that reads 0 means the tracer no longer sees the layer, and the
    unit fails rather than reporting a gain.
    """

    name: str
    studies: tuple
    n_grid: tuple
    reps: int
    pooled: bool
    exercised: tuple

    @property
    def samples(self) -> int:
        if "estimate" in self.studies:
            return 1
        return self.reps * len(self.n_grid)


#: Counters every workload moves: sampling, the scan, seeds and writes.
COMMON_COUNTERS = (
    "basis.basis_matrix.calls",
    "basis.synthesize.points",
    "dgp.generate_sample.draws",
    "estimator.scan.indices",
    "estimator.resolution.sum",
    "seeds.streams",
    "cli.write.bytes",
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rate-ref", ("rate-study",), tuple(2**e for e in range(9, 16)), 40, False,
            COMMON_COUNTERS + ("dgp.sigma_sq_profile.draws", "estimator.moments.cells", "risk.risk_evals",
                               "risk.replications"),
        ),
        Workload(
            "coverage-par", ("coverage-study",), (1000, 10000), 100, True,
            COMMON_COUNTERS + ("risk.replications",),
        ),
        Workload(
            "single-large", ("simulate", "estimate"), (2**18,), 1, False,
            COMMON_COUNTERS + ("estimator.moments.cells",),
        ),
    )
}

def unexercised(workload: Workload, totals: dict) -> list:
    """Problems for the counters the workload must move but that read 0 in totals."""
    return [f"{name} is 0, but {workload.name} must exercise it" for name in workload.exercised if not totals[name]]


#: Outputs that do not depend on the master seed; they are checked on
#: every seed, including seeds the reference table does not hold.
SEED_FREE = {
    "rate-study": ("n_grid", "reps", "oracle_levels", "oracle_risk", "rate_fit.expected_slope", "rate_fit.gamma"),
    "coverage-study": ("n", "reps", "lower_bound", "upper_bound"),
    "simulate": ("n", "rows"),
    "estimate": ("n",),
}


def study_config(workload: Workload, study: str, seed: int, output_dir) -> dict:
    """Config document for one study of the workload; seed becomes master_seed."""
    return {
        "study": study,
        "dgp": README_DGP,
        "estimator": {"penalty_log_exponent": 2.0},
        "n_grid": list(workload.n_grid),
        "reps": workload.reps,
        "master_seed": int(seed),
        "output_dir": str(output_dir),
    }


def _sample_summary(path: Path) -> dict:
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or lines[0] != "y,x,w":
        raise ValueError("sample.csv must start with the header y,x,w")
    cols = list(zip(*(tuple(float(v) for v in line.split(",")) for line in lines[1:])))
    y, x, w = cols
    return {
        "sample.rows": len(y),
        "sample.sum_y": math.fsum(y),
        "sample.sum_y2": math.fsum(v * v for v in y),
        "sample.sum_x": math.fsum(x),
        "sample.sum_w": math.fsum(w),
        "sample.head": [v for row in zip(y[:3], x[:3], w[:3]) for v in row],
        "sample.tail": [v for row in zip(y[-3:], x[-3:], w[-3:]) for v in row],
    }


def read_outputs(study: str, out: Path) -> dict:
    """The checked values of one study, read back from its output directory."""
    results = json.loads((out / "results.json").read_text(encoding="utf-8"))
    if study == "rate-study":
        keys = ("n_grid", "reps", "oracle_levels", "mean_loss", "stderr", "oracle_risk", "ratio",
                "naive_mean_loss", "naive_stderr")
        values = {k: results[k] for k in keys}
        values.update({f"rate_fit.{k}": v for k, v in results["rate_fit"].items()})
        return values
    if study == "coverage-study":
        values: dict = {}
        for row in results["results"]:
            for key, value in row.items():
                values.setdefault(key, []).append(value)
        return values
    if study == "simulate":
        return {"n": results["n"], "rows": results["rows"], **_sample_summary(out / "sample.csv")}
    if study == "estimate":
        report = json.loads((out / "estimate_report.json").read_text(encoding="utf-8"))
        values = {k: report[k] for k in ("n", "resolution", "m_selected", "r_hat", "lambda_hat",
                                          "sigma_sq_hat", "criterion")}
        values["cap_reached"] = int(report["cap_reached"])
        values["empty_model"] = int(report["empty_model"])
        values["phi_hat"] = report["phi_hat"]["coeffs"]
        phi_rows = (out / "phi_hat.csv").read_text(encoding="utf-8").splitlines()[1:]
        values["phi_hat.csv"] = [float(line.split(",")[1]) for line in phi_rows]
        return values
    raise ValueError(f"no output reader for study {study!r}")


def data_digests(out: Path) -> dict:
    """SHA-256 of every data file listed in the manifest, verified against the files."""
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    digests = {}
    for name, entry in manifest["outputs"].items():
        digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
        if digest != entry["sha256"]:
            raise ValueError(f"{name}: manifest checksum does not match the file")
        digests[name] = digest
    return digests


def _floats_close(actual, expected, rtol: float) -> bool:
    scale = max((abs(v) for v in expected), default=0.0)
    return all(abs(a - e) <= rtol * scale for a, e in zip(actual, expected))


def compare(actual: dict, expected: dict, rtol: float = FLOAT_RTOL) -> list:
    """Mismatch messages between outputs and their reference (empty when all match).

    Integer references (and booleans stored as 0/1) must match exactly;
    float references within rtol of the largest magnitude in their array.
    """
    problems = []
    for key, ref in expected.items():
        if key not in actual:
            problems.append(f"{key}: missing")
            continue
        got = actual[key]
        ref_list = ref if isinstance(ref, list) else [ref]
        got_list = got if isinstance(got, list) else [got]
        if len(ref_list) != len(got_list):
            problems.append(f"{key}: length {len(got_list)} != {len(ref_list)}")
        elif any(isinstance(v, float) for v in ref_list):
            if not _floats_close(got_list, ref_list, rtol):
                problems.append(f"{key}: floats differ beyond rtol {rtol:g}")
        elif got_list != ref_list:
            i = next(i for i, (g, r) in enumerate(zip(got_list, ref_list)) if g != r)
            problems.append(f"{key}[{i}]: {got_list[i]} != {ref_list[i]}")
    return problems


def expected_outputs(reference: dict, workload: str, study: str, seed: int) -> dict:
    """Expected values of one study; outside the seed table, only the seed-free ones."""
    table = reference["workloads"][workload]
    entry = table["seeds"].get(str(seed))
    return table["seed_free"][study] if entry is None else entry[study]


def expected_replications(reference: dict, workload: str, seed: int):
    """Per-replication integers recorded for the seed, or None outside the table."""
    entry = reference["workloads"][workload]["seeds"].get(str(seed))
    return None if entry is None else entry["replications"]
