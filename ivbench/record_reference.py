"""Record the reference outputs that the benchmark's output check compares against.

    PYTHONPATH=src python3 ivbench/record_reference.py

Run once, from the root of a checkout of the commit whose outputs are
the reference, and commit the resulting ivbench/reference.json.  Later
commits are checked against it, so do not re-record it to make a
changed program pass.  Each workload's studies run in-process through
the CLI entry point ``ivadapt.cli.main`` for master seeds
0..SEEDS-1, with the study's public calls wrapped only to capture the
per-replication resolutions and selected levels.
"""

import json
import multiprocessing
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import FLOAT_RTOL, SEED_FREE, WORKLOADS, read_outputs, study_config  # noqa: E402

#: Master seeds 0..SEEDS-1 are recorded; other seeds get only the seed-free check.
SEEDS = 64
WORKERS = 2


def record_seed(task):
    """Outputs and per-replication integers of one workload at one seed."""
    name, seed = task
    import ivadapt.cli
    from layers import StudyTrace
    from tracing import patched

    workload = WORKLOADS[name]
    entry = {"replications": {}}
    for study in workload.studies:
        with tempfile.TemporaryDirectory(dir=HERE / ".work") as tmp:
            config_path = Path(tmp) / "config.json"
            config_path.write_text(json.dumps(study_config(workload, study, seed, Path(tmp) / "out")))
            trace = StudyTrace()
            with patched(trace.bindings(ivadapt)):
                code = ivadapt.cli.main([study, "--config", str(config_path), "--jobs", "1"])
            if code != 0:
                raise RuntimeError(f"{name} {study} seed {seed}: exit code {code}")
            entry[study] = read_outputs(study, Path(tmp) / "out")
            entry["replications"][study] = trace.replication_ints()
    print(f"{name}: seed {seed} recorded", flush=True)
    return name, seed, entry


def seed_free_outputs(name: str, table: dict) -> dict:
    """The outputs that must not depend on the seed, checked to be equal on every seed."""
    studies = WORKLOADS[name].studies
    seed_free = {study: {k: table["0"][study][k] for k in SEED_FREE[study]} for study in studies}
    for seed, entry in table.items():
        for study, values in seed_free.items():
            for key, value in values.items():
                if entry[study][key] != value:
                    raise RuntimeError(f"{name} {study}.{key} depends on the seed ({seed})")
    return seed_free


def main() -> int:
    (HERE / ".work").mkdir(exist_ok=True)
    tasks = [(name, seed) for name in WORKLOADS for seed in range(SEEDS)]
    with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
        entries = pool.map(record_seed, tasks, chunksize=1)
    tables = {name: {} for name in WORKLOADS}
    for name, seed, entry in entries:
        tables[name][str(seed)] = entry
    reference = {
        "float_rtol": FLOAT_RTOL,
        "workloads": {name: {"seed_free": seed_free_outputs(name, t), "seeds": t} for name, t in tables.items()},
    }
    (HERE / "reference.json").write_text(json.dumps(reference, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
