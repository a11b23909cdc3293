"""ivadapt benchmark: CLI studies in fresh processes, end to end or traced.

    python3 ivbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
./src.  Each study runs as ``child.py`` in a fresh interpreter with a
generated JSON config whose master_seed is --seed.  With --trace 0 the
benchmark times set-up several times, then repeats the workload's
studies for S seconds and reports the medians of the end-to-end
metrics.  With --trace 1 it runs the workload once untraced at
--jobs 1 (and at --jobs nproc for pooled workloads), then repeats it
traced at --jobs 1 for the rest of the S seconds and reports the
per-layer metrics.  Every study's outputs are checked; the last stdout
line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import METRICS as LAYER_METRICS, layer_metrics, unaccounted_s
from workloads import (
    WORKLOADS,
    compare,
    data_digests,
    expected_outputs,
    expected_replications,
    read_outputs,
    study_config,
    unexercised,
)

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

END_TO_END = {"setup_s": "s", "wall_s": "s", "reps_per_s": "1/s", "cpu_s": "s", "peak_rss_mb": "MB"}

#: Set-up-only processes per run.  setup_s is the median over these and
#: the set-up of every study process in the run.
SETUP_SPAWNS = 7
#: A single study process is killed after this long.
STUDY_TIMEOUT_S = 150
#: No new unit starts this long after the run began, so a run ends well
#: within three minutes even if --seconds is large.
LAST_START_S = 120


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class StudyFailed(Exception):
    pass


class Runner:
    """Spawns study processes for one workload and seed, and checks their outputs."""

    def __init__(self, root: Path, workload, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p
        )
        self.reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
        self.spawned = 0

    def spawn(self, mode: str, study: str, jobs: int) -> tuple[dict, Path]:
        out = self.workdir / f"{self.spawned:03d}-{mode}-{study}"
        self.spawned += 1
        out.mkdir(parents=True)
        config = out / "config.json"
        config.write_text(json.dumps(study_config(self.workload, study, self.seed, out / "out")))
        argv = [sys.executable, str(HERE / "child.py"), mode, study, str(config), str(jobs)]
        t_spawn = clock()
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env, text=True, start_new_session=True
        )
        try:
            stdout, stderr = proc.communicate(timeout=STUDY_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise StudyFailed(f"{study}: killed after {STUDY_TIMEOUT_S} s")
        finally:
            _reap_group(proc.pid)
        if proc.returncode != 0:
            lines = stderr.strip().splitlines()
            errors = [line for line in lines if line.startswith("{") and '"error"' in line]
            detail = f"error record {errors[-1]}" if errors else (lines[-1:] or ["no stderr"])[0]
            raise StudyFailed(f"{study}: exit code {proc.returncode}: {detail}")
        record = json.loads(stdout.strip().splitlines()[-1])
        record["setup_s"] = record["t_ready"] - t_spawn
        record["wall_s"] = record["t_done"] - record["t_ready"]
        return record, out / "out"

    def unit(self, mode: str, jobs: int) -> dict:
        """Run the workload's studies once; the unit's totals and output digests."""
        unit = {"wall_s": 0.0, "cpu_s": 0.0, "study_cpu_s": 0.0, "peak_rss_mb": 0.0, "setups": [], "studies": {}}
        for study in self.workload.studies:
            record, out = self.spawn(mode, study, jobs)
            unit["setups"].append(record["setup_s"])
            unit["wall_s"] += record["wall_s"]
            unit["cpu_s"] += record["cpu_s"]
            unit["study_cpu_s"] += record["study_cpu_s"]
            unit["peak_rss_mb"] = max(unit["peak_rss_mb"], record["peak_rss_mb"])
            try:
                unit["studies"][study] = {
                    "digests": data_digests(out),
                    "outputs": read_outputs(study, out),
                    "record": record,
                }
            except (OSError, ValueError, KeyError) as exc:
                raise StudyFailed(f"{study}: unreadable outputs: {exc}") from exc
            shutil.rmtree(out.parent)
        return unit

    def check_against_reference(self, unit: dict) -> list:
        problems = []
        for study, result in unit["studies"].items():
            expected = expected_outputs(self.reference, self.workload.name, study, self.seed)
            problems += [f"{study}: {p}" for p in compare(result["outputs"], expected)]
        return problems

    def seed_in_table(self) -> bool:
        return str(self.seed) in self.reference["workloads"][self.workload.name]["seeds"]


def _reap_group(pgid: int) -> None:
    """Kill anything left in the study's process group (stray pool workers)."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def same_data(unit: dict, earlier: dict) -> list:
    """Studies whose data files differ from an earlier unit on the same inputs."""
    return [
        f"{study}: data files differ from an earlier run of the same inputs"
        for study, result in unit["studies"].items()
        if result["digests"] != earlier["studies"][study]["digests"]
    ]


def source_identity(root: Path) -> dict:
    """Commit (when the checkout is a git work tree) and a digest of src/."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = None
    if (root / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
        try:
            commit = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True, env=env, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest()}


class Tally:
    """Attempted and failed units, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def attempt(self, fn, *args):
        """Run fn(*args); a StudyFailed counts as a failed attempt and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except StudyFailed as exc:
            self.failures.append(str(exc))
            return None

    def fail(self, problems) -> bool:
        """Record output-check problems against the last attempt; True if any."""
        if problems:
            self.failures.append("; ".join(problems))
        return bool(problems)


def end_to_end(runner: Runner, seconds: int, tally: Tally, started: float):
    jobs = nproc() if runner.workload.pooled else 1
    setups = []
    environment = None
    for _ in range(SETUP_SPAWNS):
        record = tally.attempt(lambda: runner.spawn("setup", runner.workload.studies[0], jobs)[0])
        if record is not None:
            setups.append(record["setup_s"])
            environment = environment or record["env"]
    units = []
    window = clock()
    while clock() - window < seconds and clock() - started < LAST_START_S:
        unit = tally.attempt(runner.unit, "run", jobs)
        if unit is None:
            continue
        reference = units[0] if units else None
        if tally.fail(same_data(unit, reference) if reference else runner.check_against_reference(unit)):
            continue
        units.append(unit)
        setups += unit["setups"]
    samples = runner.workload.samples
    metrics = {
        "setup_s": statistics.median(setups) if setups else 0.0,
        "wall_s": statistics.median(u["wall_s"] for u in units) if units else 0.0,
        "reps_per_s": statistics.median(samples / u["wall_s"] for u in units) if units else 0.0,
        "cpu_s": statistics.median(u["cpu_s"] for u in units) if units else 0.0,
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units) if units else 0.0,
    }
    detail = {
        "jobs": jobs,
        "samples_per_unit": samples,
        "setup_samples": len(setups),
        "unit_wall_s": [round(u["wall_s"], 4) for u in units],
    }
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, environment, detail


def traced(runner: Runner, seconds: int, tally: Tally, started: float):
    window = clock()
    environment = (tally.attempt(lambda: runner.spawn("setup", runner.workload.studies[0], 1)[0]) or {}).get("env")
    baseline = tally.attempt(runner.unit, "run", 1)
    if baseline is not None and tally.fail(runner.check_against_reference(baseline)):
        baseline = None
    pooled = None
    if runner.workload.pooled:
        pooled = tally.attempt(runner.unit, "run", nproc())
        if pooled is not None and baseline is not None and tally.fail(same_data(pooled, baseline)):
            pooled = None
    replications = expected_replications(runner.reference, runner.workload.name, runner.seed)
    units = []
    tries = 0
    while clock() - started < LAST_START_S and (tries == 0 or clock() - window < seconds):
        tries += 1
        unit = tally.attempt(runner.unit, "trace", 1)
        if unit is None:
            continue
        problems = runner.check_against_reference(unit)
        if baseline is not None:
            problems += same_data(unit, baseline)
        for study, result in unit["studies"].items():
            record = result["record"]
            problems += [f"{study}: {p}" for p in record["problems"]]
            if replications is not None and study in replications:
                problems += [f"{study}: replications {p}" for p in compare(record["replications"], replications[study])]
        unit["totals"] = _sum_totals(r["record"]["totals"] for r in unit["studies"].values())
        counts = {k: v for k, v in unit["totals"].items() if isinstance(v, int)}
        if units and counts != {k: v for k, v in units[0]["totals"].items() if isinstance(v, int)}:
            problems.append("layer counts differ between repeats of the same inputs")
        problems += unexercised(runner.workload, unit["totals"])
        gap = unaccounted_s(unit["totals"])
        if abs(gap) > 1e-6 * max(1.0, unit["totals"]["trace.study_s"]):
            problems.append(f"self times leave {gap:.3g} s of traced time unaccounted")
        if tally.fail(problems):
            continue
        units.append(unit)
    metrics = {}
    if units:
        per_unit = []
        for unit in units:
            latencies: dict = {}
            for result in unit["studies"].values():
                for key, values in result["record"]["latencies"].items():
                    latencies.setdefault(key, []).extend(values)
            per_unit.append(layer_metrics(unit["totals"], latencies))
        metrics = {name: statistics.median(m[name] for m in per_unit) for name in per_unit[0]}
        study_s = metrics["trace.study_s"]
        metrics["risk.pool.tasks"] = metrics["risk.replications"] if pooled is not None and nproc() > 1 else 0
        source = pooled if pooled is not None else baseline
        metrics["risk.pool.cpu_per_wall"] = source["study_cpu_s"] / source["wall_s"] if source else 0.0
        metrics["risk.pool.scaling_eff"] = (
            baseline["wall_s"] / (nproc() * pooled["wall_s"]) if pooled is not None and baseline else 1.0
        )
        metrics["trace.overhead_frac"] = study_s / baseline["wall_s"] - 1.0 if baseline else 0.0
    result = {name: (metrics.get(name, 0.0), unit_name) for name, unit_name in LAYER_METRICS.items()}
    detail = {"jobs": 1, "pooled_jobs": nproc() if pooled is not None else None, "traced_units": len(units)}
    return result, environment, detail


def _sum_totals(totals_list) -> dict:
    out: dict = {}
    for totals in totals_list:
        for key, value in totals.items():
            out[key] = out.get(key, 0) + value
    return out


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = clock()
    root = Path.cwd()
    if not (root / "src" / "ivadapt" / "cli.py").is_file():
        sys.stderr.write("ivbench: no ivadapt sources at ./src/ivadapt; run from the root of a source checkout\n")
        return 2
    workload = WORKLOADS[args.workload]
    workdir = HERE / ".work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    runner = Runner(root, workload, args.seed, workdir)
    tally = Tally()
    try:
        measure = traced if args.trace else end_to_end
        metrics, environment, detail = measure(runner, args.seconds, tally, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": nproc(),
        "reference": "recorded for this seed" if runner.seed_in_table() else "seed-free outputs only",
        **source_identity(root),
        **(environment or {}),
        "blas_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS") if k in os.environ},
        **detail,
        "elapsed_s": clock() - started,
    }
    failed = len(tally.failures)
    print(json.dumps({"run": record}, sort_keys=True))
    if not runner.seed_in_table():
        print(f"WARNING seed {args.seed} is not in reference.json: only the seed-free outputs were checked")
    for failure in tally.failures:
        print(f"FAILED {failure}")
    for name, (value, unit_name) in metrics.items():
        print(f"{name:40s} {value:>16.6g} {unit_name}")
    print(f"{'failed_frac':40s} {failed / max(1, tally.attempted):>16.6g} ratio ({failed} of {tally.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(1, tally.attempted),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_name} for name, (value, unit_name) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
