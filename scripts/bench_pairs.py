#!/usr/bin/env python3
"""Interleaved before/after pairs of the ivbench benchmark, kept as BENCH_<short-sha>.json.

    python3 scripts/bench_pairs.py --base DIR --change DIR \\
        --workload rate-ref --seeds 40-49 --seconds 25

--base and --change are source checkouts (for example a ``git clone``
of the parent commit and of the change), each with its own ivbench/.
Pair i runs the i-th seed on both sides; even pairs run the base
first, odd pairs the change first.  Every run is
``python3 ivbench/run.py --workload W --seed N --seconds S --trace 0``
in that checkout, one at a time.  Each side runs with its own fresh
bytecode cache (``PYTHONPYCACHEPREFIX``, a new temporary directory per
side, with ``PYTHONDONTWRITEBYTECODE`` unset), so bytecode that earlier
runs left in a checkout's ``__pycache__`` is never read: each side
compiles on its first run and reads its own cache after that, and the
header records this as ``pycache``.  The script only calls the benchmark:
it keeps the last stdout line of each run (the JSON result) and the
run record above it, plus the host's 1-minute load average just before
and just after the run (``load_1m``), so host drift can be told from a
regression.

The output file, written at the root of the --change checkout and
named after its commit, holds every run, and per workload and
end-to-end metric each side's median and quartiles over its correct
runs (``statistics.quantiles``, exclusive method), how many of all
pairs the change won, judged by the metric's ``better`` in
BENCHMARK.json, and how many runs failed on each side.  ``claim_met``
applies the rule for claiming a gain: the change wins at least nine
tenths of all pairs, and its median is better than the base's by more
than the base's interquartile range.  For a metric with a ``bound``
in BENCHMARK.json, ``within_bound`` says the change's median is no
worse than the base's by more than that fraction of the base median,
and ``unresolved`` says the base's interquartile range exceeds that
fraction while not every change run beats every base run, so a move
of the bounded size cannot be told from the spread.  ``ratio`` is
the median over pairs of change / base with a 95 % percentile
bootstrap interval (pairs resampled with a fixed seed, so reruns give
the same interval).  The header gives machine (with numpy's SIMD
targets for the float64 functions whose targets the manifest records,
``numpy_simd``), nproc, both commits and the numpy version the runs
reported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def seed_list(text: str) -> list[int]:
    """Seeds from "40-49" or "3,8,11"."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def commit(root: Path) -> str | None:
    out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def simd_dispatch() -> dict:
    """numpy's SIMD targets for float64 tan, arctan, exp, log and power in this interpreter.

    These are the functions whose targets ivadapt's manifest records; the
    runs use the same interpreter, and their float cost depends on these
    targets, so a gain is claimed for them only.
    """
    from numpy.lib.introspect import opt_func_info  # numpy loads only for the header, not during the runs

    return opt_func_info(func_name="^(tan|arctan|exp|log|power)$", signature="float64")


def side_env(pycache: Path) -> dict:
    """This process's environment with Python's bytecode cache at pycache and bytecode writing on."""
    env = {**os.environ, "PYTHONPYCACHEPREFIX": str(pycache)}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_once(root: Path, workload: str, seed: int, seconds: int, env: dict) -> dict:
    """One benchmark run: its exit code, run record, JSON result (None when missing) and load_1m."""
    cmd = [sys.executable, "ivbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    load_before = os.getloadavg()[0]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True)
    load_after = os.getloadavg()[0]
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    records = [json.loads(line)["run"] for line in lines if line.startswith('{"run"')]
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return {"exit": proc.returncode, "record": records[0] if records else None, "result": result,
            "load_1m": {"before": load_before, "after": load_after}}


def correct(run: dict) -> bool:
    return run["exit"] == 0 and bool(run["result"] and run["result"].get("correct"))


def metric_value(run: dict, name: str):
    if not correct(run):
        return None
    entry = run["result"].get("metrics", {}).get(name)
    return None if entry is None else entry["value"]


def spread(values: list[float]) -> dict | None:
    if not values:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1, "runs": len(values)}


#: Bootstrap resamples and seed of the paired-ratio interval.
BOOTSTRAP_RESAMPLES = 2000
BOOTSTRAP_SEED = 0


def ratio_interval(ratios: list[float]) -> dict | None:
    """Median of the paired ratios and its 95 % percentile bootstrap interval."""
    if not ratios:
        return None
    rng = random.Random(BOOTSTRAP_SEED)
    medians = [statistics.median(rng.choices(ratios, k=len(ratios))) for _ in range(BOOTSTRAP_RESAMPLES)]
    cuts = statistics.quantiles(medians, n=40, method="inclusive")  # 2.5 % steps
    return {"median": statistics.median(ratios), "ci_low": cuts[0], "ci_high": cuts[-1], "level": 0.95,
            "resamples": BOOTSTRAP_RESAMPLES, "pairs": len(ratios)}


def summarize(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's spread over its correct runs and the change's wins over all pairs.

    A pair is a win only when both sides are correct and the change is
    better, so a failed or incorrect run on either side counts against
    the change.  ``failed`` counts each side's runs that exited nonzero
    or were not correct.  The paired ratios skip pairs with a failed
    side or a base of 0.  A spec with a ``bound`` adds ``within_bound``
    and ``unresolved``, both False when a side has no correct run.
    """
    failed = {side: sum(not correct(r) for r in runs if r["side"] == side) for side in ("base", "change")}
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        pairs = {}
        for run in runs:
            pairs.setdefault(run["pair"], {})[run["side"]] = metric_value(run, name)
        values = {side: [p[side] for p in pairs.values() if p.get(side) is not None] for side in ("base", "change")}
        wins = sum(
            p.get("base") is not None and p.get("change") is not None
            and ((p["change"] < p["base"]) if lower else (p["change"] > p["base"]))
            for p in pairs.values()
        )
        base, change = spread(values["base"]), spread(values["change"])
        gap = change["median"] - base["median"] if base and change else None
        ratios = [p["change"] / p["base"] for p in pairs.values() if p.get("change") is not None and p.get("base")]
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "base": base,
            "change": change,
            "median_gap": gap,
            "wins": wins,
            "pairs": len(pairs),
            "failed": failed,
            "claim_met": gap is not None and wins >= 0.9 * len(pairs) and (-gap if lower else gap) > base["iqr"],
            "ratio": ratio_interval(ratios),
        }
        if "bound" in spec:
            sign = 1 if lower else -1  # sign * (change - base) > 0 when the change is worse
            measured = gap is not None
            allowed = spec["bound"] * base["median"] if measured else 0.0
            beats_all = measured and max(sign * v for v in values["change"]) < min(sign * v for v in values["base"])
            out[name]["within_bound"] = measured and sign * gap <= allowed
            out[name]["unresolved"] = measured and base["iqr"] > allowed and not beats_all
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--base", required=True, type=Path, help="checkout of the commit before the change")
    parser.add_argument("--change", required=True, type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, action="append", help="repeat for several workloads")
    parser.add_argument("--seeds", required=True, type=seed_list, help='one seed per pair: "40-49" or "3,8,11"')
    parser.add_argument("--seconds", type=int, default=25)
    args = parser.parse_args(argv)
    sides = {"base": args.base.resolve(), "change": args.change.resolve()}
    end_to_end = json.loads((sides["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    workloads = {}
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as pycache:
        envs = {side: side_env(Path(pycache) / side) for side in sides}
        for workload in args.workload:
            runs = []
            for pair, seed in enumerate(args.seeds):
                order = ("base", "change") if pair % 2 == 0 else ("change", "base")
                for position, side in enumerate(order):
                    run = run_once(sides[side], workload, seed, args.seconds, envs[side])
                    runs.append({"pair": pair, "seed": seed, "side": side, "position": position, **run})
                    wall = metric_value(run, "wall_s")
                    load = run["load_1m"]
                    print(f"{workload} pair {pair} seed {seed} {side}: exit {run['exit']} wall_s {wall} "
                          f"load_1m {load['before']:.2f} -> {load['after']:.2f}", file=sys.stderr)
            workloads[workload] = {"seeds": args.seeds, "metrics": summarize(runs, end_to_end), "runs": runs}

    records = [r["record"] for w in workloads.values() for r in w["runs"] if r["record"]]
    change_commit = commit(sides["change"])
    payload = {
        "command": "python3 ivbench/run.py --workload W --seed N --seconds S --trace 0",
        "seconds": args.seconds,
        "pycache": "a fresh PYTHONPYCACHEPREFIX directory per side, PYTHONDONTWRITEBYTECODE unset",
        "machine": {"cpu": cpu_model(), "arch": platform.machine(), "system": platform.platform(),
                    "numpy_simd": simd_dispatch()},
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": sorted({r.get("numpy") for r in records if r.get("numpy")}),
        "base_commit": commit(sides["base"]),
        "change_commit": change_commit,
        "workloads": workloads,
    }
    name = f"BENCH_{(change_commit or 'uncommitted')[:7]}.json"
    path = sides["change"] / name
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    for workload, entry in workloads.items():
        for metric, stats in entry["metrics"].items():
            medians = [f"{stats[side]['median']:.4g}" if stats[side] else "-" for side in ("base", "change")]
            ratio = stats["ratio"]
            ci = f"{ratio['median']:.3f} [{ratio['ci_low']:.3f}, {ratio['ci_high']:.3f}]" if ratio else "-"
            print(f"{workload:14s} {metric:12s} base {medians[0]} change {medians[1]} "
                  f"wins {stats['wins']}/{stats['pairs']} claim_met {stats['claim_met']} ratio {ci} "
                  f"within_bound {stats.get('within_bound', '-')} unresolved {stats.get('unresolved', '-')} "
                  f"failed {stats['failed']}")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
