#!/usr/bin/env python3
"""Replicate the resolution-bound bracketing check across sample sizes.

For each n the data-driven resolution bound M is recomputed on fresh
replications and compared against its deterministic bracket
[lower, upper); the script reports the empirical bracketing frequency
with an exact binomial confidence interval.
"""

import argparse
import json
from pathlib import Path

from ivadapt.cli import main as cli_main


def build_config(args) -> dict:
    return {
        "study": "coverage-study",
        "dgp": {
            "t": 1.0,
            "a": 0.5,
            "eta_sd": 0.5,
            "phi": {"family": "sobolev", "s": 1.0, "q": 2.0, "amplitude": 1.0, "k_support": 50},
            "g": {"coeffs": [1.0, 0.5]},
        },
        "n_grid": sorted(args.n),
        "reps": args.reps,
        "master_seed": args.seed,
        "jobs": args.jobs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/coverage_study", help="output directory")
    parser.add_argument("--reps", type=int, default=500)
    parser.add_argument("--seed", type=int, default=20240906)
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument(
        "--n", type=int, nargs="+", default=[10**3, 10**4], help="sample sizes to test"
    )
    args = parser.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    cfg_path = out / "config.json"
    cfg_path.write_text(json.dumps(build_config(args), indent=2))
    code = cli_main(["coverage-study", "--config", str(cfg_path), "--out", str(out)])
    if code != 0:
        return code
    print((out / "coverage.csv").read_text().strip())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
