"""One ivadapt CLI study in a fresh interpreter, as a user runs it.

    python3 child.py MODE STUDY CONFIG JOBS

MODE is ``setup`` (import ivadapt.cli and load the config, then stop),
``run`` (then run the study through the CLI entry point ``cli.main``,
which loads the config again) or ``trace`` (run it the same way with
layer tracing and the stage pass).  A study that fails exits with the
CLI's exit code, its JSON error record on stderr.  The last stdout line is a JSON record with the
CLOCK_MONOTONIC times at which set-up ended and the study ended, CPU
time and peak RSS of this process and its reaped children, and in
``trace`` mode the layer totals, latency samples and
per-replication outcomes.  ``setup`` also reports the
library versions and the BLAS build and thread count.
"""

import json
import resource
import sys
import time


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest RSS of this process or any reaped child (ru_maxrss is in KiB on Linux)."""
    return max(resource.getrusage(w).ru_maxrss for w in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def blas_info() -> dict:
    """BLAS library numpy loaded and its default thread count, read through ctypes."""
    import ctypes

    import numpy as np

    info = {"name": None, "version": None, "threads": None, "config": None}
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    info["name"], info["version"] = blas.get("name"), blas.get("version")
    with open("/proc/self/maps", encoding="utf-8") as maps:
        paths = sorted({line.split()[-1] for line in maps if "blas" in line.rsplit("/", 1)[-1].lower()})
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is not None:
                    threads.restype = ctypes.c_int
                    info["threads"] = threads()
                if config is not None:
                    config.restype = ctypes.c_char_p
                    info["config"] = config().decode()
                if threads is not None:
                    return info
    return info


def environment() -> dict:
    import platform

    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_info(),
    }


def main(argv) -> int:
    mode, study, config_path, jobs = argv[1], argv[2], argv[3], int(argv[4])
    import ivadapt
    import ivadapt.cli as cli

    cli.load_config(config_path, study=study, jobs=jobs)
    t_ready = clock()
    cpu_ready = cpu_seconds()
    record = {"t_ready": t_ready}
    cli_argv = [study, "--config", config_path, "--jobs", str(jobs)]
    code = 0
    if mode == "setup":
        record["env"] = environment()
    elif mode == "run":
        code = cli.main(cli_argv)
    elif mode == "trace":
        from layers import StudyTrace

        trace = StudyTrace()
        code, record["problems"] = trace.run(ivadapt, cli_argv)
        record["totals"] = trace.totals()
        record["latencies"] = trace.latencies()
        record["replications"] = trace.replication_ints()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if code != 0:
        return code
    record["t_done"] = clock() if mode != "setup" else t_ready
    record["cpu_s"] = cpu_seconds()
    record["study_cpu_s"] = record["cpu_s"] - cpu_ready
    record["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
