"""Time ``bsqpt.fit`` and its model evaluations and print one JSON object.

Run from the repository root, pinned to one CPU with BLAS on one thread::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 taskset -c 0 \\
        env PYTHONPATH=src python scripts/bench_fit.py

Each case is a set of Poisson records of the reference filter (R/T = 0.76,
theta1 = 0.41 pi, theta2 = 0.076 pi) at 1e4 counts, cycling p = 0.14,
0.325, 0.5, reconstructed and moved to the F basis as the ``paper_fit``
benchmark does. Every time is scaled to the reference machine speed by
the benchmark's gauge (``perfbench/speed.py``), read just before and just
after it, because a shared machine changes speed in phases of seconds to
minutes. Each record is fitted ``REPEATS`` times and keeps its fastest
scaled time, which sheds single preemptions. A case reports the median of
those times over records, the mean evaluations per fit and the fit time
per evaluation (the solver's own per-iteration work included).

``layers_us`` gives, on the first record and for a stack of k = 1, 4
and 16 points (the first k of the 16 seeded uniform start points that
``_starts`` draws for 19 starts at seed 0), the time of one
``_evaluate`` call, which gives each point its residual, cost, normal
equations and scale, the fastest of five scaled means over 500 calls;
and of one lockstep iteration of the descent: one damped solve and one
``_evaluate`` call for all k lanes plus the lanes' bookkeeping, the mean
over a 10-step descent with the convergence tests off (tolerance 0), the
fastest of five scaled runs.

``cli_fit`` gives the cold start of ``python -m bsqpt.cli fit`` on the
noiseless reference matrix, one fresh process per run: the median scaled
wall time of ``COLD_RUNS`` runs, and the largest resident set of any run.
"""

from __future__ import annotations

import importlib.metadata
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

import numpy as np

from bsqpt import FilterParams, FitConfig, build_input_set, fit, kraus_pair
from bsqpt import reconstruct_process, simulate_counts, transform_process_matrix
from bsqpt.fitting import _BLOCK_IX, _LOWER, _OFF_BLOCK, _UPPER, _as_real, _descend, _evaluate
from bsqpt.fitting import _starts

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import speed  # noqa: E402  (the benchmark's machine-speed gauge)

REPEATS = 5
COLD_RUNS = 15
STEPS = 10
CASES = {
    # name: (records, FitConfig keywords)
    "paper_fit_4_starts": (60, dict(multistart=4, max_iterations=500, convergence_tol=1e-9)),
    "default_16_starts": (15, {}),
}


def records(n: int) -> list:
    inputs = build_input_set()
    out = []
    for k in range(n):
        p = (0.14, 0.325, 0.5)[k % 3]
        fp = FilterParams.from_ratio(0.76, theta1=0.41 * math.pi, theta2=0.076 * math.pi, p=p)
        ct = simulate_counts(kraus_pair(fp), inputs, total_scale=1e4, noise="poisson",
                             seed=5000 + k)
        out.append(transform_process_matrix(reconstruct_process(ct, inputs), "F"))
    return out


GAUGE = speed.Gauge()


def timed(f, number: int = 1) -> float:
    """Seconds per call of ``f`` over ``number`` calls, scaled to the reference speed."""
    before = GAUGE.reading()
    t0 = time.perf_counter()
    for _ in range(number):
        f()
    elapsed = (time.perf_counter() - t0) / number
    return elapsed * speed.scale(before, GAUGE.reading())


def run_case(n: int, kwargs: dict) -> dict:
    chis = records(n)
    fit(chis[0], FitConfig(seed=0, **kwargs))  # warm-up
    times, evaluations = [], []
    for k, chi in enumerate(chis):
        cfg = FitConfig(seed=k, **kwargs)
        times.append(min(timed(lambda: fit(chi, cfg)) for _ in range(REPEATS)))
        evaluations.append(fit(chi, cfg).n_evaluations)
    return {
        "records": n,
        "fit_p50_ms": round(1e3 * statistics.median(times), 3),
        "evaluations_per_fit": round(sum(evaluations) / n, 2),
        "us_per_evaluation": round(1e6 * sum(times) / sum(evaluations), 2),
    }


def layers() -> dict:
    chi = transform_process_matrix(records(1)[0], "S").m
    chi = 0.5 * (chi + chi.conj().T)
    target = _as_real(chi[_BLOCK_IX])
    off = chi[_OFF_BLOCK].view(np.float64)
    floor = float(off @ off)
    starts = np.array(_starts(FitConfig(multistart=19))[1:])

    def fun(x):
        return _evaluate(x, target, floor)

    out = {}
    for k in (1, 4, 16):
        x = starts[:k]
        start = (x, *fun(x))
        calls = {
            "evaluate": (lambda: fun(x), 500),
            "iteration": (lambda: _descend(fun, start, _LOWER, _UPPER, 0.0, STEPS + 1), 1),
        }
        if _descend(fun, start, _LOWER, _UPPER, 0.0, STEPS + 1)[3].any():
            raise RuntimeError(f"a lane stopped before step {STEPS} at k = {k}")
        best = dict.fromkeys(calls, math.inf)
        for _ in range(5):  # interleaved, so a slow phase of the machine hits every layer
            for name, (f, number) in calls.items():
                best[name] = min(best[name], timed(f, number=number))
        best["iteration"] /= STEPS
        out[f"k={k}"] = {name: round(1e6 * t, 2) for name, t in best.items()}
    return out


def cli_fit() -> dict:
    cli = [sys.executable, "-m", "bsqpt.cli"]
    with tempfile.TemporaryDirectory() as tmp:
        params, chi, out = (os.path.join(tmp, name) for name in ("p.json", "chi.json", "fit.json"))
        with open(params, "w", encoding="utf-8") as fh:
            json.dump({"ratio_RT": 0.76, "theta1": 0.41 * math.pi, "theta2": 0.076 * math.pi,
                       "p": 0.325}, fh)
        subprocess.run(cli + ["choi", "--params", params, "--basis", "F", "--out", chi],
                       check=True, capture_output=True)
        runs = [timed(lambda: subprocess.run(cli + ["fit", "--chi", chi, "--out", out],
                                             check=True, capture_output=True))
                for _ in range(COLD_RUNS)]
    return {
        "runs": COLD_RUNS,
        "cold_ms": round(1e3 * statistics.median(runs), 1),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, 1),
    }


def scipy_version() -> str | None:
    """The installed scipy version, if any: older versions of the fit import it."""
    try:
        return importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        return None


def main() -> None:
    cpu = "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    machine = {
        "cpu": cpu,
        "cores": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repeats": REPEATS,
    }
    cases = {name: run_case(n, kwargs) for name, (n, kwargs) in CASES.items()}
    json.dump({"machine": machine, "layers_us": layers(), "cases": cases, "cli_fit": cli_fit()},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
