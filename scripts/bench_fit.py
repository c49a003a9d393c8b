"""Time ``bsqpt.fit`` at its default 16 starts and its model evaluations; print one JSON object.

Run from the repository root, pinned to one CPU with BLAS on one thread::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 taskset -c 0 \\
        env PYTHONPATH=src python scripts/bench_fit.py

The case is a set of Poisson records of the reference filter (R/T = 0.76,
theta1 = 0.41 pi, theta2 = 0.076 pi) at 1e4 counts, cycling p = 0.14,
0.325, 0.5, reconstructed and moved to the F basis as the ``paper_fit``
benchmark does. Every time is scaled to the reference machine speed by
the benchmark's gauge (``perfbench/speed.py``), read just before and just
after it, because a shared machine changes speed in phases of seconds to
minutes. Each record is fitted ``REPEATS`` times and keeps its fastest
scaled time, which sheds single preemptions. The case reports the median
of those times over records, the mean evaluations per fit and the fit time
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

The benchmark (``perfbench/run.py``) times the rest of the fit. Its
``paper_fit`` workload runs the 4-start fit (``multistart=4``,
``max_iterations=500``, ``convergence_tol=1e-9``) and reports it, traced, as
``fitting.fit.p50_ms``, ``fitting.evaluations`` and
``fitting.us_per_evaluation``. Its ``cli_session`` workload reports the cold
start of ``bsqpt fit`` as ``cli.fit.cold_ms`` and the largest resident set
as ``peak_rss_mb``.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

from bsqpt import FilterParams, FitConfig, build_input_set, fit, kraus_pair
from bsqpt import reconstruct_process, simulate_counts, transform_process_matrix
from bsqpt.fitting import _LOWER, _UPPER, _descend, _evaluate, _kernel_inputs, _starts

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import speed  # noqa: E402  (the benchmark's machine-speed gauge)

REPEATS = 5
STEPS = 10
CASES = {
    # name: (records, FitConfig keywords)
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
    target, floor = _kernel_inputs(0.5 * (chi + chi.conj().T))
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
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "repeats": REPEATS,
    }
    cases = {name: run_case(n, kwargs) for name, (n, kwargs) in CASES.items()}
    json.dump({"machine": machine, "layers_us": layers(), "cases": cases}, sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
