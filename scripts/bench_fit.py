"""Time ``bsqpt.fit``, its starts and its model evaluations; print one JSON object.

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
scaled time, which sheds single preemptions. Each case reports the median
and the mean of those times over records, the mean evaluations and stacked
kernel (``_evaluate``) calls per fit, the fit time per evaluation (the
solver's own per-iteration work included), how many fits started each number of
lanes (``lanes_per_fit``, by the length of ``start_residuals``; the
descent's cost per iteration grows with it), how many fits descended
each number of lanes to their end (``lanes_descended_per_fit``: the rest
were dropped once a lane converged at the angle profile's bound; every
lane on trees without the bound) and the mean kernel calls of the fits
that started more than one lane (``kernel_calls_per_multi_lane_fit``,
``null`` without such fits): the 4-start fit of the
benchmark's ``paper_fit`` workload (``multistart=4``,
``max_iterations=500``, ``convergence_tol=1e-9``) and the default fit.

``layers_us`` gives, on the first record: ``starts``, the whole start list
(``_grid_starts`` for 16 starts: the angle grid and the polish of each
start); ``polish``, the Newton polish of those starts alone
(``bsqpt.varpro.polish``, absent from trees without one); ``profile``, one
closed-form profile evaluation with its gradient and Hessian; and, for a
stack of k = 1, 4 and 16 points (the first k of the fixed ``LANES``), one
``_evaluate`` call, which gives each point its residual, cost, normal
equations and scale, and one iteration of the descent: one stacked
``_evaluate`` call for all k lanes plus each lane's own step in Python
floats, the mean over a 10-step descent with the convergence tests off
(tolerance 0). Each is the fastest of five scaled means, over 500 calls
for the single calls.

The benchmark (``perfbench/run.py``) reports the 4-start fit, traced, as
``fitting.fit.p50_ms``, ``fitting.evaluations`` and
``fitting.us_per_evaluation``. Its ``cli_session`` workload reports the cold
start of ``bsqpt fit`` as ``cli.fit.cold_ms`` and the largest resident set
as ``peak_rss_mb``.
"""

from __future__ import annotations

import collections
import inspect
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
from bsqpt import fitting
from bsqpt.fitting import _LOWER, _UPPER, _descend, _evaluate, _grid_starts, _kernel_inputs

try:
    from bsqpt import varpro
except ImportError:  # a tree from before the start polish
    varpro = None

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import speed  # noqa: E402  (the benchmark's machine-speed gauge)

REPEATS = 5
STEPS = 10
CASES = {
    # name: (records, FitConfig keywords)
    "paper_fit_4_starts": (60, {"multistart": 4, "max_iterations": 500, "convergence_tol": 1e-9}),
    "default_16_starts": (60, {}),
}
# A cost bound that no lane reaches, for trees whose _descend takes one.
NO_BOUND = (-math.inf,) if len(inspect.signature(_descend).parameters) > 6 else ()
# The layer lanes, fixed points (p, R/T, theta1, theta2) spread over the box.
LANES = np.random.default_rng(0).uniform([0.0, 0.25, -math.pi, -math.pi],
                                         [0.5, 4.0, math.pi, math.pi], (16, 4))


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
    cfg = FitConfig(**kwargs)
    fit(chis[0], cfg)  # warm-up
    times, evaluations, calls, multi = [], [], [], []
    lanes, descended = collections.Counter(), collections.Counter()

    def counting(*args):
        calls[-1] += 1
        return _evaluate(*args)

    def descending(*args):
        out = _descend(*args)
        descended[int(out[5].sum()) if len(out) > 5 else len(out[0])] += 1
        return out

    for chi in chis:
        times.append(min(timed(lambda: fit(chi, cfg)) for _ in range(REPEATS)))
        calls.append(0)
        fitting._evaluate, fitting._descend = counting, descending
        try:
            res = fit(chi, cfg)
        finally:
            fitting._evaluate, fitting._descend = _evaluate, _descend
        evaluations.append(res.n_evaluations)
        lanes[len(res.start_residuals)] += 1
        if len(res.start_residuals) > 1:
            multi.append(calls[-1])
    return {
        "records": n,
        "fit_p50_ms": round(1e3 * statistics.median(times), 3),
        "fit_mean_ms": round(1e3 * statistics.fmean(times), 3),
        "evaluations_per_fit": round(sum(evaluations) / n, 2),
        "kernel_calls_per_fit": round(sum(calls) / n, 2),
        "us_per_evaluation": round(1e6 * sum(times) / sum(evaluations), 2),
        "lanes_per_fit": {str(k): lanes[k] for k in sorted(lanes)},
        "lanes_descended_per_fit": {str(k): descended[k] for k in sorted(descended)},
        "kernel_calls_per_multi_lane_fit": round(sum(multi) / len(multi), 2) if multi else None,
    }


def layers() -> dict:
    chi = transform_process_matrix(records(1)[0], "S").m
    target, floor = _kernel_inputs(0.5 * (chi + chi.conj().T))

    def fun(x):
        return _evaluate(x, target, floor)

    calls = {"starts": (lambda: _grid_starts(target, floor, 16), 500)}
    if varpro is not None:
        runs = []

        def spy(parts, theta1, theta2):
            runs.append((parts, theta1, theta2))
            return varpro.polish(parts, theta1, theta2)

        fitting.polish = spy
        try:
            _grid_starts(target, floor, 16)
        finally:
            fitting.polish = varpro.polish
        calls["polish"] = (lambda: [varpro.polish(*run) for run in runs], 500)
        calls["profile"] = (lambda: varpro.profile(*runs[0]), 500)
    best = dict.fromkeys(calls, math.inf)
    for _ in range(5):
        for name, (f, number) in calls.items():
            best[name] = min(best[name], timed(f, number=number))
    out = {name: round(1e6 * t, 2) for name, t in best.items()}
    for k in (1, 4, 16):
        x = LANES[:k]
        start = (x, *fun(x))
        calls = {
            "evaluate": (lambda: fun(x), 500),
            "iteration": (lambda: _descend(fun, start, _LOWER, _UPPER, 0.0, STEPS + 1, *NO_BOUND),
                          1),
        }
        if _descend(fun, start, _LOWER, _UPPER, 0.0, STEPS + 1, *NO_BOUND)[3].any():
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
