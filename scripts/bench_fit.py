"""Time ``bsqpt.fit`` and the layers under it; print one JSON object.

Run from the repository root, pinned to one CPU with BLAS on one thread::

    OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 taskset -c 0 \\
        env PYTHONPATH=src python scripts/bench_fit.py

Every time is scaled to the reference machine speed by the benchmark's
gauge (``perfbench/speed.py``), read just before and just after it, because
a shared machine changes speed in phases of seconds to minutes.

``cases``: each fits a set of records under one ``FitConfig``, every record
``REPEATS`` times, and keeps each record's fastest scaled time, which sheds
single preemptions. It reports the median and the mean of those times, the
mean profile evaluations per fit (``n_evaluations``) and the fit time per
evaluation. The records are 60 Poisson records of the reference filter
(R/T = 0.76, theta1 = 0.41 pi, theta2 = 0.076 pi) at 1e4 counts, cycling
p = 0.14, 0.325, 0.5, reconstructed and moved to the F basis as the
``paper_fit`` benchmark does (``paper``), and 20 records of the reference
angles at R/T = 0.1, below the box (p = 0 and 0.3, 1e3 counts, seeds 0-9,
``outside``), whose optimum lies on the box's faces. Each set runs under the
benchmark's ``FitConfig`` (``multistart=4``, ``max_iterations=500``,
``convergence_tol=1e-9``) and under the default. No case computes the
fidelity, so these times leave out the model factor and the
eigendecomposition of ``model_fidelity`` (``layers_us["fidelity"]``).

``layers_us`` gives the fastest of five scaled means over 500 calls of:
``grid``, the box-constrained angle profile on the 16x16 grid
(``bsqpt.fitting.grid``), on the first paper record; ``profile``, one
evaluation of it at a point with its gradient and Hessian, at that
record's best grid point, which lies inside the box; ``profile_boxed``, the
same at the first outside record's first polished start, whose best point
lies on a ratio face of the box, so that it runs the box's boundary
candidates; ``polish``, Newton's method from the paper record's best grid
point under the benchmark's ``FitConfig``; ``starts``, the paper
record's whole start list (``_grid_starts``: the grid and the polish of
every start) under the default; ``residual``, the squared residual that
the fit sums on the 6x6 block at each polished start, here at the paper
record's reported start under the benchmark's ``FitConfig``
(``_squared_residual``); and ``fidelity``, ``model_fidelity`` of that fit's
parameters and the record, which scales the record to unit magnitude in
its own basis, builds the 16x2 model factor and runs the
eigendecomposition.

The benchmark (``perfbench/run.py``) reports the 4-start fit, traced, as
``fitting.fit.p50_ms``, ``fitting.evaluations`` and
``fitting.us_per_evaluation``.
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

from bsqpt import FilterParams, FitConfig, build_input_set, fit, kraus_pair, model_fidelity
from bsqpt import reconstruct_process, simulate_counts, transform_process_matrix
from bsqpt.fitting import _GRID, _grid_starts, _profile_maps, _squared_residual, _unit_inputs
from bsqpt.fitting import grid, polish, profile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))
import speed  # noqa: E402  (the benchmark's machine-speed gauge)

REPEATS = 5
BENCH = FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9)
GAUGE = speed.Gauge()


def records(name: str) -> list:
    inputs = build_input_set()
    if name == "paper":
        specs = [(0.76, (0.14, 0.325, 0.5)[k % 3], 1e4, 5000 + k, "F") for k in range(60)]
    else:
        specs = [(0.1, p, 1e3, seed, "S") for p in (0.0, 0.3) for seed in range(10)]
    out = []
    for ratio, p, total, seed, basis in specs:
        fp = FilterParams.from_ratio(ratio, theta1=0.41 * math.pi, theta2=0.076 * math.pi, p=p)
        ct = simulate_counts(kraus_pair(fp), inputs, total_scale=total, noise="poisson",
                             seed=seed)
        out.append(transform_process_matrix(reconstruct_process(ct, inputs), basis))
    return out


def timed(f, number: int = 1) -> float:
    """Seconds per call of ``f`` over ``number`` calls, scaled to the reference speed."""
    before = GAUGE.reading()
    t0 = time.perf_counter()
    for _ in range(number):
        f()
    elapsed = (time.perf_counter() - t0) / number
    return elapsed * speed.scale(before, GAUGE.reading())


def run_case(chis: list, cfg: FitConfig) -> dict:
    fit(chis[0], cfg)  # warm-up
    times = [min(timed(lambda: fit(chi, cfg)) for _ in range(REPEATS)) for chi in chis]
    evaluations = [fit(chi, cfg).n_evaluations for chi in chis]
    return {
        "records": len(chis),
        "fit_p50_ms": round(1e3 * statistics.median(times), 3),
        "fit_mean_ms": round(1e3 * statistics.fmean(times), 3),
        "evaluations_per_fit": round(sum(evaluations) / len(chis), 2),
        "us_per_evaluation": round(1e6 * sum(times) / sum(evaluations), 2),
    }


def layers(chi, outside) -> dict:
    unit, _, target, floor = _unit_inputs(chi)
    value, parts = grid(_profile_maps(), target)
    theta = _GRID[int(np.argmax(value))].tolist()
    norm = floor + target @ target
    _, _, boxed_target, boxed_floor = _unit_inputs(outside)
    boxed_parts = grid(_profile_maps(), boxed_target)[1]
    boxed = _grid_starts(boxed_target, boxed_floor, BENCH)[0][1:3]
    result = fit(chi, BENCH)
    reported = _grid_starts(target, floor, BENCH)[result.best_start][1:4]

    calls = {
        "grid": lambda: grid(_profile_maps(), target),
        "profile": lambda: profile(parts, *theta),
        "profile_boxed": lambda: profile(boxed_parts, *boxed),
        "polish": lambda: polish(parts, *theta, norm, BENCH.convergence_tol, BENCH.max_iterations),
        "starts": lambda: _grid_starts(target, floor, FitConfig()),
        "residual": lambda: _squared_residual(unit, target, floor, *reported),
        "fidelity": lambda: model_fidelity(result.params, chi),
    }
    best = dict.fromkeys(calls, math.inf)
    for _ in range(5):  # interleaved, so a slow phase of the machine hits every layer
        for name, f in calls.items():
            best[name] = min(best[name], timed(f, number=500))
    return {name: round(1e6 * t, 2) for name, t in best.items()}


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
    sets = {name: records(name) for name in ("paper", "outside")}
    cases = {f"{name}_{label}": run_case(chis, cfg) for name, chis in sets.items()
             for label, cfg in (("4_starts", BENCH), ("default", FitConfig()))}
    json.dump({"machine": machine, "layers_us": layers(sets["paper"][0], sets["outside"][0]),
               "cases": cases},
              sys.stdout, indent=1)
    print()


if __name__ == "__main__":
    main()
