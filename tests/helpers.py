"""Shared generators for randomized tests, and a solver fake. All randomness is seeded."""

from __future__ import annotations

import json
import os

import numpy as np

from bsqpt import FilterParams, KrausSet
from bsqpt.cli import main


def random_matrix(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def random_hermitian(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    m = random_matrix(rng, dim)
    return 0.5 * (m + m.conj().T)


def random_density(rng: np.random.Generator, dim: int = 4) -> np.ndarray:
    m = random_matrix(rng, dim)
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def random_channel(rng: np.random.Generator, n_kraus: int | None = None) -> KrausSet:
    """A random CP trace-nonincreasing channel with 1..4 Kraus operators."""
    if n_kraus is None:
        n_kraus = int(rng.integers(1, 5))
    items = [(1.0, random_matrix(rng)) for _ in range(n_kraus)]
    ks = KrausSet(items)
    top = float(np.linalg.eigvalsh(ks.total_effect())[-1])
    norm = np.sqrt(top * 1.01)
    return KrausSet([(w, k / norm) for w, k in items], physical=True)


def random_filter(rng: np.random.Generator, p_range=(0.0, 0.5)) -> FilterParams:
    """A filter with R/T in [1/e, e], any angles, p from ``p_range`` and scale in [0.5, 3]."""
    return FilterParams.from_ratio(
        float(np.exp(rng.uniform(-1.0, 1.0))), theta1=rng.uniform(-np.pi, np.pi),
        theta2=rng.uniform(-np.pi, np.pi), p=rng.uniform(*p_range),
        scale=rng.uniform(0.5, 3.0),
    )


def read_json(path) -> object:
    """The JSON value in the file at ``path``, which is closed again."""
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def write_json(value, path) -> None:
    """Write ``value`` as JSON to the file at ``path``, which is closed again."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(value, fh)


def start_lane(start: tuple, k: int) -> tuple:
    """Lane ``k`` of the fit solver's stacked start ``(x0, *_evaluate(x0))``, as a stack of one."""
    return tuple(part[k:k + 1] for part in start)


def untouched(start: tuple) -> list:
    """A stacked solver result that leaves every lane at its start, marked converged and ended."""
    x, r, _, _, _, alpha, _ = start
    lanes = len(x)
    return [x.copy(), r.copy(), alpha.copy(), np.ones(lanes, dtype=bool),
            np.ones(lanes, dtype=int), np.ones(lanes, dtype=bool)]


def set_lane(result: list, k: int, lane: tuple) -> None:
    """Write the parts of a one-lane solver result ``(x, r, alpha, ...)`` into lane ``k``."""
    for part, value in zip(result, lane):
        part[k] = value[0]


def fail_best_start(monkeypatch) -> None:
    """Make the fit's solver report its first start, the only one it runs, as failed.

    Every later start comes back untouched at its start point but marked
    successful, so on a model-generated matrix the best point is the failed one.
    """
    from bsqpt import fitting

    real = fitting._descend

    def solver(fun, start, *args):
        out = untouched(start)
        x, r, alpha, _, evaluations, _ = real(fun, start_lane(start, 0), *args)
        set_lane(out, 0, (x, r, alpha, [False], evaluations))
        return tuple(out)

    monkeypatch.setattr(fitting, "_descend", solver)


# The README pipeline: its input files, then each command with the outputs
# it writes. The maximally mixed input state is the one the CI run applies.
README_INPUTS = {
    "params.json": {"ratio_RT": 0.76, "theta1": 1.288053, "theta2": 0.238761, "p": 0.325,
                    "scale": 1.0},
    "temporal.json": {"ratio_RT": 0.76, "theta1": 1.288053, "theta2": 0.238761, "tau_fs": 100.0,
                      "tau_c_fs": 83.0, "mu": 0.72},
    "rho.json": {"dim": 4, "basis": "state", "re": np.diag([0.25] * 4).tolist(),
                 "im": np.zeros((4, 4)).tolist()},
}
README_PIPELINE = [
    "simulate --params params.json --counts-out counts.csv",
    "simulate --params params.json --counts-out noisy.csv --noise poisson --seed 1"
    " --total-scale 10000",
    "reconstruct --counts counts.csv --basis F --out chi_f.json",
    "fit --chi chi_f.json --out fit.json",
    "reconstruct --counts noisy.csv --basis F --out chi_noisy.json",
    "fit --chi chi_noisy.json --out fit_noisy.json --multistart 4",
    "homdip --params temporal.json --tau-min -400 --tau-max 400 --steps 161 --out dip.csv",
    "transform --chi chi_f.json --to S --out chi_s.json",
    "choi --params params.json --basis F --out model.json",
    "apply --chi chi_s.json --state rho.json --out out.json",
]
README_OUTPUTS = ["counts.csv", "noisy.csv", "chi_f.json", "fit.json", "chi_noisy.json",
                  "fit_noisy.json", "dip.csv", "chi_s.json", "model.json", "out.json"]


def run_readme_pipeline(directory) -> None:
    """Write the README pipeline's inputs to ``directory`` and run its commands there."""
    for name, value in README_INPUTS.items():
        write_json(value, os.path.join(directory, name))
    for command in README_PIPELINE:
        argv = [os.path.join(directory, a) if a.endswith((".json", ".csv")) else a
                for a in command.split()]
        code = main(argv)
        if code != 0:
            raise RuntimeError(f"bsqpt {command} exited {code}")
