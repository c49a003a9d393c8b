"""Shared generators for randomized tests, and a solver fake. All randomness is seeded."""

from __future__ import annotations

import numpy as np

from bsqpt import FilterParams, KrausSet


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


def start_lane(start: tuple, k: int) -> tuple:
    """Lane ``k`` of the fit solver's stacked start ``(x0, *_evaluate(x0))``, as a stack of one."""
    return tuple(part[k:k + 1] for part in start)


def untouched(start: tuple) -> list:
    """A stacked solver result that leaves every lane at its start point, marked converged."""
    x, r, _, _, _, alpha, _ = start
    lanes = len(x)
    return [x.copy(), r.copy(), alpha.copy(), np.ones(lanes, dtype=bool),
            np.ones(lanes, dtype=int)]


def set_lane(result: list, k: int, lane: tuple) -> None:
    """Write a one-lane solver result ``(x, r, alpha, converged, evaluations)`` into lane ``k``."""
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
        x, r, alpha, _, evaluations = real(fun, start_lane(start, 0), *args)
        set_lane(out, 0, (x, r, alpha, [False], evaluations))
        return tuple(out)

    monkeypatch.setattr(fitting, "_descend", solver)
