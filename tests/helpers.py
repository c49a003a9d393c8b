"""Shared generators for randomized tests, and a solver fake. All randomness is seeded."""

from __future__ import annotations

import numpy as np

from bsqpt import KrausSet


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


def fail_best_start(monkeypatch) -> None:
    """Make the fit's solver report its first start, the only one it runs, as failed.

    Every later start comes back untouched at its start point but marked
    successful, so on a model-generated matrix the best point is the failed one.
    """
    from bsqpt import fitting

    real = fitting._descend
    calls = []

    def solver(fun, jac, start, *args):
        calls.append(start[0])
        if len(calls) == 1:
            return (*real(fun, jac, start, *args)[:3], False)
        return (*start, True)

    monkeypatch.setattr(fitting, "_descend", solver)
