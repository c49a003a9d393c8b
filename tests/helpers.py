"""Shared generators for randomized tests, reference solvers and a solver fake.

All randomness is seeded.
"""

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


def fail_best_start(monkeypatch) -> None:
    """Make each fit report its first start, the only one it polishes, as failed.

    Every later start comes back unpolished at its grid point but marked
    converged, so on a model-generated matrix the best point is the failed one.
    """
    from bsqpt import fitting, varpro

    real = fitting._grid_starts

    def starts(*args):
        calls = []

        def polish(parts, theta1, theta2, *rest):
            calls.append((theta1, theta2))
            if len(calls) == 1:
                return (*varpro.polish(parts, theta1, theta2, *rest)[:4], False, 1)
            value, x = varpro.profile(parts, theta1, theta2)[:2]
            return theta1, theta2, x, value, True, 1

        with monkeypatch.context() as patch:
            patch.setattr(fitting, "polish", polish)
            return real(*args)

    monkeypatch.setattr(fitting, "_grid_starts", starts)


def block_terms(theta) -> tuple:
    """``a = vec(I)`` and ``b = vec(U3(theta) SWAP)`` on the fit's 6x6 block."""
    from bsqpt.bases import to_coeff_vector
    from bsqpt.bsfilter import u3
    from bsqpt.fitting import _BLOCK
    from bsqpt.linalg import SWAP

    return (to_coeff_vector(np.eye(4, dtype=complex))[_BLOCK],
            to_coeff_vector(u3(*theta) @ SWAP)[_BLOCK])


def term_design(theta) -> np.ndarray:
    """The three model terms at ``theta`` as the columns of a real ``(72, 3)`` design matrix."""
    a, b = block_terms(theta)
    terms = [np.outer(a, a.conj()), np.outer(b, b.conj()),
             np.outer(a, b.conj()) + np.outer(b, a.conj())]
    return np.array([np.concatenate([t.real.ravel(), t.imag.ravel()]) for t in terms]).T


def box_least_squares(target: np.ndarray, theta, bounds=(0.25, 4.0)) -> tuple:
    """The block's least-squares cost over the fit's box at fixed angles: ``(cost, x, face)``.

    A dense reference for ``bsqpt.varpro``: ``target`` is the block's real and
    imaginary parts, interleaved, and ``x`` weighs the columns of
    :func:`term_design`, in the box ``X = [[x1, x3], [x3, x2]] >= 0`` with
    ``x2 / x1`` between the squares of ``bounds``. A convex problem's optimum
    is the optimum of one of its faces, so this takes the best of: the
    unconstrained ``lstsq`` solve where it lies in the box (``"inside"``),
    each ratio face ``x2 = c x1`` as a two-column ``lstsq`` where its solution
    does (``"ratio face"``), and the rank-one boundary ``X = u y y^T`` with
    ``y = (cos phi, sin phi)`` between the faces, searched over ``phi`` on a
    dense grid and refined by golden section (``"rank one"``, or
    ``"corner"`` at a face).
    """
    block = target.view(complex).reshape(6, 6)
    y = np.concatenate([block.real.ravel(), block.imag.ravel()])
    design = term_design(theta)
    lo, hi = (r * r for r in bounds)
    candidates = [(y @ y, np.zeros(3), "rank one")]

    def add(x, face):
        r = y - design @ x
        candidates.append((r @ r, x, face))

    x = np.linalg.lstsq(design, y, rcond=None)[0]
    if x[0] >= 0 and lo * x[0] <= x[1] <= hi * x[0] and x[0] * x[1] >= x[2] ** 2:
        add(x, "inside")
    for c in (lo, hi):
        u, w = np.linalg.lstsq(design @ np.array([[1, 0], [c, 0], [0, 1]]), y, rcond=None)[0]
        if np.sqrt(c) * u >= abs(w):
            add(np.array([u, c * u, w]), "ratio face")

    gram, overlaps = design.T @ design, design.T @ y

    def rank_one(phis):
        """The cost of the best ``x = u (cos^2, sin^2, cos sin)(phi)``, ``u >= 0``, at each phi."""
        e = np.array([np.cos(phis) ** 2, np.sin(phis) ** 2, np.cos(phis) * np.sin(phis)])
        size = np.add.reduce(e * (gram @ e))
        overlap = np.maximum(overlaps @ e, 0.0)
        return y @ y - overlap * overlap / size, overlap / size * e

    for left, right in ((np.arctan(np.sqrt(lo)), np.arctan(np.sqrt(hi))),
                        (np.pi - np.arctan(np.sqrt(hi)), np.pi - np.arctan(np.sqrt(lo)))):
        a, b = left, right
        for _ in range(6):  # each pass zooms into the two spacings around the lowest point
            phis = np.linspace(a, b, 401)
            k = int(np.argmin(rank_one(phis)[0]))
            a, b = phis[max(k - 1, 0)], phis[min(k + 1, len(phis) - 1)]
        cost, x = rank_one(np.array([phis[k]]))
        end = min(phis[k] - left, right - phis[k]) <= 1e-9
        candidates.append((cost[0], x[:, 0], "corner" if end else "rank one"))
    return min(candidates, key=lambda c: c[0])


def dense_residual(chi, x) -> np.ndarray:
    """The real residual of ``chi`` (S basis) against the model at ``(p, R/T, theta1, theta2)``.

    The scale is profiled: the model's multiplier is the nonnegative one
    closest to ``chi`` in Frobenius norm. p runs over [0, 1]: the channel at
    p > 1/2 is the one at ``1 - p`` with theta1 moved by 2 pi.
    """
    from bsqpt import FilterParams
    from bsqpt.fitting import model_chi

    p, ratio, theta1, theta2 = x
    if p > 0.5:
        p, theta1 = 1.0 - p, theta1 + 2.0 * np.pi
    model = model_chi(FilterParams.from_ratio(ratio, theta1=theta1, theta2=theta2, p=p)).m
    alpha = max(np.vdot(model, chi).real, 0.0) / np.vdot(model, model).real
    r = chi - alpha * model
    return np.concatenate([r.real.ravel(), r.imag.ravel()])


def trf_residual(chi, starts, tol: float, max_evals: int) -> float:
    """The lowest residual norm that scipy's trust-region reflective least squares reaches.

    A reference solver: from each start ``(p, R/T, theta1, theta2)`` it runs on
    the dense residual of the 16x16 S-basis matrix (:func:`dense_residual`),
    in the fit's box (p in [0, 1], R/T in [1/4, 4], free angles), with
    finite-difference Jacobians and ``tol`` as ftol, xtol and gtol.
    """
    import pytest

    least_squares = pytest.importorskip("scipy.optimize").least_squares
    from bsqpt import transform_process_matrix

    m = transform_process_matrix(chi, "S").m
    m = 0.5 * (m + m.conj().T)
    best = np.inf
    for x0 in starts:
        sol = least_squares(lambda x: dense_residual(m, x), x0, method="trf",
                            bounds=([0.0, 0.25, -np.inf, -np.inf], [1.0, 4.0, np.inf, np.inf]),
                            ftol=tol, xtol=tol, gtol=tol, max_nfev=max_evals)
        best = min(best, np.linalg.norm(sol.fun))
    return best


def dense_optimum(chi) -> float:
    """The lowest residual of the angle profile from every minimum of a 48x48 angle grid.

    A reference for the fit's start list: the profile's cost (``bsqpt.varpro``,
    checked against :func:`box_least_squares` on its own) at each grid
    point, and Nelder-Mead from each local minimum on the torus, on the
    matrix at the fit's unit magnitude and scaled back.
    """
    import pytest

    minimize = pytest.importorskip("scipy.optimize").minimize
    from bsqpt import varpro
    from bsqpt.fitting import _profile_maps, _unit_inputs

    _, e, target, floor = _unit_inputs(chi)
    norm = floor + target @ target
    parts = varpro.grid(_profile_maps(), target)[1]

    def cost(theta):
        return norm - varpro.profile(parts, *theta)[0]

    side = 48
    axis = np.linspace(-np.pi, np.pi, side, endpoint=False)
    costs = np.array([[cost((t1, t2)) for t2 in axis] for t1 in axis])
    best = costs.min()
    for i, j in zip(*np.nonzero(costs <= np.minimum.reduce(
            [np.roll(costs, (di, dj), axis=(0, 1)) for di in (-1, 0, 1) for dj in (-1, 0, 1)]))):
        sol = minimize(cost, (axis[i], axis[j]), method="Nelder-Mead",
                       options=dict(xatol=1e-10, fatol=1e-15 * norm, maxiter=1000))
        best = min(best, sol.fun)
    return np.sqrt(max(best, 0.0)) * 2.0**e


# The README pipeline: its input files, then each command with the outputs
# it writes. tests/test_golden.py, scripts/regenerate_goldens.py and CI's
# run through an installed console script all run it.
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


def run_readme_pipeline(directory, run=main) -> None:
    """Write the README pipeline's inputs to ``directory`` and run its commands there.

    ``run`` takes a command's arguments and returns its exit code; the
    default runs ``bsqpt.cli.main`` in this process.
    """
    for name, value in README_INPUTS.items():
        write_json(value, os.path.join(directory, name))
    for command in README_PIPELINE:
        argv = [os.path.join(directory, a) if a.endswith((".json", ".csv")) else a
                for a in command.split()]
        code = run(argv)
        if code != 0:
            raise RuntimeError(f"bsqpt {command} exited {code}")
