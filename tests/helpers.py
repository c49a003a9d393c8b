"""Shared generators for randomized tests, reference solvers, a solver fake and the fit corpus.

All randomness is seeded.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from bsqpt import (
    FilterParams, FitConfig, KrausSet, ProcessMatrix, build_input_set, fit, kraus_pair,
    model_fidelity, reconstruct_process, simulate_counts, transform_process_matrix,
)
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


# The fit corpus, a characterization record of ``bsqpt.fit``: CORPUS_RECORDS
# records, each drawn from its own index alone and fitted at chi 4^j for each
# j in CORPUS_POWERS under each of CORPUS_CONFIGS (the default and the
# benchmark's), hashed CORPUS_CHUNK records (96 fits) at a time.
# tests/test_fit_corpus.py checks it against tests/fit_corpus.json, which
# scripts/regenerate_goldens.py writes. 4^-500 = 2^-1000 leaves the largest
# entries normal and the smallest subnormal or zero; 4^-600 would flush every
# entry of a record of order one to zero.
CORPUS_RECORDS = 256
CORPUS_CHUNK = 16
CORPUS_POWERS = (0, -500, 500)
CORPUS_CONFIGS = (FitConfig(), FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9))
# The noiseless filter records among the first 64, whose fits the table
# records as float.hex; a Poisson record depends on numpy's stream.
CORPUS_TABLE_RECORDS = range(0, 64, 8)
CORPUS_FIELDS = ("T", "R", "theta1", "theta2", "p", "scale", "residual", "fidelity")


def corpus_record(k: int) -> ProcessMatrix:
    """Record ``k`` of the fit corpus: a reconstructed process matrix drawn from ``k`` alone.

    Even ``k`` is a random filter, with R/T log-uniform in [0.1, 6] (partly
    outside the fit's box), the angles uniform and p in [0, 1/2]; odd ``k``
    a random channel (:func:`random_channel`). ``(k // 2) % 4`` picks a
    noiseless record or Poisson counts at 1e2, 1e3 or 1e4, and ``(k // 8) %
    4`` the basis S, B, C or F.
    """
    rng = np.random.default_rng([2026, k])
    if k % 2 == 0:
        ks = kraus_pair(FilterParams.from_ratio(
            float(np.exp(rng.uniform(np.log(0.1), np.log(6.0)))),
            theta1=rng.uniform(-np.pi, np.pi), theta2=rng.uniform(-np.pi, np.pi),
            p=rng.uniform(0.0, 0.5)))
    else:
        ks = random_channel(rng)
    level = (k // 2) % 4
    inputs = build_input_set()
    ct = simulate_counts(ks, inputs, total_scale=(1.0, 1e2, 1e3, 1e4)[level],
                         noise="poisson" if level else None, seed=k)
    return transform_process_matrix(reconstruct_process(ct, inputs), "SBCF"[(k // 8) % 4])


def corpus_fits(k: int) -> list:
    """The fits of record ``k``: ``(result, fidelity)`` per config, then per power, in order."""
    chi = corpus_record(k)
    out = []
    for cfg in CORPUS_CONFIGS:
        for j in CORPUS_POWERS:
            scaled = ProcessMatrix(chi.basis, np.ldexp(chi.m.view(np.float64), 2 * j).view(complex))
            result = fit(scaled, cfg)
            out.append((result, model_fidelity(result.params, scaled)))
    return out


def corpus_digest(chunk: int) -> str:
    """sha256 over each fit's ``repr`` and fidelity (``float.hex``) in a chunk of the corpus."""
    h = hashlib.sha256()
    for k in range(chunk * CORPUS_CHUNK, (chunk + 1) * CORPUS_CHUNK):
        for result, fid in corpus_fits(k):
            h.update(f"{result!r} {fid if fid is None else fid.hex()}\n".encode())
    return h.hexdigest()


def corpus_table() -> list:
    """The fits of ``CORPUS_TABLE_RECORDS``: ``CORPUS_FIELDS`` as ``float.hex``, and the counts."""
    rows = []
    for k in CORPUS_TABLE_RECORDS:
        for result, fid in corpus_fits(k):
            fp = result.params
            values = (fp.T, fp.R, fp.theta1, fp.theta2, fp.p, fp.scale, result.residual, fid)
            rows.append({"record": k, **{f: v.hex() for f, v in zip(CORPUS_FIELDS, values)},
                         "n_evaluations": result.n_evaluations, "converged": result.converged,
                         "best_start": result.best_start})
    return rows


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity of two Hermitian PSD matrices after trace normalization.

    A dense reference for ``bsqpt.model_fidelity``. Both inputs are divided
    by their traces first, so sub-normalized states compare on shape alone.
    Raises ``ValueError`` if either trace is not positive.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ta = float(np.trace(a).real)
    tb = float(np.trace(b).real)
    if ta <= 0.0 or tb <= 0.0:
        raise ValueError("fidelity requires inputs with positive trace")
    sa = _psd_sqrt(a / ta)
    m = sa @ (b / tb) @ sa
    m = 0.5 * (m + m.conj().T)
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    f = float(np.sum(np.sqrt(w)) ** 2)
    return float(np.clip(f, 0.0, 1.0))


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
    from bsqpt import fitting

    real, real_polish = fitting._grid_starts, fitting.polish

    def starts(*args):
        calls = []

        def polish(parts, theta1, theta2, *rest):
            calls.append((theta1, theta2))
            if len(calls) == 1:
                return (*real_polish(parts, theta1, theta2, *rest)[:4], False, 1)
            value, x = fitting.profile(parts, theta1, theta2)[:2]
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

    A dense reference for the angle profile of ``bsqpt.fitting``: ``target``
    is the block's real and imaginary parts, interleaved, and ``x`` weighs
    the columns of :func:`term_design`, in the box ``X = [[x1, x3], [x3,
    x2]] >= 0`` with ``x2 / x1`` between the squares of ``bounds``. A convex
    problem's optimum is the optimum of one of its faces, so this takes the
    best of: the unconstrained ``lstsq`` solve where it lies in the box
    (``"inside"``), each ratio face ``x2 = c x1`` as a two-column ``lstsq``
    where its solution does (``"ratio face"``), and the rank-one boundary
    ``X = u y y^T`` with ``y = (cos phi, sin phi)`` between the faces,
    searched over ``phi`` on a dense grid and refined by golden section
    (``"rank one"``, or ``"corner"`` at a face).
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

    A reference for the fit's start list: the profile's cost (``bsqpt.fitting``,
    checked against :func:`box_least_squares` on its own) at each grid
    point, and Nelder-Mead from each local minimum on the torus, on the
    matrix at the fit's unit magnitude and scaled back.
    """
    import pytest

    minimize = pytest.importorskip("scipy.optimize").minimize
    from bsqpt.fitting import _profile_maps, _unit_inputs, grid, profile

    _, e, target, floor = _unit_inputs(chi)
    norm = floor + target @ target
    parts = grid(_profile_maps(), target)[1]

    def cost(theta):
        return norm - profile(parts, *theta)[0]

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
