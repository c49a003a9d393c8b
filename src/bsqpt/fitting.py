"""Least-squares estimation of the filter model from a measured process matrix.

The model process matrix is rank at most two, ``chi_1 = (1-p) c- c-_dag +
p c+ c+_dag``, where ``c-/+`` are the standard-basis coefficient vectors of
the unit-scale filter operators ``P-/+ = t I -/+ r U3(theta1, theta2) SWAP``
with ``t + r = 1``. The overall rate factor is profiled out at every
evaluation, as in separable least squares (Golub & Pereyra, SIAM J. Numer.
Anal. 10, 413 (1973)): the best multiplier ``alpha`` of ``chi_1`` against
the measured matrix is a one-line projection, and the reported ``scale`` is
its square root (the Kraus operators carry scale linearly, the process
matrix quadratically). The residual ``chi_meas - alpha chi_1``, split into
real and imaginary parts, is minimized over the four shape parameters
(p, R/T ratio, theta1, theta2) by a bounded Levenberg-Marquardt descent
(Levenberg, Q. Appl. Math. 2, 164 (1944); Marquardt, J. SIAM 11, 431
(1963)) with the scaling of More (Lecture Notes in Math. 630, 105 (1978))
and a closed-form Jacobian: every parameter enters ``c-/+`` elementarily.
With four unknowns each step is one 4x4 linear solve, in numpy alone. The
solver builds the model once per point and hands the model of the point
it accepted to the Jacobian. The first starts are
method-of-moments estimates: six standard-basis entries of the measured
matrix give the four parameters in closed form (:func:`_moment_starts`);
the box midpoint and seeded uniform draws follow. Only p and R/T are
boxed; the angles are periodic, so they are left free and folded by
:func:`canonicalize` afterwards. The objective is the plain Frobenius
distance on the unnormalized matrices, matching how the measured matrices
are compared visually; no statistical weighting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bsfilter import P_RANGE, FilterParams, filter_operators, kraus_pair
from .channel import ProcessMatrix, choi_from_kraus, to_coeff_vector, transform_process_matrix
from .linalg import fidelity as state_fidelity
from .linalg import project_to_psd

_VEC_I = to_coeff_vector(np.eye(4))
# dU3/dtheta_k = diag(d_k) U3 for the fixed phases d_k below. Left
# multiplication by diag(d_k) scales matrix rows, so in coefficient space
# it weighs each coefficient by d_k at the coefficient's row.
_D_THETA = 0.5j * np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
_DPHASE = to_coeff_vector(np.broadcast_to(_D_THETA[:, :, None], (2, 4, 4)))
# _UNIT[j, k] is the coefficient index of the matrix unit |j><k|.
_UNIT = to_coeff_vector(np.eye(16).reshape(16, 4, 4)).real.argmax(axis=1).reshape(4, 4)

# The search box, as closed intervals: p is boxed to its physical range
# ``P_RANGE``, R/T to physically plausible splitters (1:4 through 4:1).
# The angles are periodic, so the search leaves them free; seeded starts
# draw them from ``THETA_START_RANGE``.
RATIO_BOUNDS = (0.25, 4.0)
THETA_START_RANGE = (-math.pi, math.pi)
_LOWER = np.array([P_RANGE[0], RATIO_BOUNDS[0], -math.inf, -math.inf])
_UPPER = np.array([P_RANGE[1], RATIO_BOUNDS[1], math.inf, math.inf])


@dataclass
class FitConfig:
    """Search configuration; the search box is fixed by the module constants.

    ``multistart`` is the number of starts: the two moment estimates of
    :func:`_moment_starts`, the box midpoint, then uniform draws seeded by
    ``seed``, in that order and cut to this number. ``max_iterations``
    caps the residual evaluations of each start's descent, the start's own
    included, and ``convergence_tol`` is the descent's relative tolerance on
    the cost decrease, the step and the projected gradient (the ftol, xtol
    and gtol of MINPACK); see :func:`_descend`.
    The scale parameter has no bounds because it is profiled analytically
    and is nonnegative by construction.
    """

    multistart: int = 16
    max_iterations: int = 2000
    convergence_tol: float = 1e-14
    seed: int = 0


@dataclass
class FitResult:
    """Outcome of :func:`fit`.

    ``n_evaluations`` counts every model evaluation: each residual vector
    and each Jacobian the solver asked for, plus one residual per start.
    ``converged`` is the solver status of the start whose point is
    reported, and it is ``False`` as well when the model at that point has
    no positive overlap with the measured matrix (the profiled scale is
    zero, so the fit explains none of it). ``fidelity`` is ``None`` when
    it cannot be computed (a matrix without positive trace after the PSD
    projection). ``start_residuals`` holds the residual norm at each start
    point, and ``best_start`` the index of the reported start, both in the
    start order of :class:`FitConfig`.
    """

    params: FilterParams
    residual: float
    fidelity: float | None
    n_evaluations: int
    converged: bool
    start_residuals: list[float] = field(default_factory=list)
    best_start: int = 0


def model_chi(fp: FilterParams, basis_kind: str = "S") -> ProcessMatrix:
    """Process matrix of the filter model in the requested basis (rank <= 2)."""
    chi = choi_from_kraus(kraus_pair(fp))
    if basis_kind == "S":
        return chi
    return transform_process_matrix(chi, basis_kind)


def _unit_model(x: np.ndarray) -> tuple[float, np.ndarray, np.ndarray]:
    """``t``, the vectors ``(c-, c+)`` and ``chi_1`` at ``x = (p, R/T, theta1, theta2)``."""
    p, ratio, theta1, theta2 = x
    t = 1.0 / (1.0 + ratio)
    c = to_coeff_vector(filter_operators(t, ratio * t, theta1, theta2))
    chi1 = (c.T * np.array([1.0 - p, p])) @ c.conj()
    return t, c, chi1


def _profiled_scale(chi1: np.ndarray, chi_std: np.ndarray) -> float:
    """The multiplier ``alpha >= 0`` of ``chi1`` closest to ``chi_std`` in Frobenius norm."""
    return max(float(np.vdot(chi1, chi_std).real), 0.0) / float(np.vdot(chi1, chi1).real)


def _as_real(z: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of a complex array, interleaved along its last axis."""
    return np.ascontiguousarray(z).view(np.float64)


def _residuals(x: np.ndarray, chi_std: np.ndarray, model: tuple | None = None) -> np.ndarray:
    """The 512 real components of ``chi_std - alpha chi_1`` at ``x``.

    ``model`` is ``_unit_model(x)`` when the caller already has it.
    """
    _, _, chi1 = _unit_model(x) if model is None else model
    return _as_real(chi_std - _profiled_scale(chi1, chi_std) * chi1).ravel()


def _jacobian(x: np.ndarray, chi_std: np.ndarray, model: tuple | None = None) -> np.ndarray:
    """Closed-form ``(512, 4)`` Jacobian of :func:`_residuals`, scale profile included.

    With ``A = P - t I`` the reflected part of each operator,
    ``dP/d(R/T) = A / (R/T) - t P`` and ``dP/dtheta_k = diag(d_k) A``.
    ``model`` is ``_unit_model(x)`` when the caller already has it.
    """
    p, ratio = x[0], x[1]
    t, c, chi1 = _unit_model(x) if model is None else model
    s11 = float(np.vdot(chi1, chi1).real)
    s1m = float(np.vdot(chi1, chi_std).real)
    if s1m <= 0.0:
        return np.zeros((512, 4))
    alpha = s1m / s11
    a = c - t * _VEC_I
    dc = np.stack([a / ratio - t * c, _DPHASE[0] * a, _DPHASE[1] * a])
    half = (dc.swapaxes(1, 2) * np.array([1.0 - p, p])) @ c.conj()
    dchi = np.empty((4, 16, 16), dtype=complex)
    dchi[0] = np.outer(c[1], c[1].conj()) - np.outer(c[0], c[0].conj())
    dchi[1:] = half + half.conj().swapaxes(1, 2)
    flat = dchi.reshape(4, 256).conj()
    dalpha = ((flat @ chi_std.ravel()).real - 2.0 * alpha * (flat @ chi1.ravel()).real) / s11
    return _as_real(-(alpha * dchi + dalpha[:, None, None] * chi1)).reshape(4, 512).T


def residual(fp: FilterParams, chi_meas: ProcessMatrix) -> float:
    """Frobenius distance between the model at ``fp`` and a measured matrix."""
    model = model_chi(fp, chi_meas.basis)
    return float(np.linalg.norm(model.m - chi_meas.m))


def canonicalize(fp: FilterParams) -> FilterParams:
    """Reduce equivalent parameter choices to a canonical representative.

    Shifting both angles by 2 pi together leaves the channel unchanged;
    shifting one angle by 2 pi swaps the two filter operators, which the
    mixture absorbs as p -> 1 - p. Angles are folded into [-pi, pi] and p
    kept in [0, 1/2] whenever those moves allow it.
    """

    def fold(theta: float) -> tuple[float, int]:
        shifts = round(theta / (2.0 * math.pi))
        return theta - 2.0 * math.pi * shifts, shifts

    t1, n1 = fold(fp.theta1)
    t2, n2 = fold(fp.theta2)
    p_lo, p_hi = P_RANGE
    p = fp.p
    if (n1 + n2) % 2 == 1:
        if 1.0 - p <= p_hi + 1e-12:
            p = 1.0 - p
        elif n1 != 0:
            # Flipping p would leave [0, 1/2]; undo one angle fold instead.
            t1 += 2.0 * math.pi * (1 if n1 > 0 else -1)
        else:
            t2 += 2.0 * math.pi * (1 if n2 > 0 else -1)
    p = float(min(max(p, p_lo), p_hi))
    return FilterParams(T=fp.T, R=fp.R, theta1=t1, theta2=t2, p=p, scale=fp.scale)


def _starts(cfg: FitConfig) -> list[np.ndarray]:
    """Deterministic start points: the box midpoint plus seeded uniform draws."""
    rng = np.random.default_rng(cfg.seed)
    lo_r, hi_r = RATIO_BOUNDS
    mid = np.array([0.5 * sum(P_RANGE), math.sqrt(lo_r * hi_r), 0.0, 0.0])
    starts = [mid]
    for _ in range(max(0, cfg.multistart - 1)):
        p = rng.uniform(*P_RANGE)
        ratio = math.exp(rng.uniform(math.log(lo_r), math.log(hi_r)))
        th1 = rng.uniform(*THETA_START_RANGE)
        th2 = rng.uniform(*THETA_START_RANGE)
        starts.append(np.array([p, ratio, th1, th2]))
    return starts


def _moment_starts(chi_std: np.ndarray) -> list[np.ndarray]:
    """Closed-form estimates of ``(p, R/T, theta1, theta2)`` from six entries of ``chi_std``.

    With ``a = t vec(I)``, ``b = r vec(U3 SWAP)`` and ``q = 1 - 2p`` the
    model is ``alpha (a a^+ + b b^+ - q (a b^+ + b a^+))``, so, writing
    ``|j><k|`` for the coefficient index of that matrix unit:

    * the ``|1><1|`` and ``|2><2|`` diagonals are ``alpha t^2``, the
      ``|1><2|`` and ``|2><1|`` diagonals ``alpha r^2``, which give R/T and,
      as ``t + r = 1``, ``alpha``;
    * ``chi[|1><2|, |1><1|] = q alpha r t e^{i s}`` with
      ``s = (theta1 + theta2)/2``, averaged with
      ``conj(chi[|2><1|, |2><2|])``, gives q and s;
    * ``chi[|0><0|, |3><3|] / alpha = t^2 - 2 q t r u + r^2 u^2`` with
      ``u = e^{i d}``, ``d = (theta1 - theta2)/2``, is a quadratic in
      ``r u`` whose two roots both give a start, the one whose ``|u|`` is
      nearer 1 first.

    R/T is clamped into ``RATIO_BOUNDS`` and q into [0, 1]. With s and d
    taken in (-pi, pi], both angles lie in ``THETA_START_RANGE`` whenever
    the channel allows it; otherwise one lies outside by at most pi, as
    folding it alone would swap the two filter operators (see
    :func:`canonicalize`). Every start is finite for any finite ``chi_std``.
    """
    e = _UNIT
    diag = chi_std.diagonal().real
    tt = max(0.5 * (diag[e[1, 1]] + diag[e[2, 2]]), 0.0)
    rr = max(0.5 * (diag[e[1, 2]] + diag[e[2, 1]]), 0.0)
    ratio = math.sqrt(rr / tt) if tt > 0.0 else math.inf
    ratio = min(max(ratio, RATIO_BOUNDS[0]), RATIO_BOUNDS[1])
    t = 1.0 / (1.0 + ratio)
    r = ratio * t
    alpha = (math.sqrt(tt) + math.sqrt(rr)) ** 2
    cross = 0.5 * (chi_std[e[1, 2], e[1, 1]] + np.conj(chi_std[e[2, 1], e[2, 2]]))
    q = min(abs(cross) / (alpha * r * t), 1.0) if alpha > 0.0 else 0.0
    s = float(np.angle(cross))
    corner = chi_std[e[0, 0], e[3, 3]]
    # w = alpha r u solves w^2 - 2 m w + alpha (alpha t^2 - corner) = 0 with
    # m = |cross| / r = q alpha t; |u| near 1 is |w| near alpha r.
    m = abs(cross) / r
    root = np.sqrt(complex(m * m - alpha * (alpha * t * t - corner)))
    ws = sorted((m + root, m - root), key=lambda w: abs(abs(w) - alpha * r))
    ds = [float(np.angle(w)) for w in ws]
    return [np.array([0.5 * (1.0 - q), ratio, s + d, s - d]) for d in ds]


def _params(x: np.ndarray) -> FilterParams:
    """Canonical unit-scale parameters of a solver point ``(p, R/T, theta1, theta2)``.

    The solver keeps its points inside the search box, so p needs no clamp.
    """
    p, ratio, theta1, theta2 = (float(v) for v in x)
    return canonicalize(
        FilterParams(
            T=1.0 / (1.0 + ratio),
            R=ratio / (1.0 + ratio),
            theta1=theta1,
            theta2=theta2,
            p=p,
        )
    )


def _descend(fun, jac, start: tuple, lo: np.ndarray, hi: np.ndarray, tol: float,
             max_evals: int) -> tuple:
    """Bounded Levenberg-Marquardt descent of ``|fun(x)|^2`` inside the box ``[lo, hi]``.

    ``fun(x)`` returns the residual vector and the model it built, and
    ``jac(x, model)`` the Jacobian at a point given its model; ``start`` is
    ``(x0, *fun(x0))``. Each step solves ``(J^T J + mu D) dx = -J^T r`` on the
    free variables, where ``D`` is the running maximum of ``diag(J^T J)``
    (More's scaling); a variable on a bound whose descent direction leaves
    the box is frozen for that step, and the trial point is clipped into the
    box. ``mu`` follows Nielsen's gain-ratio
    update (H. B. Nielsen, IMM-REP-1999-05, DTU (1999)). The descent
    converges when a step, accepted or not, is below ``tol`` relative to
    ``x``, or an accepted step lowers the cost by less than ``tol`` of it;
    both are tested after the step is taken, so the last accepted step is
    kept. It also converges when the largest cosine between ``r`` and a free
    column of ``J`` (the projected gradient) is at most ``tol``. ``max_evals``
    caps the residual evaluations, the start's included. Returns ``(x, r,
    model, converged)`` at the last accepted point.
    """
    x, r, model = start
    cost = float(r @ r)
    evals, mu, nu = 1, 1e-3, 2.0
    scale = np.zeros_like(x)
    moved = True
    while True:
        if moved:
            jacobian = jac(x, model)
            g = jacobian.T @ r
            gram = jacobian.T @ jacobian
            scale = np.maximum(scale, gram.diagonal())
            free = (scale > 0.0) & ~(((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0)))
            if np.all(np.abs(g[free]) <= tol * np.sqrt(cost * gram.diagonal()[free])):
                return x, r, model, True
        if evals >= max_evals:
            return x, r, model, False
        step = np.zeros_like(x)
        sub = np.ix_(free, free)
        step[free] = np.linalg.solve(gram[sub] + mu * np.diag(scale[free]), -g[free])
        trial = np.clip(x + step, lo, hi)
        step = trial - x
        r_new, model_new = fun(trial)
        evals += 1
        cost_new = float(r_new @ r_new)
        predicted = -(2.0 * g @ step + step @ gram @ step)
        gain = (cost - cost_new) / predicted if predicted > 0.0 else -1.0
        done = (np.linalg.norm(step) <= tol * (tol + np.linalg.norm(x))
                or (gain > 0.25 and cost - cost_new <= tol * cost))
        moved = gain > 0.0
        if moved:
            x, r, model, cost = trial, r_new, model_new, cost_new
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if done:
            return x, r, model, True


def fit(chi_meas: ProcessMatrix, cfg: FitConfig | None = None) -> FitResult:
    """Fit the filter model to a measured process matrix.

    Runs one bounded Levenberg-Marquardt descent (:func:`_descend`) from
    each of ``cfg.multistart`` starting points (see :class:`FitConfig`) and
    keeps the lowest residual. Starts that tie on the residual are ranked
    by the norm of their canonicalized angles, norms that agree to the same
    relative 1e-9 counting as equal, and then by start order. Deterministic
    for a given seed. Non-convergence of the reported start is signalled by
    ``converged=False`` on the result, never by an exception.
    """
    if cfg is None:
        cfg = FitConfig()
    chi_std = transform_process_matrix(chi_meas, "S").m
    chi_std = 0.5 * (chi_std + chi_std.conj().T)
    n_evaluations = 0

    def residuals(x: np.ndarray) -> tuple:
        nonlocal n_evaluations
        n_evaluations += 1
        model = _unit_model(x)
        return _residuals(x, chi_std, model), model

    def jacobian(x: np.ndarray, model: tuple) -> np.ndarray:
        nonlocal n_evaluations
        n_evaluations += 1
        return _jacobian(x, chi_std, model)

    candidates = []
    start_residuals = []
    for index, x0 in enumerate((_moment_starts(chi_std) + _starts(cfg))[: cfg.multistart]):
        start = (x0, *residuals(x0))
        start_residuals.append(float(np.linalg.norm(start[1])))
        x, r, unit, converged = _descend(
            residuals, jacobian, start, _LOWER, _UPPER, cfg.convergence_tol, cfg.max_iterations
        )
        alpha = _profiled_scale(unit[2], chi_std)
        candidates.append((float(np.linalg.norm(r)), _params(x), converged and alpha > 0.0,
                           alpha, index))

    def lowest(cands: list, key) -> list:
        """The candidates whose key is within a relative 1e-9 of the lowest, in start order."""
        low = min(key(c) for c in cands)
        return [c for c in cands if key(c) <= low + 1e-9 * (1.0 + low)]

    tied = lowest(candidates, lambda c: c[0])
    _, canon, converged, alpha, best_start = lowest(
        tied, lambda c: math.hypot(c[1].theta1, c[1].theta2)
    )[0]
    params = replace(canon, scale=math.sqrt(max(alpha, 1e-300)))

    model = model_chi(params, chi_meas.basis)
    try:
        fid = state_fidelity(project_to_psd(model.m), project_to_psd(chi_meas.m))
    except ValueError:
        fid = None

    return FitResult(
        params=params,
        residual=float(np.linalg.norm(model.m - chi_meas.m)),
        fidelity=fid,
        n_evaluations=n_evaluations,
        converged=converged,
        start_residuals=start_residuals,
        best_start=best_start,
    )
