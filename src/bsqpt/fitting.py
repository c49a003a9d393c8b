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
The operators touch only six standard-basis coefficients, so ``chi_1``, its
residual (72 reals) and its Jacobian (72x4) live on a 6x6 block of the
matrix; the residual off the block is a constant that the cost adds. All
starts descend in lockstep: each iteration evaluates every running start
in one stacked call, and each start's step is one 4x4 linear solve, in
numpy alone. The solver builds the model once per point and hands the
model of the point it accepted to the Jacobian. The first starts are
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

from .bases import STANDARD, build_basis
from .bsfilter import P_RANGE, FilterParams, filter_operators, kraus_pair, u3
from .channel import ProcessMatrix, choi_from_kraus, to_coeff_vector, transform_process_matrix
from .linalg import SWAP, dagger, project_to_psd

# The filter operators P-/+ = t I -/+ r U3 SWAP, with U3 diagonal, have
# non-zero standard-basis coefficients only where I or SWAP has one: at
# |0><0|, |1><1|, |1><2|, |2><1|, |2><2| and |3><3|, in coefficient order.
# The model chi_1 is zero outside that 6x6 block of chi, so the fit builds
# chi_1, its residual and its Jacobian on the block alone.
_BLOCK = np.flatnonzero(to_coeff_vector(np.eye(4) + SWAP))
_BLOCK_IX = np.ix_(_BLOCK, _BLOCK)
_OFF_BLOCK = np.ones((16, 16), dtype=bool)
_OFF_BLOCK[_BLOCK_IX] = False
# _UNIT[j, k] is the coefficient index of the matrix unit |j><k|.
_UNIT = to_coeff_vector(np.eye(16).reshape(16, 4, 4)).real.argmax(axis=1).reshape(4, 4)
# U3 = diag(u) with u_j = +/- exp(theta1 d_1j + theta2 d_2j) for the fixed
# phase rates d_kj below, so U3 SWAP weighs each coefficient of SWAP by the
# u_j of its row j: on the block, vec(U3 SWAP) = _SWAP_SIGNS
# exp((theta1, theta2) @ _DPHASE), and dU3/dtheta_k = diag(d_k) U3.
_D_THETA = 0.5j * np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
_DPHASE = _D_THETA[:, np.argsort(_UNIT, axis=None)[_BLOCK] // 4]
_SWAP_SIGNS = to_coeff_vector(u3(0.0, 0.0) @ SWAP)[_BLOCK].real
_VEC_I = to_coeff_vector(np.eye(4))[_BLOCK].real
# Signs of the reflected part in (P-, P+), the mixture weights (1-p, p) as
# _W0 + p _W1, and half their derivative in p.
_SIGNS = np.array([[-1.0], [1.0]])
_W0, _W1 = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
_HALF_DW = 0.5 * _W1[:, None]

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
    and gtol of MINPACK); see :func:`_descend`. Every start runs as it would
    alone, whatever the number of starts.
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
    and each Jacobian the solver asked for, plus one residual per start; a
    stacked call counts one per start it evaluates. The fidelity is the
    Uhlmann fidelity of the fitted model and the PSD projection of the
    measured matrix, each normalized to unit trace.
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


def _unit_model(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``t``, the block vectors ``(c-, c+)`` and the block of ``chi_1`` at ``x``.

    ``x`` is ``(p, R/T, theta1, theta2)``; a stack of points of shape
    ``(..., 4)`` gives stacks of shapes ``(..., 1)``, ``(..., 2, 6)`` and
    ``(..., 6, 6)``.
    """
    ratio = x[..., 1:2]
    t = 1.0 / (1.0 + ratio)
    b = (ratio * t * _SWAP_SIGNS) * np.exp(x[..., 2:] @ _DPHASE)
    c = (t * _VEC_I)[..., None, :] + _SIGNS * b[..., None, :]
    chi1 = (c.swapaxes(-1, -2) * (_W0 + x[..., :1] * _W1)[..., None, :]) @ c.conj()
    return t, c, chi1


def _as_real(z: np.ndarray) -> np.ndarray:
    """The 72 real and imaginary parts of each 6x6 block of a C-contiguous stack, interleaved."""
    return z.view(np.float64).reshape(z.shape[:-2] + (72,))


def _profiled_scale(chi1: np.ndarray, target: np.ndarray) -> np.ndarray:
    """The multiplier ``alpha >= 0`` of each ``chi1`` closest to ``target`` in Frobenius norm.

    Both come as :func:`_as_real` views of the 6x6 blocks.
    """
    overlap = np.add.reduce(chi1 * target, axis=-1)
    return np.maximum(overlap, 0.0) / np.add.reduce(chi1 * chi1, axis=-1)


def _residuals(x: np.ndarray, block: np.ndarray, model: tuple | None = None) -> np.ndarray:
    """The 72 real components of ``block - alpha chi_1`` at ``x``, per point of a stack.

    ``block`` is the 6x6 block of the Hermitian standard-basis matrix, and
    ``model`` is ``_unit_model(x)`` when the caller already has it. The
    residual off the block does not depend on ``x``.
    """
    _, _, chi1 = _unit_model(x) if model is None else model
    chi1, target = _as_real(chi1), _as_real(block)
    return target - _profiled_scale(chi1, target)[..., None] * chi1


def _jacobian(x: np.ndarray, block: np.ndarray, model: tuple | None = None) -> np.ndarray:
    """Closed-form ``(..., 72, 4)`` Jacobian of :func:`_residuals`, scale profile included.

    With ``A = P - t I`` the reflected part of each operator,
    ``dP/d(R/T) = A / (R/T) - t P`` and ``dP/dtheta_k = diag(d_k) A``; each
    ``d chi_1 = H + H^+`` with ``H`` the weighted derivative vectors times
    ``c^+``. ``model`` is ``_unit_model(x)`` when the caller already has
    it. The Jacobian is zero at a point whose model has no positive overlap
    with ``block``, where the profiled scale is clamped to zero.
    """
    t, c, chi1 = _unit_model(x) if model is None else model
    t = t[..., None]
    w = (_W0 + x[..., :1] * _W1)[..., :, None]
    chi1, target = _as_real(chi1), _as_real(block)
    s11 = np.add.reduce(chi1 * chi1, axis=-1)[..., None]
    s1m = np.add.reduce(chi1 * target, axis=-1)[..., None]
    alpha = np.maximum(s1m, 0.0) / s11
    a = c - t * _VEC_I
    wa = w * a
    e = np.concatenate([(_HALF_DW * c)[..., None, :, :],
                        (wa / x[..., 1, None, None] - t * (w * c))[..., None, :, :],
                        _DPHASE[:, None, :] * wa[..., None, :, :]], axis=-3)
    h = e.swapaxes(-1, -2) @ c.conj()[..., None, :, :]
    dchi = _as_real(h + h.conj().swapaxes(-1, -2))
    chi1 = chi1[..., None, :]
    dalpha = (np.add.reduce(dchi * (target - 2.0 * alpha[..., None] * chi1), axis=-1) / s11
              * (s1m > 0.0))
    return (dchi * -alpha[..., None] - dalpha[..., None] * chi1).swapaxes(-1, -2)


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
             max_evals: int, floor: float) -> tuple:
    """Bounded Levenberg-Marquardt descent of ``floor + |fun(x)|^2``, all starts in lockstep.

    ``start`` is ``(x0, *fun(x0))`` for a stack ``x0`` of start points, one
    per row. ``fun(x)`` returns the stacked residual vectors at a stack of
    points and the models it built, and ``jac(x, model)`` the stacked
    Jacobians given the models; ``floor`` is the part of the cost that no
    parameter moves. Each start is a lane with its own point, residual,
    cost, damping and free set. A lane's step solves
    ``(J^T J + mu D) dx = -J^T r`` on its free variables, where ``D`` is
    the running maximum of ``diag(J^T J)`` (More's scaling); a variable on a
    bound whose descent direction leaves the box is frozen for that step
    (an identity row and column with a zero right-hand side), and the trial
    point is clipped into the box ``[lo, hi]``. ``mu`` follows Nielsen's gain-ratio
    update (H. B. Nielsen, IMM-REP-1999-05, DTU (1999)). A lane converges
    when a step, accepted or not, is below ``tol`` relative to ``x``, or an
    accepted step lowers the cost by less than ``tol`` of it; both are
    tested after the step is taken, so the last accepted step is kept. It
    also converges when the largest cosine between ``r`` and a free column
    of ``J`` (the projected gradient) is at most ``tol``. A lane stops when
    it converges or its residual evaluations, the start's included, reach
    ``max_evals``, and is evaluated no more. Each iteration makes one
    ``jac`` call for the lanes whose last step was accepted and one ``fun``
    call for the lanes still running, and every lane follows the path it
    would follow alone. Returns ``(x, r, model, converged, evaluations)``
    stacked by lane at each lane's last accepted point; ``evaluations``
    counts each lane's residuals, the start's included, and Jacobians.
    """
    x, r, model = start[0], start[1], list(start[2])
    lanes, n = x.shape
    out = [x.copy(), r.copy(), *(part.copy() for part in model)]
    converged = np.zeros(lanes, dtype=bool)
    evaluations = np.zeros(lanes, dtype=int)
    # The state of the running lanes, compacted when lanes stop; ``lane``
    # maps each back to its row in the stack.
    lane = np.arange(lanes)
    cost = floor + np.add.reduce(r * r, axis=1)
    evals, jacs = np.ones(lanes, dtype=int), np.zeros(lanes, dtype=int)
    mu, nu = np.full(lanes, 1e-3), np.full(lanes, 2.0)
    scale, g = np.zeros((lanes, n)), np.zeros((lanes, n))
    gram = np.zeros((lanes, n, n))
    free = np.zeros((lanes, n), dtype=bool)
    moved, done = np.ones(lanes, dtype=bool), np.zeros(lanes, dtype=bool)
    eye = np.eye(n)
    while True:
        need = moved & ~done
        if need.any():
            sel = slice(None) if need.all() else need
            xs = x[sel]
            jt = jac(xs, tuple(part[sel] for part in model)).swapaxes(1, 2)
            jacs[sel] += 1
            gs = (jt @ r[sel][:, :, None])[:, :, 0]
            grams = jt @ jt.swapaxes(1, 2)
            diag = grams.diagonal(axis1=1, axis2=2)
            scales = np.maximum(scale[sel], diag)
            frees = (scales > 0.0) & ~(((xs <= lo) & (gs > 0.0)) | ((xs >= hi) & (gs < 0.0)))
            small = np.abs(gs) <= tol * np.sqrt(cost[sel, None] * diag)
            g[sel], gram[sel], scale[sel], free[sel] = gs, grams, scales, frees
            done[sel] = np.logical_and.reduce(small | ~frees, axis=1)
        stop = done | (evals >= max_evals)
        if stop.any():
            rows = lane[stop]
            for part, value in zip(out, (x, r, *model)):
                part[rows] = value[stop]
            converged[rows] = done[stop]
            evaluations[rows] = evals[stop] + jacs[stop]
            if stop.all():
                return out[0], out[1], tuple(out[2:]), converged, evaluations
            keep = ~stop
            lane, x, r, cost, mu, nu, scale, g, gram, free, moved, evals, jacs = (
                a[keep] for a in (lane, x, r, cost, mu, nu, scale, g, gram, free, moved, evals,
                                  jacs))
            model = [part[keep] for part in model]
        system = np.where(free[:, :, None] & free[:, None, :],
                          gram + (mu[:, None] * scale)[:, :, None] * eye, eye)
        step = np.linalg.solve(system, np.where(free, -g, 0.0)[:, :, None])[:, :, 0]
        trial = np.minimum(np.maximum(x + step, lo), hi)
        step = trial - x
        r_new, model_new = fun(trial)
        evals += 1
        cost_new = floor + np.add.reduce(r_new * r_new, axis=1)
        drop = cost - cost_new
        predicted = -np.add.reduce(step * (2.0 * g + (gram @ step[:, :, None])[:, :, 0]), axis=1)
        gain = np.divide(drop, predicted, out=np.full(len(x), -1.0), where=predicted > 0.0)
        done = ((np.sqrt(np.add.reduce(step * step, axis=1))
                 <= tol * (tol + np.sqrt(np.add.reduce(x * x, axis=1))))
                | ((gain > 0.25) & (drop <= tol * cost)))
        moved = gain > 0.0
        x = np.where(moved[:, None], trial, x)
        r = np.where(moved[:, None], r_new, r)
        cost = np.where(moved, cost_new, cost)
        model = [np.where(moved.reshape((-1,) + (1,) * (old.ndim - 1)), new, old)
                 for old, new in zip(model, model_new)]
        # Nielsen's factor is 1/3 for every gain >= 1: clamping leaves it, and
        # keeps the cube finite on the lanes that reject their step.
        clamped = np.minimum(np.maximum(gain, 0.0), 1.0)
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * clamped - 1.0) ** 3)
        mu = np.where(moved, mu * shrink, mu * nu)
        nu = np.where(moved, 2.0, 2.0 * nu)


def _factor(fp: FilterParams, basis_kind: str) -> np.ndarray:
    """The ``(16, 2)`` factor ``V`` of the model, ``model_chi(fp, basis_kind) = V V^+``.

    Its columns are the coefficient vectors of the weighted Kraus operators
    ``scale sqrt(1-p) P-`` and ``scale sqrt(p) P+`` in the requested basis.
    """
    ops = filter_operators(fp.T, fp.R, fp.theta1, fp.theta2)
    v = to_coeff_vector(ops).T * (fp.scale * np.sqrt([1.0 - fp.p, fp.p]))
    if basis_kind == STANDARD:
        return v
    return dagger(build_basis(basis_kind).u_matrix) @ v


def _rank2_fidelity(v: np.ndarray, b: np.ndarray) -> float | None:
    """Uhlmann fidelity of ``V V^+`` and a PSD matrix ``b``, both normalized to unit trace.

    ``sqrt(A) B sqrt(A)`` with ``A = V V^+`` has the nonzero eigenvalues of
    the 2x2 matrix ``V^+ B V``, so ``F = (sum sqrt(lambda(V^+ B V)))^2 /
    (Tr V^+ V Tr B)``: no square root of the 16x16 model, whose rounding-level
    eigenvalues would cost ``sqrt(eps)``. ``None`` when a trace is not positive.
    """
    trace_a = float(np.vdot(v, v).real)
    trace_b = float(np.trace(b).real)
    if trace_a <= 0.0 or trace_b <= 0.0:
        return None
    m = dagger(v) @ b @ v
    w = np.clip(np.linalg.eigvalsh(0.5 * (m + dagger(m))), 0.0, None)
    return float(np.clip(np.sum(np.sqrt(w)) ** 2 / (trace_a * trace_b), 0.0, 1.0))


def fit(chi_meas: ProcessMatrix, cfg: FitConfig | None = None) -> FitResult:
    """Fit the filter model to a measured process matrix.

    Runs the bounded Levenberg-Marquardt descent (:func:`_descend`) from
    all ``cfg.multistart`` starting points (see :class:`FitConfig`) in
    lockstep and keeps the lowest residual. Starts that tie on the residual
    are ranked by the norm of their canonicalized angles, norms that agree
    to the same relative 1e-9 counting as equal, and then by start order.
    Deterministic for a given seed. Non-convergence of the reported start is
    signalled by ``converged=False`` on the result, never by an exception.
    """
    if cfg is None:
        cfg = FitConfig()
    chi_std = transform_process_matrix(chi_meas, "S").m
    chi_std = 0.5 * (chi_std + chi_std.conj().T)
    block = chi_std[_BLOCK_IX]
    # Summed directly, not as |chi|^2 - |block|^2, which can round below zero.
    off = chi_std[_OFF_BLOCK].view(np.float64)
    floor = float(off @ off)
    n_evaluations = 0

    def residuals(x: np.ndarray) -> tuple:
        nonlocal n_evaluations
        n_evaluations += len(x)
        model = _unit_model(x)
        return _residuals(x, block, model), model

    def jacobian(x: np.ndarray, model: tuple) -> np.ndarray:
        nonlocal n_evaluations
        n_evaluations += len(x)
        return _jacobian(x, block, model)

    def norms(r: np.ndarray) -> np.ndarray:
        return np.sqrt(floor + np.add.reduce(r * r, axis=1))

    x0 = np.array((_moment_starts(chi_std) + _starts(cfg))[: cfg.multistart])
    start = (x0, *residuals(x0))
    x, r, unit, converged, _ = _descend(residuals, jacobian, start, _LOWER, _UPPER,
                                        cfg.convergence_tol, cfg.max_iterations, floor)
    ends = norms(r)
    alphas = _profiled_scale(_as_real(unit[2]), _as_real(block))
    candidates = [(float(ends[k]), _params(x[k]), bool(converged[k] and alphas[k] > 0.0),
                   float(alphas[k]), k) for k in range(len(x))]

    def lowest(cands: list, key) -> list:
        """The candidates whose key is within a relative 1e-9 of the lowest, in start order."""
        low = min(key(c) for c in cands)
        return [c for c in cands if key(c) <= low + 1e-9 * (1.0 + low)]

    tied = lowest(candidates, lambda c: c[0])
    _, canon, converged, alpha, best_start = lowest(
        tied, lambda c: math.hypot(c[1].theta1, c[1].theta2)
    )[0]
    params = replace(canon, scale=math.sqrt(max(alpha, 1e-300)))
    v = _factor(params, chi_meas.basis)

    return FitResult(
        params=params,
        residual=float(np.linalg.norm(v @ dagger(v) - chi_meas.m)),
        fidelity=_rank2_fidelity(v, project_to_psd(chi_meas.m)),
        n_evaluations=n_evaluations,
        converged=converged,
        start_residuals=norms(start[1]).tolist(),
        best_start=best_start,
    )
