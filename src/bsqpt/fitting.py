"""Least-squares estimation of the filter model from a measured process matrix.

The model process matrix is rank at most two, ``chi_1 = (1-p) c- c-_dag +
p c+ c+_dag``, where ``c-/+`` are the standard-basis coefficient vectors of
the unit-scale filter operators ``P-/+ = t I -/+ r U3(theta1, theta2) SWAP``
with ``t + r = 1``. The rate factor is profiled out at every evaluation, as
in separable least squares (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413
(1973)): the best multiplier ``alpha`` of ``chi_1`` is a one-line
projection, and the reported ``scale`` is its square root. The residual
``chi_meas - alpha chi_1`` is minimized over (p, R/T ratio, theta1, theta2)
by a bounded Levenberg-Marquardt descent (Levenberg, Q. Appl. Math. 2, 164
(1944); Marquardt, J. SIAM 11, 431 (1963)) with More's scaling (Lecture
Notes in Math. 630, 105 (1978)) and a closed-form Jacobian. The operators
touch six standard-basis coefficients, so ``chi_1``, its residual (72
reals) and Jacobian (72x4) live on a 6x6 block; the cost off the block is
a constant. Each start descends as its own lane, stepping in Python floats
around one call of the stacked kernel :func:`_evaluate` per iteration for
all running lanes. The starts are the lowest grid minima of the angle
profile, the cost left by the model's three linear coefficients at fixed
angles, each polished by Newton's method (:func:`_grid_starts`,
:mod:`bsqpt.varpro`). The profile leaves the coefficients unconstrained, so
its lowest polished value bounds every lane's end cost from below; once a
lane ends converged at that bound, the lanes still running are dropped.
Only p and R/T are boxed, p to [0, 1], whose halves mirror each other
(:func:`_params`); the angles are left free and folded by
:func:`canonicalize`. The objective is the plain Frobenius distance on the
unnormalized matrices, with no statistical weighting, computed at one
magnitude (a power of two; see :func:`fit`).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from .bases import STANDARD, build_basis, to_coeff_vector
from .bsfilter import P_RANGE, FilterParams, filter_operators, u3
from .channel import ProcessMatrix, transform_process_matrix
from .linalg import SWAP, dagger, project_to_psd
from .varpro import grid, maps, polish

# The filter operators P-/+ = t I -/+ r U3 SWAP, with U3 diagonal, have
# non-zero standard-basis coefficients only where I or SWAP has one: at
# |0><0|, |1><1|, |1><2|, |2><1|, |2><2| and |3><3|, in coefficient order.
# The model chi_1 is zero outside that 6x6 block of chi, so the fit builds
# chi_1, its residual and its Jacobian on the block alone.
_BLOCK = np.flatnonzero(to_coeff_vector(np.eye(4) + SWAP))
_BLOCK_IX = np.ix_(_BLOCK, _BLOCK)
_OFF_BLOCK = np.ones((16, 16), dtype=bool)
_OFF_BLOCK[_BLOCK_IX] = False
# U3 = diag(u) with u_j = +/- exp(i (theta1 d_1j + theta2 d_2j)) for the
# fixed phase rates d_kj below, so U3 SWAP weighs each coefficient of SWAP by
# the u_j of its row j (the coefficients of the matrix of row indices): on the
# block, vec(U3 SWAP) = _SWAP_SIGNS exp(i (theta1, theta2) @ _RATES), and
# dU3/dtheta_k = i diag(d_k) U3.
_D_THETA = 0.5 * np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
_RATES = _D_THETA[:, to_coeff_vector(np.outer(range(4), np.ones(4)))[_BLOCK].real.astype(int)]
_DPHASE = 1j * _RATES[:, None, :]
_SWAP_SIGNS = to_coeff_vector(u3(0.0, 0.0) @ SWAP)[_BLOCK].real
_VEC_I = to_coeff_vector(np.eye(4))[_BLOCK].real
# Signs of the reflected part in (P-, P+), the mixture weights (1-p, p) as
# _W0 + p _W1, and half their derivative in p.
_SIGNS = np.array([[-1.0], [1.0]])
_W0, _W1 = np.array([1.0, 0.0]), np.array([-1.0, 1.0])
_HALF_DW = 0.5 * _W1[:, None]

# The search box, as closed intervals: R/T is boxed to physically plausible
# splitters (1:4 through 4:1), p to [0, 1], which holds its physical range
# ``P_RANGE`` and that range's mirror image (see :func:`_params`). The angles
# are periodic, so the search leaves them free.
RATIO_BOUNDS = (0.25, 4.0)
_LOWER = np.array([0.0, RATIO_BOUNDS[0], -math.inf, -math.inf])
_UPPER = np.array([1.0, RATIO_BOUNDS[1], math.inf, math.inf])


@dataclass
class FitConfig:
    """Search configuration; the search box and the start grid are fixed by the module constants.

    ``multistart`` caps the number of starts, the lowest minima of the angle
    grid of :func:`_grid_starts`. ``max_iterations`` caps the residual
    evaluations of each start's descent, the start's own included, and
    ``convergence_tol`` is its relative tolerance on the cost decrease, the
    step and the projected gradient (MINPACK's ftol, xtol and gtol); see
    :func:`_descend`. Every start runs as it would alone until one converges
    at the profile's lower bound on the cost, which drops the rest. Values
    below 1 raise ``ValueError``. ``seed`` is accepted and has no effect:
    the fit draws nothing at random. The scale is profiled analytically and
    is nonnegative by construction, so it has no bounds.
    """

    multistart: int = 16
    max_iterations: int = 2000
    convergence_tol: float = 1e-14
    seed: int = 0

    def __post_init__(self) -> None:
        for name, option in (("multistart", "--multistart"), ("max_iterations", "--max-iter")):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} ({option}) must be at least 1, got {getattr(self, name)}")


@dataclass
class FitResult:
    """Outcome of :func:`fit`.

    ``n_evaluations`` counts every model evaluation made, dropped lanes'
    included: the residual at each start and trial point, and each Jacobian
    the solver used, one per start and one per accepted step after which
    the start had not converged (see :func:`_descend`). The fidelity is the
    Uhlmann fidelity of the fitted model and the PSD projection of the
    measured matrix, each normalized to unit trace, and ``None`` when that
    projection has no positive trace. ``converged`` is the solver status of
    the reported start, ``False`` as well when the model there has no
    positive overlap with the measured matrix (the profiled scale is zero).
    ``start_residuals`` holds the residual norm at each polished start
    point (:func:`_grid_starts`), dropped lanes' included, and
    ``best_start`` the index of the reported start, a lane that ran to its
    end, both in the start order of :class:`FitConfig`.
    """

    params: FilterParams
    residual: float
    fidelity: float | None
    n_evaluations: int
    converged: bool
    start_residuals: list[float] = field(default_factory=list)
    best_start: int = 0


def model_chi(fp: FilterParams, basis_kind: str = "S") -> ProcessMatrix:
    """Process matrix ``V V^+`` of the filter model in the requested basis (rank <= 2)."""
    v = _factor(fp, basis_kind)
    return ProcessMatrix(basis_kind, v @ dagger(v))


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


def _as_real(z: np.ndarray) -> np.ndarray:
    """The 72 real and imaginary parts of each 6x6 block of a C-contiguous stack, interleaved."""
    return z.view(np.float64).reshape(z.shape[:-2] + (72,))


# For fixed angles, with a = vec(I) and b = vec(U3 SWAP) on the block,
# alpha chi_1 = x1 a a^+ + x2 b b^+ + x3 (a b^+ + b a^+) is linear in
# x = alpha (t^2, r^2, (2p - 1) t r); adding 2 pi to an angle flips b, so
# only x3's sign, and the best unconstrained x and its residual have period
# 2 pi. The grid's 16 x 16 angle pairs span [-pi, pi)^2 row by row, and
# _NEIGHBOURS[:, g] are g's eight neighbours on the torus (g last, where
# numpy reduces fastest).
_AXIS = np.linspace(-math.pi, math.pi, 16, endpoint=False)
_GRID = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"), axis=-1).reshape(-1, 2)
_NEIGHBOURS = np.stack([np.roll(np.arange(256).reshape(16, 16), (i, j), axis=(0, 1)).ravel()
                        for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])


@lru_cache(maxsize=None)
def _profile_maps() -> tuple:
    """The angle profile's maps (:func:`bsqpt.varpro.maps`); built on the first fit."""
    return maps(_RATES, _SWAP_SIGNS, _VEC_I, _GRID)


def _kernel_inputs(chi_std: np.ndarray) -> tuple[np.ndarray, float]:
    """The block ``target`` and off-block cost ``floor`` of a Hermitian S matrix for the kernel."""
    # Summed directly, not as |chi|^2 - |block|^2, which can round below zero.
    off = chi_std[_OFF_BLOCK].view(np.float64)
    return _as_real(chi_std[_BLOCK_IX]), float(off @ off)


def _evaluate(x: np.ndarray, target: np.ndarray, floor: float) -> tuple:
    """The residual, cost, normal equations and scale at each point of a stack ``x``.

    ``x`` is a ``(k, 4)`` stack of points ``(p, R/T, theta1, theta2)`` and
    ``target`` the :func:`_as_real` view of the 6x6 block of the Hermitian
    standard-basis matrix; ``floor`` is the cost off the block, which no
    parameter moves. Returns, stacked by point, the 72 real components of
    the residual ``r = block - alpha chi_1``, the cost ``floor + |r|^2``,
    ``J^T r``, ``J^T J``, the profiled scale ``alpha`` and the transposed
    Jacobian ``J^T`` of shape ``(k, 4, 72)``. ``alpha >= 0`` is the multiplier
    of ``chi_1`` closest to the block in Frobenius norm. With ``A = P - t I``
    the reflected part of each operator, ``dP/d(R/T) = A / (R/T) - t P`` and
    ``dP/dtheta_k = diag(d_k) A``; each ``d chi_1 = H + H^+`` with ``H`` the
    weighted derivative vectors times ``c^+``, and the scale profile enters
    through ``d alpha``. ``J`` is zero at a point whose model has no positive
    overlap with the block, where ``alpha`` is clamped to zero. Every
    reduction runs per point, so each point's values do not depend on the
    rest of the stack.
    """
    ratio = x[:, 1:2]
    t = 1.0 / (1.0 + ratio)
    b = (ratio * t * _SWAP_SIGNS) * np.exp(1j * (x[:, 2:] @ _RATES))
    c = (t * _VEC_I)[:, None, :] + _SIGNS * b[:, None, :]
    c_conj = c.conj()
    w = (_W0 + x[:, :1] * _W1)[:, :, None]
    wc = w * c
    chi1 = _as_real(wc.swapaxes(1, 2) @ c_conj)
    s11 = np.add.reduce(chi1 * chi1, axis=1)[:, None]
    s1m = np.add.reduce(chi1 * target, axis=1)[:, None]
    alpha = np.maximum(s1m, 0.0) / s11
    r = target - alpha * chi1
    t = t[:, :, None]
    wa = w * (c - t * _VEC_I)
    e = np.concatenate([(_HALF_DW * c)[:, None], (wa / ratio[:, :, None] - t * wc)[:, None],
                        _DPHASE * wa[:, None]], axis=1)
    h = e.swapaxes(2, 3) @ c_conj[:, None]
    dchi = _as_real(h + h.conj().swapaxes(2, 3))
    chi1, alpha = chi1[:, None], alpha[:, :, None]
    dalpha = (np.add.reduce(dchi * (target - 2.0 * alpha * chi1), axis=2) / s11
              * (s1m > 0.0))
    jt = dchi * -alpha - dalpha[:, :, None] * chi1
    return (r, floor + np.add.reduce(r * r, axis=1), (jt @ r[:, :, None])[:, :, 0],
            jt @ jt.swapaxes(1, 2), alpha[:, 0, 0], jt)


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
    p_hi = P_RANGE[1]
    p = fp.p
    if (n1 + n2) % 2 == 1:
        if 1.0 - p <= p_hi + 1e-12:
            p = 1.0 - p
        elif n1 != 0:
            # Flipping p would leave [0, 1/2]; undo one angle fold instead.
            t1 += 2.0 * math.pi * (1 if n1 > 0 else -1)
        else:
            t2 += 2.0 * math.pi * (1 if n2 > 0 else -1)
    return FilterParams(T=fp.T, R=fp.R, theta1=t1, theta2=t2, p=p, scale=fp.scale)


def _tied(value, low):
    """Whether ``value`` is at most ``low``, up to the relative 1e-9 within which values tie."""
    return value <= low + 1e-9 * (1.0 + low)


def _grid_starts(target: np.ndarray, floor: float, n: int) -> tuple[np.ndarray, float]:
    """Up to ``n`` start points ``(p, R/T, theta1, theta2)`` from the angle grid, lowest first.

    ``target`` and ``floor`` are :func:`_evaluate`'s. The angle profile is the
    cost left at fixed angles by the best unconstrained coefficients
    ``x = G^-1 v`` of the three model terms (:mod:`bsqpt.varpro`). Its minima
    on the grid, no higher than their eight neighbours on the torus, are
    taken lowest first, values that :func:`_tied` counts as equal in grid
    order. Each is polished (:func:`bsqpt.varpro.polish`), and its ``x`` maps to
    ``R/T = sqrt(x2 / x1)`` and ``p = (1 + x3 / sqrt(x1 x2)) / 2``, clipped
    into the box: a coefficient below zero counts as zero, p is 1/2 where
    ``x1 x2`` is, and every start is finite. Also returns ``floor +
    |target|^2 - max P``, the lowest profile cost of the polished starts,
    below which no lane ends, as far as the grid resolves the profile.
    """
    # Far from the fit's unit magnitude, target is scaled by a power of two so
    # that products of its entries neither underflow nor overflow.
    e = int(np.frexp(np.max(np.abs(target)))[1])
    e *= abs(e) > 256
    target, floor = np.ldexp(target, -e), math.ldexp(floor, -2 * e)
    value, parts = grid(_profile_maps(), target)
    norm = floor + target @ target
    cost = norm - value
    minima = np.flatnonzero(_tied(cost, np.minimum.reduce(cost[_NEIGHBOURS])))
    left, starts, top = cost[minima], [], -math.inf
    lo, hi = RATIO_BOUNDS
    while len(starts) < min(n, len(minima)):
        k = int(np.flatnonzero(_tied(left, left.min()))[0])
        left[k], g = math.inf, minima[k]
        theta1, theta2, (x1, x2, x3), top_k = polish(parts, *_GRID[g].tolist())
        top = max(top, top_k)
        t, r = math.sqrt(max(x1, 0.0)), math.sqrt(max(x2, 0.0))
        q = min(max(x3, -t * r), t * r) / (t * r) if t * r > 0.0 else 0.0
        starts.append((0.5 * (1.0 + q), max(r / t, lo) if hi * t > r else hi, theta1, theta2))
    return np.array(starts), math.ldexp(norm - top, 2 * e)


def _params(x: np.ndarray) -> FilterParams:
    """Canonical unit-scale parameters of a solver point ``(p, R/T, theta1, theta2)``.

    The solver's p > 1/2 is the channel at ``1 - p`` with theta1 moved 2 pi
    toward zero, which swaps the filter operators (see :func:`canonicalize`).
    """
    p, ratio, theta1, theta2 = (float(v) for v in x)
    if p > 0.5:
        p, theta1 = 1.0 - p, theta1 - math.copysign(2.0 * math.pi, theta1)
    return canonicalize(FilterParams.from_ratio(ratio, theta1, theta2, p))


def _descend(fun, start: tuple, lo: np.ndarray, hi: np.ndarray, tol: float,
             max_evals: int, bound: float) -> tuple:
    """Bounded Levenberg-Marquardt descent of the cost of ``fun``, one lane per start.

    ``fun(x)`` returns :func:`_evaluate`'s values, stacked by point, at a
    stack of points, and ``start`` is ``(x0, *fun(x0))`` for a stack ``x0``
    of start points. Each start is a lane (:func:`_lane`) with its own
    point, residual, cost, normal equations, damping and free set, which
    steps in Python floats: it solves ``(J^T J + mu D) dx = -J^T r`` on its
    free variables (:func:`_damped_step`), ``D`` the running maximum of
    ``diag(J^T J)`` (More's scaling), freezes for the step a variable on a
    bound whose descent direction leaves the box, clips the trial point
    into ``[lo, hi]`` and updates ``mu`` by Nielsen's gain ratio (H. B.
    Nielsen, IMM-REP-1999-05, DTU (1999)). A lane converges when a step,
    accepted or not, is below ``tol`` relative to ``x``, or an accepted step
    lowers the cost by less than ``tol`` of it, both tested after the step,
    so the last accepted step is kept; or when the largest cosine between
    ``r`` and a free column of ``J`` is at most ``tol``. It ends when it
    converges or its residual evaluations, the start's included, reach
    ``max_evals``. Each iteration makes one stacked ``fun`` call for the
    trial points of the running lanes, which gives each its normal
    equations too, so every lane follows the path it would follow alone,
    until one ends converged at a cost that :func:`_tied` counts as no
    higher than ``bound``, a lower bound on every lane's end cost: the lanes
    still running are then dropped, as none can end lower but by rounding.
    Returns ``(x, r, alpha, converged, evaluations, ended)`` by lane, at its
    last accepted point, or at its start, not converged, if it was dropped
    (``ended`` false). ``evaluations`` counts a lane's residuals, the start's
    included, and the Jacobians it used, the start's and one per accepted
    step after which it had not converged, up to its last evaluated point.
    """
    x0, r0, cost0, g0, gram0, alpha0 = start[:6]
    lo, hi = lo.tolist(), hi.tolist()
    running = [(k, _lane(*state, lo, hi, tol, max_evals)) for k, state in enumerate(
        zip(x0.tolist(), r0, cost0.tolist(), g0.tolist(), gram0.tolist(), alpha0.tolist()))]
    ends = [[x, r, alpha, False, 0, False] for x, r, alpha in zip(x0, r0, alpha0)]
    values = [None] * len(running)
    while running:
        trials, still, reached = [], [], False
        for (k, lane), value in zip(running, values):
            try:
                trial, ends[k][4] = lane.send(value)
                trials.append(trial)
                still.append((k, lane))
            except StopIteration as stop:
                ends[k] = [*stop.value[:5], True]
                reached |= ends[k][3] and _tied(stop.value[5], bound)
        running = [] if reached else still
        if running:
            r, *rest = fun(np.array(trials))[:5]
            values = zip(r, *(part.tolist() for part in rest))
    return tuple(np.array(part) for part in zip(*ends))


def _lane(x: list, r: np.ndarray, cost: float, g: list, gram: list, alpha: float, lo: list,
          hi: list, tol: float, max_evals: int):
    """One lane of :func:`_descend`, from its start point and the start's kernel values.

    A generator: it yields each trial point with its evaluations so far, is
    sent back that point's :func:`_evaluate` values but the Jacobian, all
    but the residual as Python floats, and returns ``(x, r, alpha,
    converged, evaluations, cost)``.
    """
    mu, nu, scale, moved = 1e-3, 2.0, [0.0] * 4, True
    evals = jacs = 1
    while True:
        # A rejected step leaves g and J^T J, and with them the scale, the
        # frozen set and the gradient test, as they were.
        if moved:
            diag = [gram[0][0], gram[1][1], gram[2][2], gram[3][3]]
            scale = [s if s >= d else d for s, d in zip(scale, diag)]
            frozen = [s <= 0.0 or (v <= low and gi > 0.0) or (v >= high and gi < 0.0)
                      for s, v, gi, low, high in zip(scale, x, g, lo, hi)]
            # Rooted apart: sqrt(cost * diag) would round, and so stop, differently.
            root = math.sqrt(cost)
            for f, gi, d in zip(frozen, g, diag):
                if not (f or abs(gi) <= tol * (root * math.sqrt(d))):
                    break
            else:
                return x, r, alpha, True, evals + jacs, cost
        if evals >= max_evals:
            return x, r, alpha, False, evals + jacs, cost
        trial = [low if v < low else high if v > high else v for v, low, high in
                 zip(map(operator.add, x, _damped_step(gram, g, mu, scale, frozen)), lo, hi)]
        s0, s1, s2, s3 = map(operator.sub, trial, x)
        c0, c1, c2, c3 = [a * s0 + b * s1 + c * s2 + d * s3 for a, b, c, d in gram]
        g0, g1, g2, g3 = g
        predicted = -(s0 * (2.0 * g0 + c0) + s1 * (2.0 * g1 + c1) + s2 * (2.0 * g2 + c2)
                      + s3 * (2.0 * g3 + c3))
        x0, x1, x2, x3 = x
        short = (math.sqrt(s0 * s0 + s1 * s1 + s2 * s2 + s3 * s3)
                 <= tol * (tol + math.sqrt(x0 * x0 + x1 * x1 + x2 * x2 + x3 * x3)))
        r_new, cost_new, g_new, gram_new, alpha_new = yield trial, evals + jacs
        drop = cost - cost_new
        gain = drop / predicted if predicted > 0.0 else -1.0
        done = short or (gain > 0.25 and drop <= tol * cost)
        evals += 1
        moved = gain > 0.0
        if moved:
            x, r, cost, g, gram, alpha = trial, r_new, cost_new, g_new, gram_new, alpha_new
            jacs += not done
            # Nielsen's factor is 1/3 for every gain >= 1.
            mu *= max(1.0 / 3.0, 1.0 - (2.0 * min(gain, 1.0) - 1.0) ** 3)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
        if done:
            return x, r, alpha, True, evals + jacs, cost


def _damped_step(gram: list, g: list, mu: float, scale: list, frozen: list) -> list:
    """One lane's step ``dx``, solving ``(J^T J + mu D) dx = -J^T r`` in Python floats.

    ``gram`` is the lane's ``J^T J`` as four rows of four floats, of which
    the lower triangle is read, ``g`` its ``J^T r``, ``scale`` the diagonal
    of ``D`` and ``frozen`` flags the variables held fixed: each has the row
    and column of the identity and a zero right-hand side, so its step is
    zero. The system is factored as ``L diag(d) L^T`` (Cholesky without
    square roots), which the damping keeps positive definite; a pivot that
    is not positive, as when ``mu D`` drops below the rounding of a singular
    ``J^T J``, hands the system to :func:`_eliminate` instead.
    """
    (a00, *_), (a10, a11, *_), (a20, a21, a22, _), (a30, a31, a32, a33) = gram
    s0, s1, s2, s3 = scale
    d0, d1, d2, d3 = a00 + mu * s0, a11 + mu * s1, a22 + mu * s2, a33 + mu * s3
    g0, g1, g2, g3 = g
    b0, b1, b2, b3 = -g0, -g1, -g2, -g3
    if True in frozen:
        f0, f1, f2, f3 = frozen
        if f0:
            a10 = a20 = a30 = b0 = 0.0
            d0 = 1.0
        if f1:
            a10 = a21 = a31 = b1 = 0.0
            d1 = 1.0
        if f2:
            a20 = a21 = a32 = b2 = 0.0
            d2 = 1.0
        if f3:
            a30 = a31 = a32 = b3 = 0.0
            d3 = 1.0
    if d0 > 0.0:
        l10, l20, l30 = a10 / d0, a20 / d0, a30 / d0
        e1 = d1 - l10 * a10
        if e1 > 0.0:
            t21, t31 = a21 - l20 * a10, a31 - l30 * a10
            l21, l31 = t21 / e1, t31 / e1
            e2 = d2 - l20 * a20 - l21 * t21
            if e2 > 0.0:
                t32 = a32 - l30 * a20 - l31 * t21
                l32 = t32 / e2
                e3 = d3 - l30 * a30 - l31 * t31 - l32 * t32
                if e3 > 0.0:
                    y1 = b1 - l10 * b0
                    y2 = b2 - l20 * b0 - l21 * y1
                    x3 = (b3 - l30 * b0 - l31 * y1 - l32 * y2) / e3
                    x2 = y2 / e2 - l32 * x3
                    x1 = y1 / e1 - l21 * x2 - l31 * x3
                    return [b0 / d0 - l10 * x1 - l20 * x2 - l30 * x3, x1, x2, x3]
    return _eliminate([[d0, a10, a20, a30], [a10, d1, a21, a31], [a20, a21, d2, a32],
                       [a30, a31, a32, d3]], [b0, b1, b2, b3])


def _eliminate(a: list, b: list) -> list:
    """The solution of ``a x = b`` by Gaussian elimination with partial pivoting (LAPACK's gesv).

    ``a`` is a list of rows and ``b`` a list, both of floats, and both are
    overwritten. An exactly zero pivot raises ``LinAlgError``, as
    ``np.linalg.solve`` does.
    """
    n = len(b)
    for c in range(n):
        p = max(range(c, n), key=lambda i: abs(a[i][c]))
        a[c], a[p], b[c], b[p] = a[p], a[c], b[p], b[c]
        if a[c][c] == 0.0:
            raise np.linalg.LinAlgError("Singular matrix")
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [v - f * w for v, w in zip(a[i], a[c])]
            b[i] -= f * b[c]
    x = [0.0] * n
    for i in reversed(range(n)):
        s = b[i]
        for j in range(i + 1, n):
            s -= a[i][j] * x[j]
        x[i] = s / a[i][i]
    return x


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
    """Fit the filter model to the Hermitian part of a measured process matrix.

    Runs the bounded Levenberg-Marquardt descent (:func:`_descend`) from
    up to ``cfg.multistart`` starting points (see :class:`FitConfig`), each
    a lane that takes its steps in Python floats around one stacked kernel
    call per iteration, and keeps the lowest residual among the lanes that
    ran to their end; lanes dropped at the profile's bound are left out.
    Lanes that tie on the residual are ranked by the norm of their
    canonicalized angles, norms that agree to the same relative 1e-9
    counting as equal, and then by start order. Deterministic.
    Non-convergence of the reported start is signalled by
    ``converged=False`` on the result, never by an exception.
    Everything runs on ``chi_meas 2^-e``, ``e`` even and the largest real or
    imaginary part scaled into [1/4, 1): a power of two and its square root
    scale exactly, so at any finite magnitude ``chi_meas 4^j`` gives the same
    shape and evaluations, ``scale`` times ``2^j`` and the residuals times
    ``4^j``. A residual too large for a float comes back infinite.
    """
    if cfg is None:
        cfg = FitConfig()
    # Scaled before the basis transform and the Hermitian part, which can
    # overflow near the top of the float range; complex has no ldexp loop.
    parts = np.ascontiguousarray(chi_meas.m).view(np.float64)
    e = int(np.frexp(np.max(np.abs(parts)))[1])
    e += e % 2
    unit = ProcessMatrix(chi_meas.basis, np.ldexp(parts, -e).view(complex))
    chi_std = transform_process_matrix(unit, "S").m
    chi_std = 0.5 * (chi_std + chi_std.conj().T)
    target, floor = _kernel_inputs(chi_std)

    def evaluate(x: np.ndarray) -> tuple:
        return _evaluate(x, target, floor)

    x0, bound = _grid_starts(target, floor, cfg.multistart)
    start = (x0, *evaluate(x0))
    x, r, alphas, converged, evaluations, ended = _descend(
        evaluate, start, _LOWER, _UPPER, cfg.convergence_tol, cfg.max_iterations, bound)
    ends = np.sqrt(floor + np.add.reduce(r * r, axis=1))
    candidates = [(float(ends[k]), _params(x[k]), bool(converged[k] and alphas[k] > 0.0),
                   float(alphas[k]), k) for k in np.flatnonzero(ended).tolist()]

    def lowest(cands: list, key) -> list:
        """The candidates whose key :func:`_tied` counts as the lowest, in start order."""
        low = min(key(c) for c in cands)
        return [c for c in cands if _tied(key(c), low)]

    tied = lowest(candidates, lambda c: c[0])
    _, canon, converged, alpha, best_start = lowest(
        tied, lambda c: math.hypot(c[1].theta1, c[1].theta2)
    )[0]
    params = replace(canon, scale=math.sqrt(max(alpha, 1e-300)))
    v = _factor(params, unit.basis)
    # With no overlap the model is zero; at the clamped scale its products would underflow.
    model = v @ dagger(v) if alpha > 0.0 else 0.0
    # Two Python-float factors: 2.0**e can overflow, and these give inf where numpy would warn.
    half = 2.0 ** (e // 2)

    return FitResult(
        params=replace(params, scale=params.scale * half),
        residual=float(np.linalg.norm(model - unit.m)) * half * half,
        fidelity=_rank2_fidelity(v, project_to_psd(unit.m)),
        n_evaluations=int(evaluations.sum()),
        converged=converged,
        start_residuals=[res * half * half for res in np.sqrt(start[2]).tolist()],
        best_start=best_start,
    )
