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
starts descend in lockstep, in numpy alone: each iteration makes one call
of the stacked kernel :func:`_evaluate`, which gives every running start's
trial point its residual, cost, normal equations and scale at once, and
each start's step is one 4x4 linear solve. The first starts are
method-of-moments estimates: six standard-basis entries of the measured
matrix give the four parameters in closed form (:func:`_moment_starts`);
the box midpoint and seeded uniform draws follow. Only p and R/T are
boxed; the angles are periodic, so they are left free and folded by
:func:`canonicalize` afterwards. The objective is the plain Frobenius
distance on the unnormalized matrices, as they are compared visually, with no
statistical weighting, computed at one magnitude (a power of two; see :func:`fit`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bases import STANDARD, build_basis, to_coeff_vector
from .bsfilter import P_RANGE, FilterParams, filter_operators, u3
from .channel import ProcessMatrix, transform_process_matrix
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
# U3 = diag(u) with u_j = +/- exp(i (theta1 d_1j + theta2 d_2j)) for the
# fixed phase rates d_kj below, so U3 SWAP weighs each coefficient of SWAP by
# the u_j of its row j: on the block, vec(U3 SWAP) = _SWAP_SIGNS
# exp(i (theta1, theta2) @ _RATES), and dU3/dtheta_k = i diag(d_k) U3.
_D_THETA = 0.5 * np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])
_RATES = _D_THETA[:, np.argsort(_UNIT, axis=None)[_BLOCK] // 4]
_DPHASE = 1j * _RATES[:, None, :]
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
    alone, whatever the number of starts. ``multistart`` and
    ``max_iterations`` below 1 raise ``ValueError``.
    The scale parameter has no bounds because it is profiled analytically
    and is nonnegative by construction.
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

    ``n_evaluations`` counts every model evaluation: the residual at each
    start and each trial point, and each Jacobian the solver used, one per
    start and one per accepted step after which the start had not converged
    (see :func:`_descend`); a stacked call counts one residual per start it
    evaluates. The fidelity is the
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


def _starts(cfg: FitConfig) -> list[np.ndarray]:
    """The box midpoint and the seeded uniform start points that the start list keeps.

    The two moment starts and the midpoint come first, so ``multistart - 3``
    points are drawn, each as p, log R/T and the two angles in turn.
    """
    lo_r, hi_r = RATIO_BOUNDS
    mid = np.array([0.5 * sum(P_RANGE), math.sqrt(lo_r * hi_r), 0.0, 0.0])
    low = [P_RANGE[0], math.log(lo_r), THETA_START_RANGE[0], THETA_START_RANGE[0]]
    high = [P_RANGE[1], math.log(hi_r), THETA_START_RANGE[1], THETA_START_RANGE[1]]
    draws = np.random.default_rng(cfg.seed).uniform(low, high, (max(0, cfg.multistart - 3), 4))
    # math.exp keeps each R/T bit-identical to a draw made one value at a
    # time; np.exp can differ from it in the last bit.
    draws[:, 1] = [math.exp(v) for v in draws[:, 1]]
    return [mid, *draws]


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
    return canonicalize(FilterParams.from_ratio(ratio, theta1, theta2, p))


def _descend(fun, start: tuple, lo: np.ndarray, hi: np.ndarray, tol: float,
             max_evals: int) -> tuple:
    """Bounded Levenberg-Marquardt descent of the cost of ``fun``, all starts in lockstep.

    ``fun(x)`` returns, stacked by point, the residual, cost, ``J^T r``,
    ``J^T J``, scale and Jacobian of :func:`_evaluate` at a stack of points,
    and ``start`` is ``(x0, *fun(x0))`` for a stack ``x0`` of start points,
    one per row. Each start is a lane with its own point, residual, cost,
    normal equations, damping and free set. A lane's step solves
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
    ``fun`` call for the trial points of the lanes still running, which
    gives each trial point its normal equations along with its residual, and
    an accepted lane takes them over; every lane follows the path it would
    follow alone. Returns ``(x, r, alpha, converged, evaluations)`` stacked
    by lane at each lane's last accepted point. ``evaluations`` counts each
    lane's residuals, the start's included, and the Jacobians it used: the
    start's, and one per accepted step after which the lane had not
    converged.
    """
    x, r, cost, g, gram, alpha = start[:6]
    lanes, n = x.shape
    out = [x.copy(), r.copy(), alpha.copy()]
    converged = np.zeros(lanes, dtype=bool)
    evaluations = np.zeros(lanes, dtype=int)
    # The state of the running lanes, compacted when lanes stop; ``lane``
    # maps each back to its row in the stack.
    lane = np.arange(lanes)
    evals, jacs = np.ones(lanes, dtype=int), np.ones(lanes, dtype=int)
    mu, nu, scale = np.full(lanes, 1e-3), np.full(lanes, 2.0), np.zeros((lanes, n))
    done = np.zeros(lanes, dtype=bool)
    eye = np.eye(n)
    while True:
        # A lane whose step was rejected keeps its g and J^T J, so its scale,
        # frozen set and gradient test come out as before.
        diag = gram.diagonal(axis1=1, axis2=2)
        scale = np.maximum(scale, diag)
        frozen = (scale <= 0.0) | ((x <= lo) & (g > 0.0)) | ((x >= hi) & (g < 0.0))
        # Rooted apart: sqrt(cost * diag) would round, and so stop, differently.
        small = np.abs(g) <= tol * (np.sqrt(cost)[:, None] * np.sqrt(diag))
        done |= np.logical_and.reduce(small | frozen, axis=1)
        stop = done | (evals >= max_evals)
        if stop.any():
            rows = lane[stop]
            for part, value in zip(out, (x, r, alpha)):
                part[rows] = value[stop]
            converged[rows] = done[stop]
            evaluations[rows] = evals[stop] + jacs[stop]
            if stop.all():
                return (*out, converged, evaluations)
            keep = ~stop
            lane, x, r, cost, g, gram, alpha, mu, nu, scale, frozen, evals, jacs = (
                a[keep] for a in (lane, x, r, cost, g, gram, alpha, mu, nu, scale, frozen, evals,
                                  jacs))
        system = np.where(frozen[:, :, None] | frozen[:, None, :], eye,
                          gram + (mu[:, None] * scale)[:, :, None] * eye)
        step = np.linalg.solve(system, np.where(frozen, 0.0, -g)[:, :, None])[:, :, 0]
        trial = np.minimum(np.maximum(x + step, lo), hi)
        step = trial - x
        r_new, cost_new, g_new, gram_new, alpha_new = fun(trial)[:5]
        drop = cost - cost_new
        predicted = -np.add.reduce(step * (2.0 * g + (gram @ step[:, :, None])[:, :, 0]), axis=1)
        gain = np.divide(drop, predicted, out=np.full(len(x), -1.0), where=predicted > 0.0)
        done = ((np.sqrt(np.add.reduce(step * step, axis=1))
                 <= tol * (tol + np.sqrt(np.add.reduce(x * x, axis=1))))
                | ((gain > 0.25) & (drop <= tol * cost)))
        moved = gain > 0.0
        evals += 1
        jacs += moved & ~done
        x = np.where(moved[:, None], trial, x)
        r = np.where(moved[:, None], r_new, r)
        cost = np.where(moved, cost_new, cost)
        g = np.where(moved[:, None], g_new, g)
        gram = np.where(moved[:, None, None], gram_new, gram)
        alpha = np.where(moved, alpha_new, alpha)
        # Nielsen's factor is 1/3 for every gain >= 1: clamping leaves it, and
        # keeps the cube finite on the lanes that reject their step.
        clamped = np.minimum(np.maximum(gain, 0.0), 1.0)
        shrink = np.maximum(1.0 / 3.0, 1.0 - (2.0 * clamped - 1.0) ** 3)
        mu = mu * np.where(moved, shrink, nu)
        nu = np.where(moved, 2.0, 2.0 * nu)


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
    all ``cfg.multistart`` starting points (see :class:`FitConfig`) in
    lockstep and keeps the lowest residual. Starts that tie on the residual
    are ranked by the norm of their canonicalized angles, norms that agree
    to the same relative 1e-9 counting as equal, and then by start order.
    Deterministic for a given seed. Non-convergence of the reported start is
    signalled by ``converged=False`` on the result, never by an exception.
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

    x0 = np.array((_moment_starts(chi_std) + _starts(cfg))[: cfg.multistart])
    start = (x0, *evaluate(x0))
    x, r, alphas, converged, evaluations = _descend(evaluate, start, _LOWER, _UPPER,
                                                    cfg.convergence_tol, cfg.max_iterations)
    ends = np.sqrt(floor + np.add.reduce(r * r, axis=1))
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
    v = _factor(params, unit.basis)
    # Two Python-float factors: 2.0**e can overflow, and these give inf where numpy would warn.
    half = 2.0 ** (e // 2)

    return FitResult(
        params=replace(params, scale=params.scale * half),
        residual=float(np.linalg.norm(v @ dagger(v) - unit.m)) * half * half,
        fidelity=_rank2_fidelity(v, project_to_psd(unit.m)),
        n_evaluations=int(evaluations.sum()),
        converged=converged,
        start_residuals=[res * half * half for res in np.sqrt(start[2]).tolist()],
        best_start=best_start,
    )
