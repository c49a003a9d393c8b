"""Least-squares estimation of the filter model from a measured process matrix.

The model process matrix is rank at most two, ``chi_1 = (1-p) c- c-_dag +
p c+ c+_dag``, where ``c-/+`` are the standard-basis coefficient vectors of
the unit-scale filter operators ``P-/+ = t I -/+ r U3(theta1, theta2) SWAP``
with ``t + r = 1``, times a rate factor whose square root is the reported
``scale``. The operators touch six standard-basis coefficients, so the model
lives on a 6x6 block of chi, and the cost off the block is a constant. For
fixed angles the scaled model is linear in a 2x2 matrix ``X`` whose cone
``X >= 0`` is p in [0, 1] and whose ratio ``X_22 / X_11`` is the squared
R/T, so the search box (p in [0, 1], whose halves mirror each other, and
R/T in ``RATIO_BOUNDS``) is convex in ``X``. The fit is therefore a
minimization over the two angles alone of the angle profile, the cost left
by the best ``X`` in the box, a closed form (separable least squares:
Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973); :mod:`bsqpt.varpro`).
The starts are the lowest local minima of the profile on a 16x16 angle
grid, each polished to convergence by Newton's method
(:func:`_grid_starts`); the best polished start is the fit, and its ``X``
gives p, R/T and the scale (:func:`_params`, which also folds the angles'
2 pi symmetry). The objective is the plain Frobenius distance on the
unnormalized matrices, with no statistical weighting, computed at one
magnitude (a power of two; see :func:`_unit_inputs`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bases import STANDARD, build_basis, to_coeff_vector
from .bsfilter import P_RANGE, U3_RATES, FilterParams, u3
from .channel import ProcessMatrix, change_basis
from .linalg import SWAP, dagger
from .varpro import GRID_POINTS, RATIO_BOUNDS, grid, maps, polish

# The filter operators P-/+ = t I -/+ r U3 SWAP, with U3 diagonal, have
# non-zero standard-basis coefficients only where I or SWAP has one: at
# |0><0|, |1><1|, |1><2|, |2><1|, |2><2| and |3><3|, in coefficient order.
# The model chi_1 is zero outside that 6x6 block of chi, so the fit works on
# the block alone.
_BLOCK = np.flatnonzero(to_coeff_vector(np.eye(4) + SWAP))
_BLOCK_IX = np.ix_(_BLOCK, _BLOCK)
_OFF_BLOCK = np.ones((16, 16), dtype=bool)
_OFF_BLOCK[_BLOCK_IX] = False
# The same entries as flat indices, row by row, for np.take.
_BLOCK_FLAT = np.ravel_multi_index(_BLOCK_IX, (16, 16)).ravel()
_OFF_BLOCK_FLAT = np.flatnonzero(_OFF_BLOCK)
# U3 = diag(u) with u_j = +/- exp(i (theta1, theta2) @ U3_RATES[:, j]), so
# U3 SWAP weighs each coefficient of SWAP by the u_j of its row j (the
# coefficients of the matrix of row indices): on the block,
# vec(U3 SWAP) = _SWAP_SIGNS exp(i (theta1, theta2) @ _RATES).
_RATES = U3_RATES[:, to_coeff_vector(np.outer(range(4), np.ones(4)))[_BLOCK].real.astype(int)]
_SWAP_SIGNS = to_coeff_vector(u3(0.0, 0.0) @ SWAP)[_BLOCK].real
_VEC_I = to_coeff_vector(np.eye(4))[_BLOCK].real


@dataclass
class FitConfig:
    """Search configuration; the search box and the start grid are fixed by the module constants.

    ``multistart`` caps the number of starts, the lowest minima of the angle
    grid of :func:`_grid_starts`. Each start is polished by Newton's method
    on the angle profile (:func:`bsqpt.varpro.polish`), and it converges
    when the Newton decrement is at most ``convergence_tol`` times the
    profile's cost. ``max_iterations`` caps its Newton steps, a guard
    against a polish that never passes that decrement test: no default fit
    of 600 random Poisson records made more than 69 profile evaluations,
    over all of its starts. Values below 1 raise ``ValueError``. ``seed``
    is accepted and has no effect: the fit draws nothing at random. The
    scale is profiled analytically and is nonnegative by construction, so
    it has no bounds.
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

    ``n_evaluations`` counts the angle profile's evaluations at a point
    (:func:`bsqpt.varpro.profile`), over every start's Newton polish: its
    grid point, each trial point and the last step's end.
    ``positive_overlap`` is whether the model at the reported start has a
    positive overlap with the measured matrix, that is whether its
    profiled scale is positive. Every positive scale is reported as
    profiled, however small. Where it is not positive, the model is zero,
    leaves all of the matrix unexplained and has the stand-in
    ``params.scale`` 1e-150 at any magnitude of the matrix (the one
    exception to ``scale`` times ``2^j`` in :func:`fit`).
    ``converged`` is whether the reported start's polish converged, and
    ``False`` as well without a positive overlap.
    ``residual`` is the Frobenius distance of the model at ``params`` from
    the measured matrix, ``|model_chi(params, basis) - chi|`` in either's
    basis. :func:`fit` sums its square from entrywise values, without the
    16x16 model: the squared norm off the 6x6 block, the block's squared
    distance from the model at the reported start's polished angles and
    ``X`` and the squared norm of the anti-Hermitian part of the matrix,
    which no model reaches (:func:`_squared_residual`). ``start_residuals``
    holds the square root of the profile's cost at each polished start
    (:func:`_grid_starts`), and ``best_start`` the index of the reported
    start, both in the start order of :class:`FitConfig`. Those costs are
    the squared norm less the profile, so they leave out the anti-Hermitian
    part and, from that subtraction, are accurate only to about ``2^-26``
    times the norm of the matrix.
    ``params.theta2`` always lies in [-pi, pi], and ``params.theta1``
    leaves that range only when the p read off the fit would pass 1/2 (see
    :func:`_params`). The fit's fidelity is :func:`model_fidelity` of
    ``params`` and the measured matrix.
    """

    params: FilterParams
    residual: float
    n_evaluations: int
    converged: bool
    start_residuals: list[float] = field(default_factory=list)
    best_start: int = 0
    positive_overlap: bool = True


def model_chi(fp: FilterParams, basis_kind: str = "S") -> ProcessMatrix:
    """Process matrix ``V V^+`` of the filter model in the requested basis (rank <= 2)."""
    v = _factor(fp, basis_kind, fp.scale)
    return ProcessMatrix(basis_kind, v @ dagger(v))


def model_fidelity(fp: FilterParams, chi_meas: ProcessMatrix) -> float | None:
    """Uhlmann fidelity of the model at ``fp`` and the PSD projection of ``chi_meas``.

    Each is normalized to unit trace (:func:`_rank2_fidelity`); ``None``
    when that projection has no positive trace. Both run at unit magnitude:
    the model at the mantissa of ``fp.scale`` and the matrix as
    :func:`_unit_inputs` scales it, so no product overflows or underflows,
    and the value is the same under ``fp.scale 2^j`` and ``chi_meas 4^j``
    while neither becomes subnormal. A NaN or infinite entry raises
    ``ValueError``.
    """
    unit = _unit_inputs(chi_meas)[0]
    return _rank2_fidelity(_factor(fp, chi_meas.basis, math.frexp(fp.scale)[0]), unit)


def _terms(theta1: float, theta2: float) -> np.ndarray:
    """The model's two terms on the 6x6 block, ``F = [vec(I) vec(U3(theta1, theta2) SWAP)]``."""
    f = np.empty((6, 2), dtype=complex)
    f[:, 0] = _VEC_I
    f[:, 1] = _SWAP_SIGNS * np.exp(1j * (theta1 * _RATES[0] + theta2 * _RATES[1]))
    return f


def _factor(fp: FilterParams, basis_kind: str, scale: float) -> np.ndarray:
    """The ``(16, 2)`` model factor ``V`` at ``scale``; ``model_chi = V V^+`` at ``fp.scale``.

    Its columns are the coefficient vectors of the weighted Kraus operators
    ``scale sqrt(1-p) P-`` and ``scale sqrt(p) P+``, ``P-/+ = T a -/+ R b``
    on the block (:func:`_terms`) and zero off it, in the requested basis.
    """
    f = _terms(fp.theta1, fp.theta2)
    v = np.zeros((16, 2), dtype=complex)
    v[_BLOCK] = (fp.T * f[:, :1] + (fp.R * f[:, 1:]) * [-1.0, 1.0]) * (
        scale * np.sqrt([1.0 - fp.p, fp.p]))
    if basis_kind == STANDARD:
        return v
    return build_basis(basis_kind).u_dagger @ v


# For fixed angles, with a = vec(I) and b = vec(U3 SWAP) on the block,
# alpha chi_1 = x1 a a^+ + x2 b b^+ + x3 (a b^+ + b a^+) is linear in
# x = alpha (t^2, r^2, (2p - 1) t r); adding 2 pi to an angle flips b, so
# only x3's sign, which the box allows either way, and the angle profile has
# period 2 pi. The grid's GRID_POINTS^2 angle pairs span [-pi, pi)^2 row by
# row, and _NEIGHBOURS[:, g] are g's eight neighbours on the torus (g last,
# where numpy reduces fastest).
_AXIS = np.linspace(-math.pi, math.pi, GRID_POINTS, endpoint=False)
_GRID = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"), axis=-1).reshape(-1, 2)
_NEIGHBOURS = np.stack([np.roll(np.arange(len(_GRID)).reshape(GRID_POINTS, -1), (i, j),
                                axis=(0, 1)).ravel()
                        for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])


@lru_cache(maxsize=None)
def _profile_maps() -> tuple:
    """The angle profile's maps (:func:`bsqpt.varpro.maps`); built on the first fit."""
    return maps(_RATES, _SWAP_SIGNS, _VEC_I, _GRID)


def _kernel_inputs(chi_std: np.ndarray) -> tuple[np.ndarray, float]:
    """The block ``target`` and off-block cost ``floor`` of a Hermitian S matrix for the profile.

    ``target`` holds the 6x6 block's 72 real and imaginary parts,
    interleaved, row by row.
    """
    # Summed directly, not as |chi|^2 - |block|^2, which can round below zero.
    off = chi_std.take(_OFF_BLOCK_FLAT).view(np.float64)
    return chi_std.take(_BLOCK_FLAT).view(np.float64), float(off @ off)


def _unit_inputs(chi_meas: ProcessMatrix) -> tuple[np.ndarray, int, np.ndarray, float]:
    """``unit = chi_meas.m 2^-e``, ``e``, and the kernel inputs of ``unit``'s Hermitian S form.

    ``e`` is even and puts the largest real or imaginary part of ``unit``
    in [1/4, 1); ``target`` and ``floor`` are :func:`_kernel_inputs`'s for
    the Hermitian part of ``unit`` in the standard basis. A NaN or
    infinite entry raises ``ValueError``.
    """
    # Scaled before the basis transform and the Hermitian part, which can
    # overflow near the top of the float range; complex has no ldexp loop.
    parts = np.ascontiguousarray(chi_meas.m).view(np.float64)
    top = np.abs(parts).max()
    if not math.isfinite(top):
        raise ValueError("the process matrix is not finite")
    e = math.frexp(top)[1]
    e += e % 2
    unit = np.ldexp(parts, -e).view(complex)
    chi_std = change_basis(unit, chi_meas.basis, STANDARD)
    return (unit, e, *_kernel_inputs(0.5 * (chi_std + chi_std.conj().T)))


def _squared_residual(unit: np.ndarray, target: np.ndarray, floor: float, theta1: float,
                      theta2: float, x: tuple) -> float:
    """Squared Frobenius distance of the model at the angles and the box point ``x`` from ``unit``.

    ``target`` and ``floor`` are :func:`_kernel_inputs`'s for ``unit``'s
    Hermitian part in the standard basis (:func:`_unit_inputs`). The
    distance is ``floor + |target - M|^2 + |A|^2``. ``M = F X F^+`` is the
    block model, with ``F`` the model's two terms (:func:`_terms`) and
    ``X = [[x1, x3], [x3, x2]]``; ``A`` is
    ``unit``'s anti-Hermitian part, which no model reaches and whose norm is
    the same in every basis. Each term is summed from entrywise values, so
    a model at the matrix keeps the rounding level that the profile's
    ``norm - P`` loses to its subtraction.
    """
    f = _terms(theta1, theta2)
    x1, x2, x3 = x
    d = target - (f @ np.array([[x1, x3], [x3, x2]]) @ f.conj().T).view(np.float64).ravel()
    skew = unit - unit.conj().T
    return floor + float(d @ d) + 0.25 * float(np.vdot(skew, skew).real)


def _tied(value, low):
    """Whether ``value`` is at most ``low``, up to the relative 1e-9 within which values tie."""
    return value <= low + 1e-9 * (1.0 + low)


def _grid_starts(target: np.ndarray, floor: float, cfg: FitConfig) -> list[tuple]:
    """Up to ``cfg.multistart`` polished starts from the angle grid, lowest grid minimum first.

    ``target`` and ``floor`` are :func:`_kernel_inputs`'s for a Hermitian
    standard-basis matrix at the fit's unit magnitude (:func:`_unit_inputs`),
    searched as they are: a block far below ``floor`` leaves every grid cost at
    the same norm. No parameter moves the cost off the block. The angle profile
    (:mod:`bsqpt.varpro`) is the cost left at fixed angles by the best
    coefficients ``x`` of the three model terms in the search box. Its minima
    on the grid, no higher than their eight neighbours on the torus, are taken
    lowest first, values that :func:`_tied` counts as equal in grid order, and
    each is polished by Newton's method under ``cfg``
    (:func:`bsqpt.varpro.polish`). Each start is ``(cost, theta1, theta2, x,
    converged, evaluations)`` at its end point.
    """
    value, parts = grid(_profile_maps(), target)
    norm = floor + float(target @ target)
    cost = norm - value
    minima = np.flatnonzero(_tied(cost, np.minimum.reduce(cost[_NEIGHBOURS]))).tolist()
    left, starts = cost[minima].tolist(), []
    while len(starts) < min(cfg.multistart, len(minima)):
        low = min(left)
        k = next(i for i, c in enumerate(left) if _tied(c, low))
        left[k], g = math.inf, minima[k]
        theta1, theta2, x, removed, converged, evaluations = polish(
            parts, *_GRID[g].tolist(), norm, cfg.convergence_tol, cfg.max_iterations)
        starts.append((norm - removed, theta1, theta2, x, converged, evaluations))
    return starts


def _params(theta1: float, theta2: float, x: tuple) -> tuple[FilterParams, float]:
    """Unit-scale parameters of the box point ``x`` at the angles, and its scale.

    ``x = alpha (t^2, r^2, (2p - 1) t r)`` gives ``R/T = sqrt(x2 / x1)``,
    ``p = (1 + x3 / sqrt(x1 x2)) / 2`` and the scale ``sqrt(alpha) =
    sqrt(x1) + sqrt(x2)``, each clipped into the box against rounding;
    ``X = 0`` reads as p = 1/2 at the largest R/T. Here, and only here, the
    filter's 2 pi symmetry is folded. Each angle is wrapped into [-pi, pi]
    by ``n_k`` turns; 2 pi on one angle flips ``b = vec(U3 SWAP)``, so an
    odd ``n_1 + n_2`` flips the sign of ``x3``. A p past 1/2 is the channel
    at ``1 - p`` with theta1 moved 2 pi toward zero, which swaps the filter
    operators. So theta2 always lies in [-pi, pi], and theta1 leaves that
    range only when the p read off ``x`` would pass 1/2.
    """
    n1, n2 = round(theta1 / (2.0 * math.pi)), round(theta2 / (2.0 * math.pi))
    theta1, theta2 = theta1 - 2.0 * math.pi * n1, theta2 - 2.0 * math.pi * n2
    x3 = -x[2] if (n1 + n2) % 2 else x[2]
    lo, hi = RATIO_BOUNDS
    t, r = math.sqrt(max(x[0], 0.0)), math.sqrt(max(x[1], 0.0))
    ratio = min(max(r / t, lo), hi) if t > 0.0 else hi
    p = 0.5 * (1.0 + min(max(x3 / (t * r), -1.0), 1.0)) if t * r > 0.0 else 0.5
    if p > P_RANGE[1] + 1e-12:
        p, theta1 = 1.0 - p, theta1 - math.copysign(2.0 * math.pi, theta1)
    return FilterParams.from_ratio(ratio, theta1, theta2, p), t + r


def _rank2_fidelity(v: np.ndarray, m: np.ndarray) -> float | None:
    """Uhlmann fidelity of ``V V^+`` and the PSD projection ``B`` of ``m``, both of unit trace.

    ``sqrt(A) B sqrt(A)`` with ``A = V V^+`` has the nonzero eigenvalues of
    the 2x2 matrix ``V^+ B V``, so ``F = (sum sqrt(lambda(V^+ B V)))^2 /
    (Tr V^+ V Tr B)``: no square root of the 16x16 model, whose rounding-level
    eigenvalues would cost ``sqrt(eps)``. With ``m = U diag(w) U^+`` (one
    ``eigh``, of ``m``'s lower triangle), ``B = U diag(w+) U^+`` and
    ``V^+ B V = (U^+ V)^+ diag(w+) (U^+ V)``, whose eigenvalues are taken in
    closed form. ``None`` when a trace is not positive.
    """
    w, u = np.linalg.eigh(m)
    w = np.maximum(w, 0.0)
    trace_a, trace_b = float(np.vdot(v, v).real), float(w.sum())
    if trace_a <= 0.0 or trace_b <= 0.0:
        return None
    c = dagger(u) @ v
    (a, b), (_, d) = ((dagger(c) * w) @ c).tolist()
    mean, rad = 0.5 * (a.real + d.real), math.hypot(0.5 * (a.real - d.real), abs(b))
    root = math.sqrt(max(mean + rad, 0.0)) + math.sqrt(max(mean - rad, 0.0))
    return min(max(root * root / (trace_a * trace_b), 0.0), 1.0)


def fit(chi_meas: ProcessMatrix, cfg: FitConfig | None = None) -> FitResult:
    """Fit the filter model to the Hermitian part of a measured process matrix.

    Polishes up to ``cfg.multistart`` grid starts of the angle profile by
    Newton's method (:func:`_grid_starts`, see :class:`FitConfig`) and keeps
    the start whose polished residual is lowest. Starts that tie on the
    residual are ranked by the norm of their reported angles (folded by
    :func:`_params`), norms that agree to the same relative 1e-9 counting
    as equal, and then by start order. The reported ``residual`` is then
    summed entrywise on the 6x6 block at that start's polished angles and
    ``X``, with the cost off the block and the anti-Hermitian part (see
    :class:`FitResult`), not read off the profile's cost, whose subtraction
    would leave a noiseless record at about ``2^-26`` of the matrix norm
    instead of its rounding. Deterministic. Non-convergence of
    the reported start is signalled by ``converged=False`` on the result,
    never by an exception. Everything runs on ``chi_meas 2^-e``
    (:func:`_unit_inputs`): a power of two and its square root scale
    exactly, so at any finite magnitude ``chi_meas 4^j`` gives the same
    shape and evaluations, ``scale`` times ``2^j`` for every positive scale
    (1e-150 only without a positive overlap, see :class:`FitResult`) and
    the residuals times ``4^j``; a 6x6 filter block far below the largest
    entry is lost to rounding, leaving a residual of about the matrix norm.
    A residual too large for a float comes back infinite. A NaN or infinite
    entry raises ``ValueError``.
    """
    if cfg is None:
        cfg = FitConfig()
    unit, e, target, floor = _unit_inputs(chi_meas)
    starts = _grid_starts(target, floor, cfg)
    candidates = [(math.sqrt(max(cost, 0.0)), *_params(theta1, theta2, x), converged, k)
                  for k, (cost, theta1, theta2, x, converged, _) in enumerate(starts)]

    def lowest(cands: list, key) -> list:
        """The candidates whose key :func:`_tied` counts as the lowest, in start order."""
        low = min(key(c) for c in cands)
        return [c for c in cands if _tied(key(c), low)]

    tied = lowest(candidates, lambda c: c[0])
    _, best, scale, converged, best_start = lowest(
        tied, lambda c: math.hypot(c[1].theta1, c[1].theta2)
    )[0]
    overlap = scale > 0.0
    residual = math.sqrt(_squared_residual(unit, target, floor, *starts[best_start][1:4]))
    # Two Python-float factors: 2.0**e can overflow, and these give inf where numpy would warn.
    half = 2.0 ** (e // 2)

    return FitResult(
        params=FilterParams(best.T, best.R, best.theta1, best.theta2, best.p,
                            scale * half if overlap else 1e-150),
        residual=residual * half * half,
        n_evaluations=sum(start[5] for start in starts),
        converged=converged and overlap,
        start_residuals=[c[0] * half * half for c in candidates],
        best_start=best_start,
        positive_overlap=overlap,
    )
