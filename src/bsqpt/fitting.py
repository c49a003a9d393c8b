"""Least-squares estimation of the filter model from a measured process matrix.

The model process matrix is rank at most two, ``chi_1 = (1-p) c- c-_dag +
p c+ c+_dag``, where ``c-/+`` are the standard-basis coefficient vectors of
the unit-scale filter operators ``P-/+ = t I -/+ r U3(theta1, theta2) SWAP``
with ``t + r = 1``, times a rate factor ``alpha`` whose square root is the
reported ``scale``. The operators touch six standard-basis coefficients, so
the model lives on a 6x6 block of chi, and the cost off the block is a
constant. The objective is the plain Frobenius distance on the unnormalized
matrices, with no statistical weighting, computed at one magnitude (a power
of two; see :func:`_unit`).

For fixed angles the model on the block is linear in a real symmetric 2x2
matrix ``X``: ``alpha chi_1 = [a b] X [a b]^+`` with ``a = vec(I)``, ``b =
vec(U3(theta1, theta2) SWAP)`` and ``X = alpha [[t^2, (2p-1) t r], [(2p-1) t
r, r^2]]``, whose entries ``x = (X_11, X_22, X_12)`` weigh the terms ``a
a^+``, ``b b^+`` and ``a b^+ + b a^+``. With the overlaps ``v = (a^+ T a,
b^+ T b, 2 Re a^+ T b)`` of a block ``T`` and the terms' Gram matrix ``G``,
the block's cost is ``|T|^2 - (2 x . v - x^T G x)``. The search box (p in
[0, 1], whose halves mirror each other, and R/T in ``RATIO_BOUNDS``) is
convex in ``X``: p in [0, 1] is ``X >= 0``, and R/T is ``x2 / x1`` between
the squares of its ends. So the fit is a 2-D minimization over the angles,
of the cost left by the profile ``P``, the largest ``2 x . v - x^T G x``
over the box (separable least squares, or variable projection: Golub &
Pereyra, SIAM J. Numer. Anal. 10, 413 (1973); Kaufman, BIT 15, 49 (1975)).
A convex problem's optimum is the optimum of one of its faces, and each
face's is a closed form. In ``Y = K^1/2 X K^1/2``, with ``K = [[4, z], [z,
4]]`` the Gram matrix of a and b (``z = a^+ b``, real) and ``W`` the 2x2
matrix of ``v``, the cost is ``|S - Y|^2`` up to a constant, for ``S =
K^-1/2 W K^-1/2`` with mean ``m`` and eigenvalues ``m +/- rad``:

* inside the box, ``Y = S`` (``x = G^-1 v``) and ``P = |S|^2 =
  2 (m^2 + rad^2)``; ``X >= 0`` is ``m >= rad``;
* on ``X >= 0`` alone, ``S`` with its negative eigenvalue clipped:
  ``X = lambda y y^T`` with ``y^T K y = 1`` for ``lambda = m + rad``, the
  top eigenvalue of ``K^-1 W``, and ``P = lambda^2``;
* a ratio face ``x2 = c x1`` is the wedge between the rank-one rays
  ``X = u y y^T``, ``y = (1, +/- sqrt c)``. With ``n = y^T K y`` and the
  overlap ``e = y^T W y / n`` of ``S`` with the ray's unit ``Y``, a ray
  gives ``P = e^2`` at ``x = (e / n) (1, c, +/- sqrt c)`` where ``e > 0``.
  For the rays' cosine ``g = (4 - 4c)^2 / (n+ n-)``, the face's best ``Y``
  is ``a`` times the ``+`` ray's unit ``Y`` plus ``b`` times the ``-``
  ray's, ``a = (e+ - g e-) / (1 - g^2)`` and ``b = (e- - g e+) / (1 -
  g^2)``. It lies in the box where ``a, b >= 0``, with ``P = a e+ + b e-``
  and ``x = (u, c u, sqrt(c) (a / n+ - b / n-))``, ``u = a / n+ + b / n-``.

``P`` is the largest value among the candidates that lie in the box.
``v`` is a short trigonometric sum in the angles (:func:`maps`) and ``z =
2 cos((theta1 - theta2) / 2)``, so the profile over a grid is a few real
array operations (:func:`grid`), and at a point with its gradient and
Hessian a few dozen float operations (:func:`profile`). The starts are the
lowest local minima of the profile on the angle grid, each polished to
convergence by Newton's method (:func:`polish`, :func:`_grid_starts`); the
best polished start is the fit, and its ``X`` gives p, R/T and the scale
(:func:`_params`, which also folds the angles' 2 pi symmetry).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .bases import STANDARD, build_basis, to_coeff_vector
from .bsfilter import P_RANGE, U3_RATES, FilterParams, u3
from .channel import ProcessMatrix, change_basis
from .linalg import SWAP, dagger

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
# The search box's R/T interval: physically plausible splitters, 1:4 through
# 4:1. Its faces are x2 = c x1 for the squares c of its ends, and each face
# is the wedge between the rank-one rays X = u (1, s sqrt c)(1, s sqrt c)^T.
RATIO_BOUNDS = (0.25, 4.0)
_FACES = tuple(r * r for r in RATIO_BOUNDS)
# The angle grid has GRID_POINTS points on each angle's period, and no
# Newton step moves an angle by more than one of its spacings. Adding 2 pi
# to an angle flips b, so only x3's sign, which the box allows either way,
# and the profile has period 2 pi. The grid's GRID_POINTS^2 angle pairs span
# [-pi, pi)^2 row by row, and _NEIGHBOURS[:, g] are g's eight neighbours on
# the torus (g last, where numpy reduces fastest).
GRID_POINTS = 16
_MAX_STEP = 2.0 * math.pi / GRID_POINTS
_AXIS = np.linspace(-math.pi, math.pi, GRID_POINTS, endpoint=False)
_GRID = np.stack(np.meshgrid(_AXIS, _AXIS, indexing="ij"), axis=-1).reshape(-1, 2)
_NEIGHBOURS = np.stack([np.roll(np.arange(len(_GRID)).reshape(GRID_POINTS, -1), (i, j),
                                axis=(0, 1)).ravel()
                        for i in (-1, 0, 1) for j in (-1, 0, 1) if i or j])
# Steps that change the cost by less than its rounding are accepted.
_ROUNDING = 16.0 * sys.float_info.epsilon


@dataclass
class FitConfig:
    """Search configuration; the search box and the start grid are fixed by the module constants.

    ``multistart`` caps the number of starts, the lowest minima of the angle
    grid of :func:`_grid_starts`. Each start is polished by Newton's method
    on the angle profile (:func:`polish`), and it converges when the Newton
    decrement is at most ``convergence_tol`` times the profile's cost.
    ``max_iterations`` caps its Newton steps, a guard
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
    (:func:`profile`), over every start's Newton polish: its grid point,
    each trial point and the last step's end.
    ``positive_overlap`` is whether the model at the reported start has a
    positive overlap with the measured matrix, that is whether its
    profiled scale is positive. Every positive scale is reported as
    profiled, however small. Where it is not positive, the model is zero,
    leaves all of the matrix unexplained and has the stand-in
    ``params.scale`` 1e-150 at any magnitude of the matrix (the one
    exception to ``scale`` times ``2^j`` in :func:`fit`).
    ``converged`` is whether the reported start's polish converged, and
    ``False`` as well without a positive overlap.
    ``start_residuals`` holds the Frobenius distance of the model at each
    polished start's end point from the measured matrix, in the start order
    of :class:`FitConfig`, and ``best_start`` the index of the reported
    start, whose distance is ``residual = start_residuals[best_start]``,
    ``|model_chi(params, basis) - chi|`` in either's basis. :func:`fit`
    sums each square from entrywise values, without the 16x16 model: the
    squared norm off the 6x6 block, the block's squared distance from the
    model at the start's polished angles and ``X`` and the squared norm of
    the anti-Hermitian part of the matrix, which no model reaches
    (:func:`_squared_residual`).
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
    :func:`_unit` scales it, so no product overflows or underflows,
    and the value is the same under ``fp.scale 2^j`` and ``chi_meas 4^j``
    while neither becomes subnormal. A NaN or infinite entry raises
    ``ValueError``.
    """
    return _rank2_fidelity(_factor(fp, chi_meas.basis, math.frexp(fp.scale)[0]),
                           _unit(chi_meas)[0])


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


def solve(z, v1, v2, v3) -> tuple:
    """``x = G^-1 v`` for the terms' Gram matrix ``G``; floats or arrays alike.

    ``|a|^2 = |b|^2 = 4``, so with ``z = a^+ b`` (real, |z| <= 2)
    ``G = [[16, z^2, 8z], [z^2, 16, 8z], [8z, 8z, 32 + 2z^2]]``: eigenvalue
    ``16 - z^2`` on ``x1 - x2``, and a 2x2 system of determinant
    ``2 (16 - z^2)^2`` on ``(x1 + x2, x3)``.
    """
    q, zz = 16.0 - z * z, 16.0 + z * z
    s, w = v1 + v2, (v1 - v2) / q
    u = (zz * s - 8.0 * z * v3) / (q * q)
    return 0.5 * (u + w), 0.5 * (u - w), (zz * v3 - 8.0 * z * s) / (2.0 * q * q)


def _wedge(z, c: float, v1, v2, v3) -> tuple:
    """The face ``x2 = c x1``'s ``(n+, n-, e+, e-, a, b)`` (module docstring); floats or arrays."""
    root = math.sqrt(c)
    n_plus, n_minus = 4.0 + 4.0 * c + 2.0 * root * z, 4.0 + 4.0 * c - 2.0 * root * z
    g = (4.0 - 4.0 * c) ** 2 / (n_plus * n_minus)
    b1, b3 = v1 + c * v2, root * v3
    e_plus, e_minus = (b1 + b3) / n_plus, (b1 - b3) / n_minus
    return (n_plus, n_minus, e_plus, e_minus, (e_plus - g * e_minus) / (1.0 - g * g),
            (e_minus - g * e_plus) / (1.0 - g * g))


def _linear_map(z: np.ndarray) -> np.ndarray:
    """The ``(15, 3, g)`` map from ``v`` at each grid point to the linear parts of :func:`grid`.

    Rows 0-2 are the half difference of the diagonal of ``S`` in K's
    eigenbasis, its off-diagonal and its mean ``m`` (``rad`` is the
    hypotenuse of the first two); rows 3-4 the margins ``x2 - c x1`` and
    ``c x1 - x2`` of ``x = G^-1 v`` to the two faces; rows 5-8 ``e+`` of
    both faces, then ``e-``, and rows 9-12 ``a`` of both faces, then ``b``
    (:func:`_wedge`); rows 13-14 the two values that ``rad`` must reach for
    the clipped ``X`` to lie between the faces, as its ratio ``x2 / x1`` is
    ``(4 lambda - v1) / (4 lambda - v2)`` for ``lambda = m + rad``.
    """
    one, zero, unit = np.ones_like(z), np.zeros_like(z), np.eye(3)[:, :, None]
    inverse = solve(z, *unit)
    c_lo, c_hi = _FACES
    plus = np.array([one, one, one]) / (8.0 + 2.0 * z)
    minus = np.array([one, one, -one]) / (8.0 - 2.0 * z)
    m, off = 0.5 * (plus + minus), np.array([one, -one, zero]) / (2.0 * np.sqrt(16.0 - z * z))
    wedges = [_wedge(z, c, *unit) for c in _FACES]
    return np.array([0.5 * (plus - minus), off, m,
                     inverse[1] - c_lo * inverse[0], c_hi * inverse[0] - inverse[1],
                     *(w[k] for k in range(2, 6) for w in wedges),
                     np.array([one, -c_lo * one, zero]) / (4.0 * (1.0 - c_lo)) - m,
                     np.array([-one, c_hi * one, zero]) / (4.0 * (c_hi - 1.0)) - m])


def maps(angles: np.ndarray) -> tuple:
    """The profile's fixed maps at the ``(g, 2)`` angle pairs ``angles``.

    On the block ``a = _VEC_I`` and ``b_k = s_k exp(i r_k . theta)``, with
    the signs ``s = _SWAP_SIGNS`` and the columns ``r_k`` of ``_RATES``. b
    is nonzero at the ``k`` where ``s`` is, so v is a sum ``Re sum_w c_w
    exp(i w . theta)`` over the waves ``w``: the constant (``c = a^+ T
    a``), each ``r_k - r_j`` (``c = s_j s_k T_jk`` of ``b^+ T b``) and each
    ``r_k`` (``c = 2 (a^+ T)_k s_k``). The closed form ``z = a^+ b = 2
    cos((theta1 - theta2) / 2)`` adds no coupling: :func:`solve`,
    :func:`_wedge` and :func:`_linear_map` take this block's ``|a| = |b| = 2``.
    Returns the real map from ``target`` (:func:`grid`) to v's ``c``, real
    and imaginary parts interleaved, ``(2 m^2, 6 n)`` for ``n`` waves on the
    ``m = 6`` coefficients; the rows ``(cos, -sin)(w . theta)`` at
    ``angles``, ``(2 n, g)``; the ``i w``; the factors ``(i w)^d`` of the
    derivatives ``d = (none, 1, 2, 11, 12, 22)`` of v2 and v3; and
    :func:`grid`'s linear map at ``angles``, ``(15, 3, g)``.
    """
    k = np.flatnonzero(_SWAP_SIGNS)
    s, w, n, m = _SWAP_SIGNS[k], _RATES[:, k].T, len(k), len(_VEC_I)
    waves = np.concatenate([np.zeros((1, 2)), (w[None] - w[:, None]).reshape(-1, 2), w])
    # The coefficients of each unit block, one per real component of target.
    blocks = np.eye(2 * m * m).view(complex).reshape(-1, m, m)
    a_t = _VEC_I @ blocks
    coef = np.repeat(np.eye(3), [1, n * n, n], axis=1) * np.concatenate(
        [(a_t @ _VEC_I)[:, None], (blocks[:, k][:, :, k] * np.outer(s, s)).reshape(-1, n * n),
         2.0 * a_t[:, k] * s], axis=1)[:, None]
    at = np.exp(1j * (waves @ angles.T))
    return (np.stack([coef.real, coef.imag], axis=-1).reshape(2 * m * m, -1),
            np.stack([at.real, -at.imag], axis=1).reshape(2 * len(waves), -1), 1j * waves,
            np.stack([np.ones(len(waves)), *(1j * waves.T),
                      *(-waves.T[[0, 0, 1]] * waves.T[[0, 1, 1]])]),
            _linear_map(2.0 * np.cos(0.5 * angles[:, 0] - 0.5 * angles[:, 1])))


def grid(fixed: tuple, target: np.ndarray) -> tuple:
    """``P`` at each grid point, and the ``parts`` of :func:`profile`, for a block.

    ``fixed`` is :func:`maps`'s output and ``target`` the block's real and
    imaginary parts, interleaved, row by row. The wave coefficients of v
    are a fixed real map of ``target``, v on the grid one real product, and
    every candidate's 15 linear parts one more map (:func:`_linear_map`).
    ``parts`` holds 13 rows of wave coefficients: v1's, then those of ``(v2,
    v3)`` and of their derivatives of order 1, 2, 11, 12 and 22.
    Where ``x = G^-1 v`` lies in the box, ``P = |S|^2 = 2 (m^2 + rad^2)``;
    elsewhere it is the largest ``P`` of the clip, the faces' wedges and
    their rays that lie in it, and zero (``X = 0``) if none is positive.
    """
    coef_map, rows, iw, deriv, linear = fixed
    c = (target @ coef_map).view(complex).reshape(3, -1)
    v = c.view(np.float64) @ rows
    y = np.einsum("rjg,jg->rg", linear, v)
    rad, m = np.hypot(y[0], y[1]), y[2]
    inside = (np.minimum(y[3], y[4]) >= 0.0) & (m >= rad)
    # The clip and the rays are rank-one, each with P the square of its overlap.
    clip = np.where(rad >= np.maximum(m, np.maximum(y[13], y[14])), m + rad, 0.0)
    rank_one = np.maximum(np.maximum(np.maximum.reduce(y[5:9]), clip), 0.0) ** 2
    face = np.where(np.minimum(y[9:11], y[11:13]) >= 0.0, y[9:11] * y[5:7] + y[11:13] * y[7:9], 0.0)
    best = np.maximum(rank_one, np.maximum(face[0], face[1]))
    return (np.where(inside, 2.0 * (m * m + rad * rad), best),
            (np.concatenate((c[:1], (deriv[:, None] * c[1:]).reshape(12, -1))), iw))


def _gram(z: float, j: tuple) -> tuple:
    """``G j`` for a 3-vector ``j``, in Python floats."""
    j1, j2, j3 = j
    return (16.0 * j1 + z * z * j2 + 8.0 * z * j3, z * z * j1 + 16.0 * j2 + 8.0 * z * j3,
            8.0 * z * (j1 + j2) + (32.0 + 2.0 * z * z) * j3)


def _boxed(z: float, v1: float, v2: float, v3: float) -> tuple:
    """The best ``x`` on the box's boundary: ``(P, x, J, C)``, in Python floats.

    The best of the clip and, face by face, the wedge and its two rays that
    lie in the box (see the module docstring). ``J`` holds the columns of
    ``dx/dy`` for the coordinates ``y`` of the candidate's face of the box
    and ``C`` the curvature ``sum_i (v - G x)_i d^2 x_i / dy^2`` that the
    clip's rank-one ``x = (y1^2, y2^2, y1 y2)`` adds; a linear face has
    none. ``P`` is zero, with ``x`` and ``J`` empty, where no candidate is
    positive.
    """
    best = (0.0, (0.0, 0.0, 0.0), (), ())
    m1, m2 = (v1 + v2 + v3) / (8.0 + 2.0 * z), (v1 + v2 - v3) / (8.0 - 2.0 * z)
    mean = 0.5 * (m1 + m2)
    rad = math.hypot(0.5 * (m1 - m2), (v1 - v2) / (2.0 * math.sqrt(16.0 - z * z)))
    top = mean + rad
    f1, f2 = 4.0 * top - v1, 4.0 * top - v2
    if rad >= mean and top > 0.0 and _FACES[0] * f2 <= f1 <= _FACES[1] * f2:
        h = 0.5 * v3 - top * z
        scale = top / (4.0 * (f1 + f2) + 2.0 * z * h)
        y1, y2 = math.sqrt(f2 * scale), math.copysign(math.sqrt(f1 * scale), h)
        x = (y1 * y1, y2 * y2, y1 * y2)
        r1, r2, r3 = (vi - gi for vi, gi in zip((v1, v2, v3), _gram(z, x)))
        best = (top * top, x, ((2.0 * y1, 0.0, y2), (0.0, 2.0 * y2, y1)),
                ((2.0 * r1, r3), (r3, 2.0 * r2)))
    for c in _FACES:
        n_plus, n_minus, e_plus, e_minus, a, b = _wedge(z, c, v1, v2, v3)
        value, root = a * e_plus + b * e_minus, math.sqrt(c)
        if a >= 0.0 and b >= 0.0 and value > best[0]:
            u, w = a / n_plus + b / n_minus, root * (a / n_plus - b / n_minus)
            best = (value, (u, c * u, w), ((1.0, c, 0.0), (0.0, 0.0, 1.0)),
                    ((0.0, 0.0), (0.0, 0.0)))
        for n, e, j3 in ((n_minus, e_minus, -root), (n_plus, e_plus, root)):
            if e > 0.0 and e * e > best[0]:
                u = e / n
                best = (e * e, (u, c * u, j3 * u), ((1.0, c, j3),), ((0.0,),))
    return best


def profile(parts: tuple, theta1: float, theta2: float) -> tuple:
    """The profile at ``(theta1, theta2)`` in Python floats: ``(P, x, gradient, Hessian)``.

    ``parts`` is ``(c, iw)``: ``iw`` the ``(n, 2)`` frequencies ``i w`` of the
    waves ``exp(i w . theta)``, ``c`` the ``(13, n)`` wave coefficients of v1,
    then of ``(v2, v3)`` and their derivatives of order none, 1, 2, 11, 12 and
    22, each the real part of ``c . exp(i w . theta)``, and ``z = 2 cos((theta1
    - theta2) / 2)``. ``x`` are the best coefficients in the box, and the cost
    they remove from the block's squared norm is ``P = 2 x . v - x^T G x``;
    where ``x = G^-1 v`` lies in the box, ``P = v . x``. By Danskin's theorem
    ``dP = 2 x . dv - x^T dG x``. On the face of the box that holds ``x``,
    with coordinates ``y``, ``x``'s Jacobian ``J`` and curvature ``C`` (see
    :func:`_boxed`; inside, ``J = I`` and ``C = 0``), ``G' = dG/dz`` and
    ``w_m = J^T (v_m - z_m G' x)``,
    ``P_mn = 2 w_m . N^-1 w_n + 2 x . v_mn - z_m z_n x^T G'' x - z_mn x^T G' x``
    with ``N = J^T G J - C``; the gradient is ``(P_1, P_2)`` and the Hessian
    ``(P_11, P_12, P_22)``, each zero where ``X = 0``.
    """
    c, iw = parts
    v1, v2, v3, b1, c1, b2, c2, b11, c11, b12, c12, b22, c22 = (
        c @ np.exp(iw @ (theta1, theta2))).real.tolist()
    delta = 0.5 * theta1 - 0.5 * theta2
    sin, cos = math.sin(delta), math.cos(delta)
    z, z1, z2, z11, z12, z22 = 2.0 * cos, -sin, sin, -0.5 * cos, 0.5 * cos, -0.5 * cos
    x1, x2, x3 = solve(z, v1, v2, v3)
    inside = _FACES[0] * x1 <= x2 <= _FACES[1] * x1 and x1 * x2 >= x3 * x3
    if inside:
        value = v1 * x1 + v2 * x2 + v3 * x3
    else:
        value, (x1, x2, x3), jac, curv = _boxed(z, v1, v2, v3)
        if not jac:
            return 0.0, (0.0, 0.0, 0.0), (0.0, 0.0), (0.0, 0.0, 0.0)
    # G' x, x^T G' x and x^T G'' x.
    y1, y2, y3 = 2.0 * z * x2 + 8.0 * x3, 2.0 * z * x1 + 8.0 * x3, 8.0 * (x1 + x2) + 4.0 * z * x3
    xgx, xhx = x1 * y1 + x2 * y2 + x3 * y3, 4.0 * (x1 * x2 + x3 * x3)
    p1, p2, p3 = 0.0 - z1 * y1, b1 - z1 * y2, c1 - z1 * y3
    q1, q2, q3 = 0.0 - z2 * y1, b2 - z2 * y2, c2 - z2 * y3
    if inside:
        u1, u2, u3 = solve(z, p1, p2, p3)
        w1, w2, w3 = solve(z, q1, q2, q3)
        curvature = (p1 * u1 + p2 * u2 + p3 * u3, p1 * w1 + p2 * w2 + p3 * w3,
                     q1 * w1 + q2 * w2 + q3 * w3)
    else:
        wp = [j1 * p1 + j2 * p2 + j3 * p3 for j1, j2, j3 in jac]
        wq = [j1 * q1 + j2 * q2 + j3 * q3 for j1, j2, j3 in jac]
        n = [[sum(a * b for a, b in zip(ji, _gram(z, jk))) - ck for jk, ck in zip(jac, row)]
             for ji, row in zip(jac, curv)]
        if len(jac) == 1:
            curvature = (wp[0] * wp[0] / n[0][0], wp[0] * wq[0] / n[0][0], wq[0] * wq[0] / n[0][0])
        else:
            (n11, n12), (_, n22) = n
            det = n11 * n22 - n12 * n12

            def form(a, b):
                return (a[0] * (n22 * b[0] - n12 * b[1]) + a[1] * (n11 * b[1] - n12 * b[0])) / det

            curvature = (form(wp, wp), form(wp, wq), form(wq, wq))
    return (value, (x1, x2, x3),
            (2.0 * (x2 * b1 + x3 * c1) - z1 * xgx, 2.0 * (x2 * b2 + x3 * c2) - z2 * xgx),
            (2.0 * (curvature[0] + x2 * b11 + x3 * c11) - z1 * z1 * xhx - z11 * xgx,
             2.0 * (curvature[1] + x2 * b12 + x3 * c12) - z1 * z2 * xhx - z12 * xgx,
             2.0 * (curvature[2] + x2 * b22 + x3 * c22) - z2 * z2 * xhx - z22 * xgx))


def polish(parts: tuple, theta1: float, theta2: float, norm: float, tol: float,
           max_steps: int) -> tuple:
    """Newton's method on the cost ``norm - P`` from a grid point.

    Returns ``(theta1, theta2, x, P, converged, evaluations)``; ``norm`` is the
    cost at ``X = 0``. With the cost's gradient ``-g`` and Hessian ``H = -h``
    (:func:`profile`), the step is ``H^-1 g`` where ``H`` is positive definite,
    and elsewhere the safeguarded ``g / |H|`` (``|H|`` the Frobenius norm), or
    none where ``g`` is subnormal. Either is shortened so that no angle moves
    more than one grid spacing (``2 pi / GRID_POINTS``), and halved until the
    cost falls by 1e-4 of the decrease the step predicts, up to the cost's
    rounding. The iteration converges when the predicted decrease ``g . step``,
    for a definite ``H`` the Newton decrement ``g^T H^-1 g``, is at most
    ``tol`` times the cost, or times ``tol norm`` if the cost is smaller, which
    counts such costs as zero; a Newton step is then taken as the last. It
    stops unconverged after ``max_steps`` steps, or when twenty halvings do not
    lower the cost. ``x`` and ``P`` are those at the returned point and
    ``evaluations`` counts the :func:`profile` calls.
    """
    value, x, (g1, g2), (h11, h12, h22) = profile(parts, theta1, theta2)
    evaluations, slack = 1, _ROUNDING * norm
    for _ in range(max_steps):
        det = h11 * h22 - h12 * h12
        definite = h11 < 0.0 and det > 0.0
        if definite:
            d1, d2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
        else:
            # A subnormal gradient, whose step would overflow, is flat: no step.
            size, length = math.hypot(h11, h12, h12, h22), math.hypot(g1, g2)
            scale = (0.0 if length < sys.float_info.min else _MAX_STEP / length
                     if size * _MAX_STEP < length else 1.0 / size)
            d1, d2 = g1 * scale, g2 * scale
        decrease, cost = g1 * d1 + g2 * d2, norm - value
        if decrease <= tol * max(cost, tol * norm):
            if definite:
                theta1, theta2 = theta1 + d1, theta2 + d2
                value, x = profile(parts, theta1, theta2)[:2]
                evaluations += 1
            return theta1, theta2, x, value, True, evaluations
        shrink = min(1.0, _MAX_STEP / max(abs(d1), abs(d2)))
        d1, d2, decrease = d1 * shrink, d2 * shrink, decrease * shrink
        for _ in range(21):
            trial = profile(parts, theta1 + d1, theta2 + d2)
            evaluations += 1
            if trial[0] >= value + 1e-4 * decrease - slack:
                break
            d1, d2, decrease = 0.5 * d1, 0.5 * d2, 0.5 * decrease
        else:
            break
        theta1, theta2 = theta1 + d1, theta2 + d2
        value, x, (g1, g2), (h11, h12, h22) = trial
    return theta1, theta2, x, value, False, evaluations


@lru_cache(maxsize=None)
def _profile_maps() -> tuple:
    """:func:`maps` on the angle grid; built on the first fit."""
    return maps(_GRID)


def _kernel_inputs(chi_std: np.ndarray) -> tuple[np.ndarray, float]:
    """The block ``target`` and off-block cost ``floor`` of a Hermitian S matrix for the profile.

    ``target`` holds the 6x6 block's 72 real and imaginary parts,
    interleaved, row by row.
    """
    # Summed directly, not as |chi|^2 - |block|^2, which can round below zero.
    off = chi_std.take(_OFF_BLOCK_FLAT).view(np.float64)
    return chi_std.take(_BLOCK_FLAT).view(np.float64), float(off @ off)


def _unit(chi_meas: ProcessMatrix) -> tuple[np.ndarray, int]:
    """``unit = chi_meas.m 2^-e`` in ``chi_meas``'s basis, and ``e``.

    ``e`` is even and puts the largest real or imaginary part of ``unit``
    in [1/4, 1). A NaN or infinite entry raises ``ValueError``.
    """
    # Scaled before any product, which can overflow; complex has no ldexp loop.
    parts = np.ascontiguousarray(chi_meas.m).view(np.float64)
    top = np.abs(parts).max()
    if not math.isfinite(top):
        raise ValueError("the process matrix is not finite")
    e = math.frexp(top)[1]
    e += e % 2
    return np.ldexp(parts, -e).view(complex), e


def _unit_inputs(chi_meas: ProcessMatrix) -> tuple[np.ndarray, int, np.ndarray, float]:
    """``unit``, ``e`` (:func:`_unit`) and :func:`_kernel_inputs` of ``unit``'s Hermitian S form."""
    unit, e = _unit(chi_meas)
    chi_std = change_basis(unit, chi_meas.basis, STANDARD)
    return (unit, e, *_kernel_inputs(0.5 * (chi_std + chi_std.conj().T)))


def _squared_residual(unit: np.ndarray, target: np.ndarray, floor: float, theta1: float,
                      theta2: float, x: tuple) -> float:
    """Squared Frobenius distance of the model at the angles and the box point ``x`` from ``unit``.

    ``target`` and ``floor`` are :func:`_kernel_inputs`'s for ``unit``'s
    Hermitian part in the standard basis (:func:`_unit_inputs`). The
    distance is ``floor + |target - F X F^+|^2 + |A|^2``, with ``F`` the
    model's two terms (:func:`_terms`), ``X = [[x1, x3], [x3, x2]]`` and
    ``A`` the anti-Hermitian part of ``unit``, which no model reaches and
    whose norm is the same in every basis. Summed from entrywise values, it
    keeps the rounding level that the profile's ``norm - P`` loses to its
    subtraction.
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
    (module docstring) is the cost left at fixed angles by the best
    coefficients ``x`` of the three model terms in the search box. Its minima
    on the grid, no higher than their eight neighbours on the torus, are taken
    lowest first, values that :func:`_tied` counts as equal in grid order, and
    each is polished by Newton's method under ``cfg`` (:func:`polish`). Each
    start is ``(cost, theta1, theta2, x, converged, evaluations)`` at its end
    point.
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
    Newton's method (:func:`_grid_starts`, see :class:`FitConfig`), sums
    each start's residual entrywise at its end point (see
    :class:`FitResult`), not off the profile's cost, and keeps the start
    whose residual is lowest. Starts that tie on the residual are ranked by
    the norm of their reported angles (folded by :func:`_params`), norms
    that agree to the same relative 1e-9 counting as equal, and then by
    start order. Deterministic. Non-convergence of the reported start is
    signalled by ``converged=False`` on the result, never by an exception.
    Everything runs on ``chi_meas 2^-e`` (:func:`_unit`): a power of two
    and its square root scale exactly, so at any finite magnitude
    ``chi_meas 4^j`` gives the same shape and evaluations, ``scale`` times
    ``2^j`` for every positive scale (1e-150 only without a positive
    overlap, see :class:`FitResult`) and the residuals times ``4^j``; a 6x6
    filter block far below the largest entry is lost to rounding, leaving a
    residual of about the matrix norm. A residual too large for a float
    comes back infinite. A NaN or infinite entry raises ``ValueError``.
    """
    if cfg is None:
        cfg = FitConfig()
    unit, e, target, floor = _unit_inputs(chi_meas)
    starts = _grid_starts(target, floor, cfg)
    candidates = [(math.sqrt(_squared_residual(unit, target, floor, theta1, theta2, x)),
                   *_params(theta1, theta2, x), converged, k)
                  for k, (_, theta1, theta2, x, converged, _) in enumerate(starts)]

    def lowest(cands: list, key) -> list:
        """The candidates whose key :func:`_tied` counts as the lowest, in start order."""
        low = min(key(c) for c in cands)
        return [c for c in cands if _tied(key(c), low)]

    residual, best, scale, converged, best_start = lowest(
        lowest(candidates, lambda c: c[0]), lambda c: math.hypot(c[1].theta1, c[1].theta2))[0]
    overlap = scale > 0.0
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
