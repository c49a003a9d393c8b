"""The fit's angle profile on its search box, and Newton's method on it (variable projection).

For fixed angles the filter model on the fit's 6x6 block is linear in a real
symmetric 2x2 matrix ``X``: ``alpha chi_1 = [a b] X [a b]^+`` with
``a = vec(I)``, ``b = vec(U3(theta1, theta2) SWAP)`` and ``X = alpha [[t^2,
(2p-1) t r], [(2p-1) t r, r^2]]``, whose entries ``x = (X_11, X_22, X_12)``
weigh the terms ``a a^+``, ``b b^+`` and ``a b^+ + b a^+``. With the overlaps
``v = (a^+ T a, b^+ T b, 2 Re a^+ T b)`` of a block ``T`` and the terms'
Gram matrix ``G``, the block's cost is ``|T|^2 - (2 x . v - x^T G x)``. The
search box is convex in ``X``: p in [0, 1] is ``X >= 0``, and R/T in
``RATIO_BOUNDS`` is ``x2 / x1`` between their squares. So the fit is a 2-D
minimization over the angles, of the cost left by the profile ``P``, the
largest ``2 x . v - x^T G x`` over the box (separable least squares: Golub
& Pereyra, SIAM J. Numer. Anal. 10, 413 (1973); Kaufman, BIT 15, 49
(1975)). A convex problem's optimum is the optimum of one of its faces,
and each face's is a closed form. In ``Y = K^1/2 X K^1/2``, with ``K =
[[4, z], [z, 4]]`` the Gram matrix of a and b (``z = a^+ b``, real) and
``W`` the 2x2 matrix of ``v``, the cost is ``|S - Y|^2`` up to a constant,
for ``S = K^-1/2 W K^-1/2`` with mean ``m`` and eigenvalues ``m +/- rad``:

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
array operations (:func:`grid`), at a point with its gradient and Hessian
a few dozen float operations (:func:`profile`), and :func:`polish` runs
Newton's method from a grid point. ``bsqpt.fitting`` supplies the block's
geometry and the grid, and turns the polished ``x`` into its parameters.
"""

from __future__ import annotations

import math
import sys

import numpy as np

# The search box's R/T interval: physically plausible splitters, 1:4 through
# 4:1. Its faces are x2 = c x1 for the squares c of its ends, and each face
# is the wedge between the rank-one rays X = u (1, s sqrt c)(1, s sqrt c)^T.
RATIO_BOUNDS = (0.25, 4.0)
_FACES = tuple(r * r for r in RATIO_BOUNDS)
# The fit's angle grid has GRID_POINTS points on each angle's period, and no
# Newton step moves an angle by more than one of its spacings.
GRID_POINTS = 16
_MAX_STEP = 2.0 * math.pi / GRID_POINTS
# Steps that change the cost by less than its rounding are accepted.
_ROUNDING = 16.0 * sys.float_info.epsilon


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


def maps(rates: np.ndarray, signs: np.ndarray, a: np.ndarray, angles: np.ndarray) -> tuple:
    """The profile's fixed maps for a block on which ``b_k = signs_k exp(i rates_k . theta)``.

    ``rates`` is ``(2, m)``, ``signs`` and ``a = vec(I)`` are the block's
    ``m`` coefficients and ``angles`` the ``(g, 2)`` angle pairs of the grid.
    b is nonzero at the ``k`` where ``signs`` is, so v is a sum ``Re sum_w
    c_w exp(i w . theta)`` over the waves ``w``: the constant (``c = a^+ T
    a``), each ``rates_k - rates_j`` (``c = s_j s_k T_jk`` of ``b^+ T b``)
    and each ``rates_k`` (``c = 2 (a^+ T)_k s_k``). The closed form ``z =
    a^+ b = 2 cos((theta1 - theta2) / 2)`` adds no coupling: :func:`solve`,
    :func:`_wedge` and :func:`_linear_map` take this block's ``|a| = |b| = 2``.
    Returns the real map from ``target`` (:func:`grid`) to v's ``c``, real
    and imaginary parts interleaved, ``(2 m^2, 6 n)`` for ``n`` waves; the
    rows ``(cos, -sin)(w . theta)`` at ``angles``, ``(2 n, g)``; the ``i w``;
    the factors ``(i w)^d`` of the derivatives ``d = (none, 1, 2, 11, 12,
    22)`` of v2 and v3; and :func:`grid`'s linear map at ``angles``, ``(15, 3, g)``.
    """
    k = np.flatnonzero(signs)
    s, w, n, m = signs[k], rates[:, k].T, len(k), len(a)
    waves = np.concatenate([np.zeros((1, 2)), (w[None] - w[:, None]).reshape(-1, 2), w])
    # The coefficients of each unit block, one per real component of target.
    blocks = np.eye(2 * m * m).view(complex).reshape(-1, m, m)
    a_t = a @ blocks
    coef = np.repeat(np.eye(3), [1, n * n, n], axis=1) * np.concatenate(
        [(a_t @ a)[:, None], (blocks[:, k][:, :, k] * np.outer(s, s)).reshape(-1, n * n),
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
