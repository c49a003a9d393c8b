"""Newton's method on the fit's closed-form angle profile (variable projection).

For fixed angles the filter model on the fit's 6x6 block is linear in three
coefficients, ``alpha chi_1 = x1 a a^+ + x2 b b^+ + x3 (a b^+ + b a^+)`` with
``a = vec(I)`` and ``b = vec(U3(theta1, theta2) SWAP)``. The best
unconstrained ``x`` for a block ``T`` is ``x = G^-1 v``, with the overlaps
``v = (a^+ T a, b^+ T b, 2 Re a^+ T b)`` and the terms' Gram matrix ``G``,
and it leaves the cost ``|T|^2 - v . x``: the angle profile of separable
least squares (Golub & Pereyra, SIAM J. Numer. Anal. 10, 413 (1973);
Kaufman, BIT 15, 49 (1975)). ``v`` and ``z = a^+ b`` are short
trigonometric sums in the angles (:func:`maps`), so the profile over a
grid is two small real matrix products (:func:`grid`), the profile at a point
with its gradient and Hessian a few dozen float operations
(:func:`profile`), and :func:`polish` moves a grid point to the profile's
minimum nearby. ``bsqpt.fitting`` supplies the block's geometry and the
grid, and turns the polished coefficients into its starts.
"""

from __future__ import annotations

import math

import numpy as np


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


def maps(rates: np.ndarray, signs: np.ndarray, a: np.ndarray, angles: np.ndarray) -> tuple:
    """The profile's fixed maps for a block on which ``b_k = signs_k exp(i rates_k . theta)``.

    ``rates`` is ``(2, m)``, ``signs`` and ``a = vec(I)`` are the block's
    ``m`` coefficients and ``angles`` the ``(g, 2)`` angle pairs of the grid.
    b is nonzero at the ``k`` where ``signs`` is, so z and v are sums
    ``Re sum_w c_w exp(i w . theta)`` over the waves ``w``: the constant
    (``c = a^+ T a``), each ``rates_k - rates_j`` (``c = s_j s_k T_jk`` of
    ``b^+ T b``) and each ``rates_k`` (``c = 2 (a^+ T)_k s_k``, and
    ``a_k s_k`` for z). Returns the real map from a block's ``target`` (see
    :func:`grid`) to the ``c`` of v, real and imaginary parts interleaved,
    ``(2 m^2, 6 n)`` for ``n`` waves; the matching rows ``(cos, -sin)(w . theta)``
    at ``angles``, ``(2 n, g)``; z's ``c``; the ``i w``; the factors
    ``(i w)^d`` that turn ``c`` into the ``c`` of the derivative of order
    ``d = (none, 1, 2, 11, 12, 22)``; and ``G^-1`` at ``angles``, ``(3, 3, g)``.
    """
    k = np.flatnonzero(signs)
    s, w, n, m = signs[k], rates[:, k].T, len(k), len(a)
    waves = np.concatenate([np.zeros((1, 2)), (w[None] - w[:, None]).reshape(-1, 2), w])
    z = np.concatenate([np.zeros(1 + n * n), a[k] * s])
    # The coefficients of each unit block, one per real component of target.
    blocks = np.eye(2 * m * m).view(complex).reshape(-1, m, m)
    a_t = a @ blocks
    coef = np.repeat(np.eye(3), [1, n * n, n], axis=1) * np.concatenate(
        [(a_t @ a)[:, None], (blocks[:, k][:, :, k] * np.outer(s, s)).reshape(-1, n * n),
         2.0 * a_t[:, k] * s], axis=1)[:, None]
    at = np.exp(1j * (waves @ angles.T))
    return (np.stack([coef.real, coef.imag], axis=-1).reshape(2 * m * m, -1),
            np.stack([at.real, -at.imag], axis=1).reshape(2 * len(waves), -1), z, 1j * waves,
            np.stack([np.ones(len(waves)), *(1j * waves.T),
                      *(-waves.T[[0, 0, 1]] * waves.T[[0, 1, 1]])]),
            np.array(solve((z @ at).real, *np.eye(3)[:, :, None])))


def grid(fixed: tuple, target: np.ndarray) -> tuple:
    """``P = v . x`` at each grid point, and the ``parts`` of :func:`profile`, for a block.

    ``fixed`` is :func:`maps`'s output and ``target`` the block's real and
    imaginary parts, interleaved, row by row. The wave coefficients of v
    are a fixed real map of ``target``, and v on the grid one real product.
    """
    coef_map, rows, z, iw, deriv, inverse = fixed
    coef = (target @ coef_map).reshape(3, -1)
    v = coef @ rows
    return (np.add.reduce(v * np.add.reduce(inverse * v, axis=1)),
            ((deriv[:, None] * np.vstack([coef.view(complex), z])).reshape(24, -1), iw))


def profile(parts: tuple, theta1: float, theta2: float) -> tuple:
    """The angle profile at ``(theta1, theta2)`` in Python floats: ``(P, x, gradient, Hessian)``.

    ``parts`` is ``(c, iw)``: ``iw`` the ``(n, 2)`` frequencies ``i w`` of the
    waves ``exp(i w . theta)``, and ``c`` the ``(24, n)`` wave coefficients of
    ``(v1, v2, v3, z)`` and of their derivatives of order none, 1, 2, 11, 12
    and 22, each sum the real part of ``c . exp(i w . theta)``. ``x = G^-1 v``
    are the best unconstrained coefficients and ``P = v . x`` the squared
    norm of the block's projection on the terms, which the cost is less.
    ``dP = 2 x . dv - x^T dG x``, and with ``G' = dG/dz`` and
    ``w_m = v_m - z_m G' x``,
    ``P_mn = 2 w_m . G^-1 w_n + 2 x . v_mn - z_m z_n x^T G'' x - z_mn x^T G' x``;
    the gradient is ``(P_1, P_2)`` and the Hessian ``(P_11, P_12, P_22)``.
    """
    c, iw = parts
    (v1, v2, v3, z, a1, b1, c1, z1, a2, b2, c2, z2, a11, b11, c11, z11, a12, b12, c12, z12,
     a22, b22, c22, z22) = (c @ np.exp(iw @ (theta1, theta2))).real.tolist()
    x1, x2, x3 = solve(z, v1, v2, v3)
    # G' x, x^T G' x and x^T G'' x.
    y1, y2, y3 = 2.0 * z * x2 + 8.0 * x3, 2.0 * z * x1 + 8.0 * x3, 8.0 * (x1 + x2) + 4.0 * z * x3
    xgx, xhx = x1 * y1 + x2 * y2 + x3 * y3, 4.0 * (x1 * x2 + x3 * x3)
    p1, p2 = a1 - z1 * y1, b1 - z1 * y2
    q1, q2 = a2 - z2 * y1, b2 - z2 * y2
    p3, q3 = c1 - z1 * y3, c2 - z2 * y3
    u1, u2, u3 = solve(z, p1, p2, p3)
    w1, w2, w3 = solve(z, q1, q2, q3)
    return (v1 * x1 + v2 * x2 + v3 * x3, (x1, x2, x3),
            (2.0 * (x1 * a1 + x2 * b1 + x3 * c1) - z1 * xgx,
             2.0 * (x1 * a2 + x2 * b2 + x3 * c2) - z2 * xgx),
            (2.0 * (p1 * u1 + p2 * u2 + p3 * u3 + x1 * a11 + x2 * b11 + x3 * c11)
             - z1 * z1 * xhx - z11 * xgx,
             2.0 * (p1 * w1 + p2 * w2 + p3 * w3 + x1 * a12 + x2 * b12 + x3 * c12)
             - z1 * z2 * xhx - z12 * xgx,
             2.0 * (q1 * w1 + q2 * w2 + q3 * w3 + x1 * a22 + x2 * b22 + x3 * c22)
             - z2 * z2 * xhx - z22 * xgx))


def polish(parts: tuple, theta1: float, theta2: float) -> tuple:
    """Newton's iteration on the angle profile from a grid point: ``(theta1, theta2, x, P)``.

    Each step is ``-H^-1 grad`` for the cost's gradient and Hessian, those of
    ``-P`` (:func:`profile`). It keeps its last point and stops when that
    Hessian is not positive definite, when the step is at rounding level or
    would move an angle more than one grid spacing (``2 pi / 16``) from the
    grid point, when ``P`` would fall, or after eight steps. The angles come
    back in [-pi, pi), x3's sign flipped for each one moved by 2 pi, which
    flips b. ``P`` is the profile value at the returned point.
    """
    t1, t2 = theta1, theta2
    value, x, (g1, g2), (h11, h12, h22) = profile(parts, t1, t2)
    for _ in range(8):
        det = h11 * h22 - h12 * h12
        if not (h11 < 0.0 and det > 0.0):
            break
        d1, d2 = (h12 * g2 - h22 * g1) / det, (h12 * g1 - h11 * g2) / det
        if (abs(d1) + abs(d2) <= 1e-15 or abs(t1 + d1 - theta1) > math.pi / 8
                or abs(t2 + d2 - theta2) > math.pi / 8):
            break
        trial = profile(parts, t1 + d1, t2 + d2)
        if trial[0] < value:
            break
        t1, t2 = t1 + d1, t2 + d2
        value, x, (g1, g2), (h11, h12, h22) = trial
    turns = [not -math.pi <= t < math.pi for t in (t1, t2)]
    t1, t2 = (t - math.copysign(2.0 * math.pi, t) * n for t, n in zip((t1, t2), turns))
    return t1, t2, (x[0], x[1], -x[2] if turns[0] != turns[1] else x[2]), value
