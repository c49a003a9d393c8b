"""Physics model of a nonideal beamsplitter acting as a two-qubit state filter.

Two photons, one per input port, meet at a beamsplitter and only
coincidences (one photon per output port) are kept. Two indistinguishable
amplitudes survive the post-selection: both photons transmitted, or both
reflected. Their coherent sum acts on the polarization pair as

    P_minus = T * I  -  R * U3(theta1, theta2) * SWAP

where T and R are the intensity transmission and reflection, SWAP
accounts for the reflected photons changing ports, and the diagonal
unitary U3 collects the polarization-dependent reflection phases
(including the sign flip of circular-polarization handedness on
reflection, which is why the ideal 50/50 filter at theta = 0 projects
onto the triplet |01>+|10> rather than the singlet). Imperfect temporal
overlap of the two amplitudes admixes the orthogonal combination

    P_plus = T * I  +  R * U3(theta1, theta2) * SWAP

with weight p in [0, 1/2], giving the two-operator mixture
``E(rho) = (1-p) P- rho P-_dag + p P+ rho P+_dag``. The same channel
falls out of an explicit polarization (x) temporal model after tracing
out the temporal factor, with p = (1 - |s|^2) / 2 set by the wavepacket
overlap s; both routes are implemented here and checked against each
other in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import KrausSet
from .linalg import SWAP, dagger, kron, partial_trace

#: The physical range of the decoherence degree p = (1 - |s|^2) / 2.
P_RANGE = (0.0, 0.5)

_I4 = np.eye(4, dtype=complex)
# Signs of the reflected amplitude in (P-, P+).
_SIGNS = np.array([-1.0, 1.0]).reshape(2, 1, 1)
# Signs of the diagonal of U3 (see u3).
_U3_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])
#: The phase rates of U3: its diagonal is ``exp(i (theta1, theta2) @ U3_RATES)``
#: times the signs ``(1, -1, -1, 1)``.
U3_RATES = 0.5 * np.array([[1.0, 1.0, -1.0, -1.0], [-1.0, 1.0, -1.0, 1.0]])


@dataclass(frozen=True)
class FilterParams:
    """Beamsplitter filter parameters.

    ``T`` and ``R`` are intensity coefficients (a lossless splitter has
    T + R = 1, which :meth:`from_ratio` enforces), ``theta1``/``theta2``
    the reflection phase angles in radians and ``p`` the degree of
    decoherence. ``scale`` multiplies both filter operators, so every rate
    and every process matrix carries ``scale**2``. theta1 and theta2
    are independent even though the ideal optics forces them equal; a
    real splitter need not cooperate, so the fit model keeps both.
    """

    T: float
    R: float
    theta1: float = 0.0
    theta2: float = 0.0
    p: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        lo, hi = P_RANGE
        if not lo - 1e-12 <= self.p <= hi + 1e-12:
            raise ValueError(f"decoherence degree p={self.p} outside [{lo}, {hi}]")
        # Clamped within the tolerance, so both mixture weights are nonnegative.
        object.__setattr__(self, "p", min(max(self.p, lo), hi))
        if self.T <= 0.0:
            raise ValueError("transmission must be positive")
        if self.R < 0.0:
            raise ValueError("reflection must be nonnegative")
        if self.scale <= 0.0:
            raise ValueError("scale must be positive")

    @classmethod
    def from_ratio(
        cls,
        ratio_rt: float,
        theta1: float = 0.0,
        theta2: float = 0.0,
        p: float = 0.0,
        scale: float = 1.0,
    ) -> "FilterParams":
        """Build from the measurable ratio R/T, normalizing to T + R = 1."""
        if ratio_rt <= 0.0:
            raise ValueError("ratio R/T must be positive")
        t = 1.0 / (1.0 + ratio_rt)
        return cls(T=t, R=ratio_rt * t, theta1=theta1, theta2=theta2, p=p, scale=scale)

    @property
    def ratio_rt(self) -> float:
        return self.R / self.T


@dataclass(frozen=True)
class BSOptics:
    """Optics-level beamsplitter description.

    ``gamma`` and ``delta`` are the reflection phase shifts of the field
    components polarized parallel (H) and perpendicular (V) to the plane
    of incidence, in radians; the H component additionally picks up the
    abrupt pi jump tied to the reversal of the propagation vector, which
    is applied internally and is not part of ``gamma``.
    """

    T: float
    R: float
    gamma: float = 0.0
    delta: float = 0.0

    def __post_init__(self) -> None:
        if abs(self.T + self.R - 1.0) > 1e-12:
            raise ValueError("intensity coefficients must satisfy T + R = 1")
        if self.T <= 0.0 or self.R < 0.0:
            raise ValueError("need T > 0 and R >= 0")


def u3(theta1: float, theta2: float) -> np.ndarray:
    """The reflection-phase unitary ``exp(i theta1 Z/2) Z (x) exp(-i theta2 Z/2) Z``.

    Diagonal with entries ``(e^{i(t1-t2)/2}, -e^{i(t1+t2)/2},
    -e^{-i(t1+t2)/2}, e^{-i(t1-t2)/2})``.
    """
    return np.diag(np.exp(1j * (np.array([theta1, theta2]) @ U3_RATES)) * _U3_SIGNS)


def filter_operators(t: float, r: float, theta1: float, theta2: float) -> np.ndarray:
    """The unit-scale filter operators ``P-/+ = t I -/+ r U3(theta1, theta2) SWAP``.

    Returned stacked as a ``(2, 4, 4)`` array, ``P-`` first. :func:`kraus_pair`
    and :func:`hom_dip` build the operators here and multiply them by
    ``scale`` once.
    """
    return t * _I4 + _SIGNS * (r * (u3(theta1, theta2) @ SWAP))


def kraus_pair(fp: FilterParams) -> KrausSet:
    """The filter's two-operator Kraus set ``[(1-p, P-), (p, P+)]``.

    ``scale`` multiplies both operators, so the induced channel (and any
    process matrix built from it) carries ``scale**2``.
    """
    p_minus, p_plus = fp.scale * filter_operators(fp.T, fp.R, fp.theta1, fp.theta2)
    return KrausSet([(1.0 - fp.p, p_minus), (fp.p, p_plus)])


def kraus_pair_from_optics(bs: BSOptics, p: float = 0.0, scale: float = 1.0) -> KrausSet:
    """Derive the filter Kraus pair from the beamsplitter field relations.

    For each polarization pair the two coincidence amplitudes are
    expanded literally: transmission contributes ``T`` with the photons
    keeping their ports, reflection contributes
    ``(i e^{-i phi_in})(i e^{+i phi_other}) R`` with the photons swapping
    ports, where ``phi = gamma + pi`` for H (the pi from the abrupt p-s
    phase jump) and ``phi = delta`` for V. Qubit labels are then fixed by
    the convention that detector 1 sits in the port fed by reflection of
    input 1, realized as a relabeling swap on both sides; under that
    convention the coherent sum is exactly ``T I - R U3(theta, theta)
    SWAP`` with ``theta = delta - gamma``, and the noise operator is the
    same sum with the reflected amplitude's sign flipped.
    """
    phase = (bs.gamma + np.pi, bs.delta)
    sqrt_r = np.sqrt(bs.R)
    minus = np.zeros((4, 4), dtype=complex)
    plus = np.zeros((4, 4), dtype=complex)
    for mu in (0, 1):
        for nu in (0, 1):
            col = 2 * mu + nu
            minus[col, col] += bs.T
            plus[col, col] += bs.T
            rr = (1j * np.exp(-1j * phase[mu]) * sqrt_r) * (1j * np.exp(1j * phase[nu]) * sqrt_r)
            minus[2 * nu + mu, col] += rr
            plus[2 * nu + mu, col] -= rr
    minus = SWAP @ minus @ SWAP
    plus = SWAP @ plus @ SWAP
    return KrausSet([(1.0 - p, scale * minus), (p, scale * plus)])


def decoherence_from_delay(
    tau_fs: float | np.ndarray, tau_c_fs: float, mu: float = 1.0
) -> float | np.ndarray:
    """The decoherence degree ``p = (1 - |s|^2)/2`` at a path delay, elementwise.

    Uses the Gaussian overlap model ``|s|^2 = mu exp(-tau^2/(2 tau_c^2))``
    on a scalar or an array of delays, so p is zero only for perfectly
    matched modes at zero delay and tends to 1/2 as the delay grows. A
    delay whose square overflows gives exactly 1/2. The Gaussian law and
    the mode-match factor ``mu`` are modelling choices exposed as
    configuration, not constants.
    """
    with np.errstate(over="ignore"):
        width = 2.0 * np.float64(tau_c_fs) ** 2
    if not (tau_c_fs > 0.0 and 0.0 < width < np.inf):
        raise ValueError("coherence time must be positive, with a finite non-zero square")
    if not 0.0 <= mu <= 1.0:
        raise ValueError("mode-match factor must lie in [0, 1]")
    # An overflowing square is the intended saturation: exp(-inf) = 0.
    with np.errstate(over="ignore"):
        s2 = mu * np.exp(-(np.asarray(tau_fs, dtype=float) ** 2) / width)
    return 0.5 * (1.0 - s2)


def apply_pt_model(rho: np.ndarray, s: complex, fp: FilterParams) -> np.ndarray:
    """Apply the explicit polarization (x) temporal filter and trace out time.

    The temporal factor is realized as the two-dimensional span of the
    two wavepackets, orthonormalized internally; only their overlap ``s``
    (``|s| <= 1``) matters. Transmission leaves the temporal state alone,
    reflection swaps it along with the polarizations. ``fp.p`` is ignored,
    the decoherence here comes entirely from the overlap; the result equals
    the two-operator mixture at ``p = (1 - |s|^2)/2``.
    """
    s = complex(s)
    if abs(s) > 1.0 + 1e-12:
        raise ValueError(f"wavepacket overlap |s|={abs(s)} exceeds 1")
    rho = np.asarray(rho, dtype=complex)

    wp_a = np.array([1.0, 0.0], dtype=complex)
    wp_b = np.array([s, np.sqrt(max(0.0, 1.0 - abs(s) ** 2))], dtype=complex)
    omega_ket = np.kron(wp_a, wp_b)
    omega = np.outer(omega_ket, omega_ket.conj())

    # The temporal factor swaps under reflection exactly like the
    # polarization pair, and both live on 2 (x) 2 spaces.
    v_pol = u3(fp.theta1, fp.theta2) @ SWAP
    p_pt = fp.scale * (fp.T * kron(_I4, _I4) - fp.R * kron(v_pol, SWAP))
    full = p_pt @ kron(rho, omega) @ p_pt.conj().T
    return partial_trace(full, (4, 4), keep=0)


def hom_dip(
    fp: FilterParams,
    tau_grid_fs: np.ndarray,
    tau_c_fs: float,
    mu: float = 1.0,
    rho: np.ndarray | None = None,
) -> np.ndarray:
    """Coincidence rate versus path delay, the two-photon interference dip.

    Returns an array of ``(tau_fs, rate)`` rows with
    ``rate = trace(E_p(tau)(rho))``, the channel's operators scaled as in
    :func:`kraus_pair`, so the rate carries ``scale**2``. For the
    both-horizontal input the closed form is
    ``scale^2 (T^2 + R^2 - 2 T R mu exp(-tau^2/(2 tau_c^2)))`` when
    theta1 = theta2.
    """
    if rho is None:
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
    # The channel is affine in p: map rho through P- and P+ once, then mix the diagonals.
    ops = fp.scale * filter_operators(fp.T, fp.R, fp.theta1, fp.theta2)
    minus, plus = (k @ rho @ dagger(k) for k in ops)
    tau = np.asarray(tau_grid_fs, dtype=float)
    p = decoherence_from_delay(tau, tau_c_fs, mu)[:, None]
    mixed = (1.0 - p) * minus.diagonal() + p * plus.diagonal()
    return np.column_stack([tau, mixed.sum(axis=1).real])


def hom_visibility(t: float, r: float, mu: float = 1.0) -> float:
    """Closed-form dip visibility ``2 T R mu / (T^2 + R^2)`` for an HH input."""
    # T and R scaled exactly, the larger into [1/2, 1), so no square underflows.
    k = math.frexp(max(t, r))[1]
    t, r = math.ldexp(t, -k), math.ldexp(r, -k)
    return 2.0 * t * r * mu / (t * t + r * r)
