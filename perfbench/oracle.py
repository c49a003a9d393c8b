"""Independent correctness oracle for the benchmark.

Everything here is built with numpy alone from the documented conventions
(qubit 0 leftmost, ``[kl] = 4*k + l``, standard elements ``|i><j|`` with
``k = 2*i + j``), never from ``bsqpt`` code, so a defect in the package's
reconstruction, basis transform or filter model cannot also bend the check
that is meant to catch it.

The tomography protocol is a fixed complex-linear map from the 256 entries
of the standard-basis process matrix to the 256 expected counts,
``counts[n, m] = sum_ab chi_ab Tr(Pi_m A_a rho_n A_b_dag)``. The oracle
builds that map once and inverts it with ``np.linalg.pinv``.
"""

from __future__ import annotations

import math

import numpy as np

REL_TOL = 1e-9

_KETS = (
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / math.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / math.sqrt(2.0),
)
_SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
_SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


class CheckFailed(Exception):
    """An output of the program disagreed with the oracle."""


def _unit(k: int) -> np.ndarray:
    u = np.zeros((2, 2), dtype=complex)
    u[k // 2, k % 2] = 1.0
    return u


def standard_elements() -> np.ndarray:
    """The 16 two-qubit standard elements ``X_k (x) X_l`` at index ``4*k + l``."""
    return np.stack([np.kron(_unit(k), _unit(l)) for k in range(4) for l in range(4)])


def filter_basis_unitary() -> np.ndarray:
    """Column ``alpha`` holds the standard-basis coefficients of the F element
    ``(sigma_i (x) sigma_j) SWAP / 2`` with ``alpha = 4*i + j``."""
    std = standard_elements()
    f = [np.kron(_SIGMA[i], _SIGMA[j]) @ _SWAP / 2.0 for i in range(4) for j in range(4)]
    return np.array([[np.trace(x.conj().T @ a) for a in f] for x in std])


def filter_kraus(ratio: float, theta1: float, theta2: float, p: float, scale: float = 1.0):
    """Weighted Kraus pair ``[(1-p, P-), (p, P+)]`` with ``P-+ = T I -+ R U3 SWAP``."""
    t = 1.0 / (1.0 + ratio)
    r = ratio * t
    u3 = np.diag([
        np.exp(0.5j * (theta1 - theta2)),
        -np.exp(0.5j * (theta1 + theta2)),
        -np.exp(-0.5j * (theta1 + theta2)),
        np.exp(-0.5j * (theta1 - theta2)),
    ])
    v = u3 @ _SWAP
    eye = np.eye(4, dtype=complex)
    return [(1.0 - p, scale * (t * eye - r * v)), (p, scale * (t * eye + r * v))]


def decoherence(tau_fs: float, tau_c_fs: float, mu: float) -> float:
    """Gaussian-overlap decoherence degree ``p = (1 - mu exp(-tau^2/(2 tau_c^2))) / 2``."""
    return 0.5 * (1.0 - mu * math.exp(-(tau_fs**2) / (2.0 * tau_c_fs**2)))


def chi_from_kraus(items) -> np.ndarray:
    """Standard-basis process matrix ``sum_i w_i c_i c_i_dag``, ``c_i[a] = Tr(A_a_dag K_i)``."""
    std = standard_elements()
    chi = np.zeros((16, 16), dtype=complex)
    for w, k in items:
        c = np.einsum("aij,ij->a", std.conj(), k)
        chi += w * np.outer(c, c.conj())
    return chi


def apply_kraus(items, rho: np.ndarray) -> np.ndarray:
    return sum(w * (k @ rho @ k.conj().T) for w, k in items)


def project_psd(m: np.ndarray) -> np.ndarray:
    """Frobenius-nearest PSD matrix: clip the negative eigenvalues."""
    w, v = np.linalg.eigh(0.5 * (m + m.conj().T))
    return (v * np.clip(w, 0.0, None)) @ v.conj().T


def rel_err(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / max(np.linalg.norm(want), 1e-300))


def expect_close(what: str, got: np.ndarray, want: np.ndarray, tol: float = REL_TOL) -> None:
    err = rel_err(np.asarray(got), np.asarray(want))
    if not err <= tol:
        raise CheckFailed(f"{what}: relative error {err:.3e} exceeds {tol:.0e}")


class Oracle:
    """The protocol's forward map, its pseudo-inverse and the F-basis unitary."""

    def __init__(self) -> None:
        states = [np.outer(v, v.conj()) for v in (np.kron(a, b) for a in _KETS for b in _KETS)]
        rho = np.stack(states)
        projectors = rho
        std = standard_elements()
        # forward[(n, m), (a, b)] = Tr(Pi_m A_a rho_n A_b_dag)
        t = np.einsum("mki,aij,njl,bkl->nmab", projectors, std, rho, std.conj(), optimize=True)
        self.forward = t.reshape(256, 256)
        self.inverse = np.linalg.pinv(self.forward)
        self.condition = float(np.linalg.cond(self.forward))
        self.u_f = filter_basis_unitary()

    def counts(self, chi_s: np.ndarray, total_scale: float) -> np.ndarray:
        """Expected noiseless count table of a standard-basis process matrix."""
        return total_scale * (self.forward @ chi_s.reshape(256)).real.reshape(16, 16)

    def reconstruct(self, counts: np.ndarray) -> np.ndarray:
        """Standard-basis process matrix by pseudo-inverse of the forward map."""
        return (self.inverse @ np.asarray(counts, dtype=complex).reshape(256)).reshape(16, 16)

    def to_f(self, chi_s: np.ndarray) -> np.ndarray:
        return self.u_f.conj().T @ chi_s @ self.u_f
