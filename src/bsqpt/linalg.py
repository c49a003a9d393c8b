"""Dense complex matrix primitives and two-qubit state utilities.

Everything in this package works on plain numpy arrays with dtype
``complex128``. Conventions:

* qubit 0 is the leftmost (most significant) tensor factor, so the
  two-qubit basis ket ``|i,j>`` sits at row index ``2*i + j``;
* density matrices may be sub-normalized (trace below 1) because the
  filter channels modelled here are trace-decreasing;
* Bell states are ordered (phi+, phi-, psi+, psi-).
"""

from __future__ import annotations

import numpy as np

#: Pauli matrices sigma_0..sigma_3, with sigma_0 the identity.
SIGMA = (
    np.eye(2, dtype=complex),
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def kron(*factors: np.ndarray) -> np.ndarray:
    """Kronecker product of one or more operators, leftmost factor most significant."""
    out = np.asarray(factors[0], dtype=complex)
    for f in factors[1:]:
        out = np.kron(out, np.asarray(f, dtype=complex))
    return out


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def matrix_unit(i: int, j: int, dim: int = 2) -> np.ndarray:
    """The matrix unit ``|i><j|`` in dimension ``dim``."""
    m = np.zeros((dim, dim), dtype=complex)
    m[i, j] = 1.0
    return m


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector ``|psi><psi|``."""
    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj())


def partial_trace(a: np.ndarray, dims: tuple[int, int], keep: int) -> np.ndarray:
    """Trace out one factor of a bipartite operator.

    ``dims = (d1, d2)`` are the factor dimensions and ``keep`` selects the
    surviving factor (0 = left, 1 = right). The total trace is preserved:
    ``trace(result) == trace(a)``.
    """
    d1, d2 = dims
    a = np.asarray(a, dtype=complex)
    if a.shape != (d1 * d2, d1 * d2):
        raise ValueError(f"matrix shape {a.shape} does not match dims {dims}")
    t = a.reshape(d1, d2, d1, d2)
    if keep == 0:
        return np.einsum("ikjk->ij", t)
    if keep == 1:
        return np.einsum("kikj->ij", t)
    raise ValueError("keep must be 0 (left factor) or 1 (right factor)")


#: The two-qubit swap ``|i,j> -> |j,i>``.
SWAP = np.eye(4, dtype=complex)[[0, 2, 1, 3]]


def project_to_psd(a: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix: clip negative eigenvalues to zero.

    Inputs that are already PSD are returned unchanged, which makes the
    projection exactly idempotent on its own output up to rounding.
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    if w[0] >= 0.0:
        return a
    w = np.maximum(w, 0.0)
    return (v * w) @ dagger(v)


def bell_state(k: int) -> np.ndarray:
    """Bell state ket, ordered (phi+, phi-, psi+, psi-) for k = 0..3."""
    s = 1.0 / np.sqrt(2.0)
    table = (
        (s, 0.0, 0.0, s),
        (s, 0.0, 0.0, -s),
        (0.0, s, s, 0.0),
        (0.0, s, -s, 0.0),
    )
    return np.array(table[k], dtype=complex)
