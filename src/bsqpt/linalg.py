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


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a).conj().T


def projector(ket: np.ndarray) -> np.ndarray:
    """Rank-1 projector ``|psi><psi|``."""
    v = np.asarray(ket, dtype=complex)
    return np.outer(v, v.conj())


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
