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

DEFAULT_TOL = 1e-9

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


def permutation_operator(n_qubits: int, i: int, j: int) -> np.ndarray:
    """Unitary that swaps tensor factors ``i`` and ``j`` of an n-qubit register.

    The result is Hermitian and involutive. Qubit 0 is the most significant
    bit of the basis index.
    """
    if not (0 <= i < n_qubits and 0 <= j < n_qubits):
        raise ValueError(f"qubit indices ({i}, {j}) out of range for {n_qubits} qubits")
    dim = 2**n_qubits
    p = np.zeros((dim, dim), dtype=complex)
    for col in range(dim):
        bits = [(col >> (n_qubits - 1 - q)) & 1 for q in range(n_qubits)]
        bits[i], bits[j] = bits[j], bits[i]
        row = 0
        for b in bits:
            row = (row << 1) | b
        p[row, col] = 1.0
    return p


#: The two-qubit swap ``|i,j> -> |j,i>``.
SWAP = permutation_operator(2, 0, 1)


def is_hermitian(a: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    return bool(np.max(np.abs(a - dagger(a))) <= tol)


def is_psd(a: np.ndarray, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Positive-semidefiniteness check, returning ``(ok, min_eigenvalue)``.

    Raises ``ValueError`` on non-Hermitian input so that failure mode is
    reported distinctly from a genuinely negative spectrum.
    """
    a = np.asarray(a, dtype=complex)
    if not is_hermitian(a, tol):
        raise ValueError("matrix is not Hermitian within tolerance")
    w = np.linalg.eigvalsh(a)
    min_eig = float(w[0])
    return min_eig >= -tol, min_eig


def project_to_psd(a: np.ndarray) -> np.ndarray:
    """Nearest positive-semidefinite matrix: clip negative eigenvalues to zero.

    Inputs that are already PSD are returned unchanged, which makes the
    projection exactly idempotent on its own output up to rounding.
    """
    a = np.asarray(a, dtype=complex)
    w, v = np.linalg.eigh(a)
    if w[0] >= 0.0:
        return a
    w = np.clip(w, 0.0, None)
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


def _psd_sqrt(a: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(a)
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ dagger(v)


def fidelity(a: np.ndarray, b: np.ndarray) -> float:
    """Uhlmann fidelity of two Hermitian PSD matrices after trace normalization.

    Both inputs are divided by their traces first, so sub-normalized states
    compare on shape alone. Raises ``ValueError`` if either trace is not
    positive.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    ta = float(np.trace(a).real)
    tb = float(np.trace(b).real)
    if ta <= 0.0 or tb <= 0.0:
        raise ValueError("fidelity requires inputs with positive trace")
    sa = _psd_sqrt(a / ta)
    m = sa @ (b / tb) @ sa
    m = 0.5 * (m + dagger(m))
    w = np.clip(np.linalg.eigvalsh(m), 0.0, None)
    f = float(np.sum(np.sqrt(w)) ** 2)
    return float(np.clip(f, 0.0, 1.0))


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius norm of the difference ``a - b``."""
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)))
