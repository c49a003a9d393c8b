"""Operator bases for two-qubit process matrices.

Four bases of the 16-dimensional two-qubit operator space are supported,
tagged by a single letter:

* ``"S"`` standard: matrix units ``|i><j| (x) |k><l|``,
* ``"B"`` Pauli products: ``(sigma_k (x) sigma_l) / 2``,
* ``"C"`` Bell-state outer products ``|Phi_k><Phi_l|``,
* ``"F"`` swap-twisted Pauli products ``(sigma_i (x) sigma_j) U_swap / 2``.

A pair of single-side labels (k, l) is flattened as ``[kl] = 4*k + l``
everywhere in this package. All four bases are orthonormal under the
Hilbert-Schmidt inner product ``Tr(A_dag B)``. Each basis carries the
16x16 unitary ``u_matrix`` whose column ``alpha`` holds the expansion
coefficients of element ``alpha`` in the standard basis; elements are
always generated from their defining formulas and the unitarity of
``u_matrix`` is verified at construction time, so a transcription error
cannot survive silently; :func:`to_coeff_vector` is that expansion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .linalg import SIGMA, SWAP, bell_state, dagger

STANDARD = "S"
PAULI_KRON = "B"
BELL = "C"
FILTER = "F"
BASIS_KINDS = (STANDARD, PAULI_KRON, BELL, FILTER)


def standard_element(k: int) -> np.ndarray:
    """Single-qubit standard basis element ``|i><j|`` with ``k = 2*i + j``."""
    if not 0 <= k <= 3:
        raise ValueError("standard basis index must be in 0..3")
    m = np.zeros((2, 2), dtype=complex)
    m[k // 2, k % 2] = 1.0
    return m


def pauli_element(k: int) -> np.ndarray:
    """Single-qubit normalized Pauli element ``sigma_k / sqrt(2)``."""
    if not 0 <= k <= 3:
        raise ValueError("Pauli basis index must be in 0..3")
    return SIGMA[k] / np.sqrt(2.0)


def to_coeff_vector(op: np.ndarray) -> np.ndarray:
    """Expansion coefficients of a two-qubit operator in the standard basis.

    Component ``[kl] = 4*k + l`` equals ``Tr((X_k (x) X_l)_dag K)``; for
    matrix units this is a fixed reindexing of the operator's entries.
    A stack of shape ``(..., 4, 4)`` maps to ``(..., 16)``.
    """
    op = np.asarray(op, dtype=complex)
    lead = op.shape[:-2]
    return op.reshape(lead + (2, 2, 2, 2)).swapaxes(-3, -2).reshape(lead + (16,))


@dataclass(frozen=True)
class OperatorBasis:
    """An ordered, Hilbert-Schmidt-orthonormal set of 16 two-qubit operators.

    ``u_matrix[mu, alpha] = Tr((X_mu)_dag A_alpha)`` relates element
    ``A_alpha`` to the standard elements ``X_mu``, and is unitary.
    ``u_dagger`` is its conjugate transpose, built once here because every
    change of basis multiplies by it. Both are read-only.
    """

    kind: str
    elements: tuple[np.ndarray, ...]
    u_matrix: np.ndarray
    u_dagger: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u_dagger = dagger(self.u_matrix)
        u_dagger.setflags(write=False)
        object.__setattr__(self, "u_dagger", u_dagger)


def _elements_for(kind: str) -> list[np.ndarray]:
    pairs = [(k, l) for k in range(4) for l in range(4)]
    if kind == STANDARD:
        return [np.kron(standard_element(k), standard_element(l)) for k, l in pairs]
    if kind == PAULI_KRON:
        return [np.kron(pauli_element(k), pauli_element(l)) for k, l in pairs]
    if kind == BELL:
        return [np.outer(bell_state(k), bell_state(l).conj()) for k, l in pairs]
    if kind == FILTER:
        return [np.kron(pauli_element(i), pauli_element(j)) @ SWAP for i, j in pairs]
    raise ValueError(f"unknown basis kind {kind!r}; expected one of {BASIS_KINDS}")


@lru_cache(maxsize=None)
def build_basis(kind: str) -> OperatorBasis:
    """Construct one of the named bases, deriving its change-of-basis unitary.

    Column ``alpha`` of the unitary is the :func:`to_coeff_vector` expansion
    of element ``alpha``; a failed unitarity check would indicate an
    internal inconsistency and raises ``RuntimeError``.
    """
    elements = _elements_for(kind)
    u = to_coeff_vector(np.stack(elements)).T
    if np.max(np.abs(dagger(u) @ u - np.eye(16))) > 1e-12:
        raise RuntimeError(f"change-of-basis matrix for kind {kind!r} is not unitary")
    for e in elements:
        e.setflags(write=False)
    u.setflags(write=False)
    return OperatorBasis(kind=kind, elements=tuple(elements), u_matrix=u)
