"""Completely positive trace-nonincreasing maps on two qubits.

A channel is held either as a weighted Kraus set ``E(rho) = sum_i w_i
K_i rho K_i_dag`` or as a 16x16 process matrix ``chi`` in a declared
operator basis. In the standard basis, ``chi`` is stored directly as the
density matrix of the channel's associated four-qubit state (acting the
channel on half of two unnormalized maximally entangled pairs), so a Kraus
set's process matrix is a sum of coefficient-vector outer products. No
renormalization ever happens implicitly; trace-decreasing and rate-scaled
channels keep their scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import BASIS_KINDS, STANDARD, build_basis, to_coeff_vector
from .linalg import dagger


@dataclass(frozen=True, eq=False)
class KrausSet:
    """Weighted Kraus operators ``[(w_i, K_i)]`` of a CP map on two qubits, immutable.

    Construction copies the operators: ``items`` is a tuple of ``(float,
    read-only 4x4 complex array)``, and ``weights`` (shape ``(n,)``) and
    ``ops`` (shape ``(n, 4, 4)``) stack them once, read-only, for the
    vectorized consumers; the caller's arrays are left as they were. When
    ``physical`` is set, the trace-nonincreasing condition (largest
    eigenvalue of ``sum_i w_i K_i_dag K_i`` at most 1) is enforced at
    construction. :func:`bsqpt.tomography.simulate_counts` keeps the
    channel's rate table for one input set in a private slot, so a channel
    simulated again on the same input set computes its rates once. Equality
    and the hash are by identity, the identity that slot belongs to.
    """

    items: tuple[tuple[float, np.ndarray], ...]
    physical: bool = False
    weights: np.ndarray = field(init=False, repr=False)
    ops: np.ndarray = field(init=False, repr=False)
    _rates: tuple | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        weights, ops = [], []
        for w, k in self.items:
            w = float(w)
            if w < 0.0:
                raise ValueError("Kraus weights must be nonnegative")
            k = np.asarray(k, dtype=complex)
            if k.shape != (4, 4):
                raise ValueError(f"Kraus operator has shape {k.shape}, expected (4, 4)")
            weights.append(w)
            ops.append(k)
        # np.array copies; the reshape gives an empty set the shape (0, 4, 4).
        weights = np.array(weights)
        ops = np.array(ops, dtype=complex).reshape(-1, 4, 4)
        for a in (weights, ops):
            a.setflags(write=False)
        # Each item's operator is a view of the read-only stack.
        object.__setattr__(self, "items", tuple(zip(weights.tolist(), ops)))
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "ops", ops)
        if self.physical:
            top = float(np.linalg.eigvalsh(self.total_effect())[-1])
            if top > 1.0 + 1e-9:
                raise ValueError(f"map increases trace: max eigenvalue {top} of sum w K_dag K")

    def total_effect(self) -> np.ndarray:
        """The effect operator ``sum_i w_i K_i_dag K_i``."""
        return sum(w * (dagger(k) @ k) for w, k in self.items)


@dataclass
class ProcessMatrix:
    """A 16x16 Hermitian process matrix and its basis tag; only the tag and shape are checked."""

    basis: str
    m: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.basis not in BASIS_KINDS:
            raise ValueError(f"unknown basis tag {self.basis!r}")
        self.m = np.asarray(self.m, dtype=complex)
        if self.m.shape != (16, 16):
            raise ValueError(f"process matrix has shape {self.m.shape}, expected (16, 16)")


def apply_kraus(ks: KrausSet, rho: np.ndarray) -> np.ndarray:
    """Apply the operator sum ``sum_i w_i K_i rho K_i_dag``.

    ``rho`` may be one 4x4 matrix or a stack of shape ``(..., 4, 4)``;
    every matrix in the stack is mapped at once.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape[-2:] != (4, 4):
        raise ValueError(f"state has shape {rho.shape}, expected (..., 4, 4)")
    out = np.zeros(rho.shape, dtype=complex)
    for w, k in ks.items:
        out += w * (k @ rho @ dagger(k))
    return out


def apply_process_matrix(chi: ProcessMatrix, rho: np.ndarray) -> np.ndarray:
    """Apply ``E(rho) = sum_ab chi[a,b] A_a rho A_b_dag`` in the basis ``chi`` is tagged with."""
    el = np.stack(build_basis(chi.basis).elements)
    return np.einsum("ab,aij,jk,blk->il", chi.m, el, np.asarray(rho, dtype=complex), el.conj())


def choi_from_kraus(ks: KrausSet) -> ProcessMatrix:
    """Standard-basis process matrix of a Kraus set.

    Expanding each operator in the standard basis gives coefficient
    vectors ``c_i``; the process matrix is the weighted sum of their
    outer products, hence Hermitian, PSD and of rank at most the number
    of Kraus items.
    """
    m = np.zeros((16, 16), dtype=complex)
    for w, k in ks.items:
        c = to_coeff_vector(k)
        m += w * np.outer(c, c.conj())
    return ProcessMatrix(STANDARD, m)


def assemble_choi_from_map(outputs: np.ndarray) -> ProcessMatrix:
    """Build the standard-basis process matrix from the channel's outputs.

    ``outputs[4*k + l]`` is ``E(X_k (x) X_l)``, one 4x4 matrix per
    standard element, stacked to shape ``(16, 4, 4)``. The entry
    ``chi[(r1 i1 r2 i2), (s1 j1 s2 j2)]`` is
    ``<r1 r2| E(|i1 i2><j1 j2|) |s1 s2>``, so the process matrix is the
    stacked outputs, whose axes run ``(i1 j1 i2 j2)(r1 r2)(s1 s2)``, with
    each output qubit index moved beside the input index of the same
    qubit. This is the reconstruction route used by tomography: it needs
    only the outputs on the standard elements, no matrix inversion.
    """
    outputs = np.asarray(outputs, dtype=complex)
    if outputs.shape != (16, 4, 4):
        raise ValueError(
            f"a map table needs all 16 outputs as 4x4 matrices, got shape {outputs.shape}"
        )
    m = outputs.reshape((2,) * 8).transpose(4, 0, 5, 2, 6, 1, 7, 3).reshape(16, 16)
    return ProcessMatrix(STANDARD, m)


def transform_process_matrix(chi: ProcessMatrix, target: str) -> ProcessMatrix:
    """Re-express a process matrix in the operator basis tagged ``target``.

    Transformation is by conjugation with the target basis unitary
    (``u_dag chi u`` going out of the standard basis), so eigenvalues and
    trace are preserved and round trips are exact to rounding.
    """
    return ProcessMatrix(target, change_basis(chi.m, chi.basis, target))


def change_basis(m: np.ndarray, source: str, target: str) -> np.ndarray:
    """:func:`transform_process_matrix` on a bare 16x16 array ``m`` in basis ``source``."""
    if source != STANDARD:
        b = build_basis(source)
        m = b.u_matrix @ m @ b.u_dagger
    if target != STANDARD:
        b = build_basis(target)
        m = b.u_dagger @ m @ b.u_matrix
    return m
