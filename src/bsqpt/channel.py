"""Completely positive trace-nonincreasing maps on two qubits.

A channel is held either as a weighted Kraus set ``E(rho) = sum_i w_i
K_i rho K_i_dag`` or as a 16x16 process matrix ``chi`` in a declared
operator basis. In the standard basis, ``chi`` is stored directly as the
density matrix of the channel's associated four-qubit state (acting the
channel on half of two unnormalized maximally entangled pairs), so
converting between the two representations is an eigendecomposition in
one direction and a sum of coefficient-vector outer products in the
other. No renormalization ever happens implicitly; trace-decreasing and
rate-scaled channels keep their scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bases import BASIS_KINDS, STANDARD, build_basis, from_coeff_vector, to_coeff_vector
from .linalg import dagger

@dataclass
class KrausSet:
    """Weighted Kraus operators ``[(w_i, K_i)]`` of a CP map on two qubits.

    Weights are kept separate from the operators so that mixing
    probabilities stay visible to the fitting layer. When ``physical``
    is set, the trace-nonincreasing condition (largest eigenvalue of
    ``sum_i w_i K_i_dag K_i`` at most 1) is enforced at construction.
    """

    items: list[tuple[float, np.ndarray]]
    physical: bool = False

    def __post_init__(self) -> None:
        cleaned = []
        for w, k in self.items:
            w = float(w)
            if w < 0.0:
                raise ValueError("Kraus weights must be nonnegative")
            k = np.asarray(k, dtype=complex)
            if k.shape != (4, 4):
                raise ValueError(f"Kraus operator has shape {k.shape}, expected (4, 4)")
            cleaned.append((w, k))
        self.items = cleaned
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


def kraus_from_process_matrix(chi: ProcessMatrix, tol: float = 1e-6) -> KrausSet:
    """Extract a Kraus set from a standard-basis process matrix by eigendecomposition.

    The tolerance is interpreted relative to the trace of ``chi`` (an
    absolute tolerance on the unit-trace normalization). Eigenvalues below
    ``-tol`` mean the matrix is not completely positive and raise
    ``ValueError``; eigenpairs with eigenvalue above ``tol`` become
    ``(weight, operator)`` items.
    """
    if chi.basis != STANDARD:
        raise ValueError("Kraus extraction expects a standard-basis process matrix")
    m = 0.5 * (chi.m + dagger(chi.m))
    tr = float(np.trace(m).real)
    ref = tr if tr > 0.0 else 1.0
    w, v = np.linalg.eigh(m)
    if w[0] < -tol * ref:
        raise ValueError(
            f"not completely positive: eigenvalue {w[0]:.3e} below -{tol:.1e} x trace"
        )
    items = [
        (float(w[a]), from_coeff_vector(v[:, a]))
        for a in range(16)
        if w[a] > tol * ref
    ]
    return KrausSet(items)


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
    m = chi.m
    if chi.basis != STANDARD:
        u_src = build_basis(chi.basis).u_matrix
        m = u_src @ m @ dagger(u_src)
    if target != STANDARD:
        u = build_basis(target).u_matrix
        m = dagger(u) @ m @ u
    return ProcessMatrix(target, m)
