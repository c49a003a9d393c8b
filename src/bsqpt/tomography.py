"""Coincidence-measurement simulation and linear-inversion reconstruction.

The measurement protocol prepares the 16 separable products of the four
single-qubit states {|0>, |1>, |+>, |L>} (|+> = (|0>+|1>)/sqrt2,
|L> = (|0>+i|1>)/sqrt2), sends each through the channel and projects the
output onto the same 16 product states. Both directions are fixed linear
maps, built once by :func:`build_input_set` from one inversion of the
single-qubit frame:

* simulation works on amplitudes. Inputs and projectors are the same
  pure product kets ``|psi_n>`` (``InputStateSet.kets``), so the expected
  rate ``Tr(Pi_m E(rho_n))`` is ``sum_i w_i |<psi_m|K_i|psi_n>|^2``. One
  stacked product ``kets @ K_i^T @ kets^dag`` gives every amplitude of every
  Kraus operator, and the weighted sum of their squared moduli gives all
  256 rates, which are nonnegative by construction;
* reconstruction is two 16x16 matrix products. The dual frame ``D_m`` of
  the products is biorthogonal to them, ``Tr(Pi_m D_n) = delta_mn``, so
  it gives both factors: the decomposition coefficients
  ``coeffs[a, n] = Tr(D_n X_a)`` (``X_a = sum_n coeffs[a, n] rho_n``)
  combine the input rows of the count table, and ``D_m`` turns each
  combined row into an operator, giving the channel's outputs
  ``E(X_a) = sum_nm coeffs[a, n] counts[n, m] D_m`` on the standard
  elements. The process matrix is a fixed axis reordering of those
  outputs.

Nothing is renormalized, so an overall count-rate factor propagates into
the reconstructed matrix unchanged, and nothing forces positivity; PSD
repair is an explicit, optional post-step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bases import to_coeff_vector
from .channel import KrausSet, ProcessMatrix, assemble_choi_from_map
from .linalg import projector

_KETS = np.stack([
    np.array([1.0, 0.0], dtype=complex),
    np.array([0.0, 1.0], dtype=complex),
    np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
])
# numpy's Generator.poisson rejects a mean above this ("lam value too large").
_POISSON_MAX = float(np.iinfo(np.int64).max - 10.0 * np.sqrt(np.iinfo(np.int64).max))


@dataclass(frozen=True)
class InputStateSet:
    """The four single-qubit preparation states, their 16 products and the inversion maps.

    ``products[4*i + j] = singles[i] (x) singles[j]``; the same products
    serve as the measurement projectors. Each product is pure, and
    ``kets`` (shape ``(16, 4)``) holds the product kets, with
    ``|kets[n]><kets[n]| = products[n]``, so simulation can work on
    amplitudes. The products are linearly
    independent; ``gram_condition`` reports the condition number of their
    Gram matrix as a health figure for the inversion. ``duals[m]`` is the
    dual-frame operator of projector ``m``, so any two-qubit operator
    equals ``sum_m Tr(products[m] A) duals[m]``. The two frames are
    biorthogonal, so ``coeffs[a, n] = Tr(duals[n] X_a)`` is read off the
    duals and writes the standard element ``X_a`` as ``sum_n coeffs[a, n]
    products[n]`` (checked to 1e-12 at construction). All arrays are
    read-only.
    """

    singles: np.ndarray
    products: np.ndarray
    kets: np.ndarray
    gram_condition: float
    coeffs: np.ndarray
    duals: np.ndarray


@dataclass
class CountTable:
    """Coincidence record: one row per input state, one column per projector."""

    counts: np.ndarray
    total_scale: float = 1.0
    noise_seed: int | None = None

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=float)
        if self.counts.shape != (16, 16):
            raise ValueError(f"count table has shape {self.counts.shape}, expected (16, 16)")
        if np.any(self.counts < 0.0):
            raise ValueError("counts must be nonnegative")


def _pairs(singles: np.ndarray) -> np.ndarray:
    """All 16 products ``singles[i] (x) singles[j]``, stacked at ``4*i + j``."""
    return np.einsum("iab,jcd->ijacbd", singles, singles).reshape(16, 4, 4)


def _single_qubit_duals(singles: np.ndarray) -> np.ndarray:
    # Rows of b are the vectorized projectors; the dual-frame operators are
    # the columns of b^-1, Hermitized to kill rounding asymmetry.
    b = singles.conj().reshape(4, 4)
    d = np.linalg.inv(b).T.reshape(4, 2, 2)
    return 0.5 * (d + d.conj().transpose(0, 2, 1))


def build_input_set() -> InputStateSet:
    """The standard four-state preparation set, its products and inversion maps."""
    singles = np.stack([projector(k) for k in _KETS])
    products = _pairs(singles)
    kets = np.einsum("ia,jb->ijab", _KETS, _KETS).reshape(16, 4)
    flat = products.reshape(16, 16)
    gram = flat.conj() @ flat.T
    cond = float(np.linalg.cond(gram))
    if not np.isfinite(cond):
        raise ValueError("input product states are linearly dependent")
    duals = _pairs(_single_qubit_duals(singles))
    # Biorthogonality gives X_a = sum_n Tr(duals[n]_dag X_a) products[n].
    coeffs = to_coeff_vector(duals).conj().T
    if np.max(np.abs(coeffs @ to_coeff_vector(products) - np.eye(16))) > 1e-12:
        raise ValueError("input set failed to reproduce the standard elements")
    for a in (singles, products, kets, coeffs, duals):
        a.setflags(write=False)
    return InputStateSet(singles=singles, products=products, kets=kets, gram_condition=cond,
                         coeffs=coeffs, duals=duals)


def simulate_counts(
    channel: KrausSet,
    inputs: InputStateSet,
    total_scale: float = 1.0,
    noise: str | None = None,
    seed: int | None = None,
) -> CountTable:
    """Simulate the coincidence record of the measurement protocol.

    Expected rate for input n and projector m is
    ``total_scale * Tr(Pi_m E(rho_n)) = total_scale * sum_i w_i
    |<psi_m|K_i|psi_n>|^2``, with the projectors equal to the input
    products; a channel with no Kraus operators gives all zeros. With
    ``noise="poisson"`` each entry is replaced by a Poisson draw with that
    mean, reproducibly for a given seed; the default is the noiseless
    expected-rate table, which records no seed.
    ``total_scale`` must be finite and positive, and so must its product
    with the largest rate; with Poisson noise that product must stay
    within numpy's sampler limit.
    """
    if not (math.isfinite(total_scale) and total_scale > 0.0):
        raise ValueError(f"total_scale must be finite and positive, got {total_scale!r}")
    if noise not in (None, "poisson"):
        raise ValueError(f"unknown noise mode {noise!r}")
    # np.array, not np.stack, so that an empty Kraus set gives shape (0, 4, 4).
    weights = np.array([w for w, _ in channel.items])
    ops = np.array([k for _, k in channel.items]).reshape(-1, 4, 4)
    # amp[i, n, m] = <psi_m|K_i|psi_n>
    amp = inputs.kets @ ops.swapaxes(1, 2) @ inputs.kets.conj().T
    rates = (weights @ (amp.real**2 + amp.imag**2).reshape(-1, 256)).reshape(16, 16)
    # A Python float product overflows to inf without a numpy warning.
    peak = total_scale * float(rates.max())
    if not math.isfinite(peak):
        raise ValueError(f"total_scale={total_scale!r} times the largest rate is not finite")
    if noise == "poisson" and peak > _POISSON_MAX:
        raise ValueError(f"total_scale={total_scale!r} gives a count above the Poisson "
                         f"sampler's limit: {peak:.3g} > {_POISSON_MAX:.3g}")
    counts = total_scale * rates
    if noise != "poisson":
        return CountTable(counts=counts, total_scale=total_scale)
    counts = np.random.default_rng(seed).poisson(counts).astype(float)
    return CountTable(counts=counts, total_scale=total_scale, noise_seed=seed)


def reconstruct_process(ct: CountTable, inputs: InputStateSet) -> ProcessMatrix:
    """Reconstruct the standard-basis process matrix from a count table.

    ``coeffs @ counts`` combines the input rows into the records of the
    standard elements, the dual frame turns each record into the channel's
    output ``E(X_a)``, and the process matrix is assembled from that map
    table. On noiseless data this equals the process matrix of the true
    channel times ``total_scale``.
    """
    outputs = inputs.coeffs @ ct.counts @ inputs.duals.reshape(16, 16)
    return assemble_choi_from_map(outputs.reshape(16, 4, 4))
