"""Matrix primitive checks, including the worked examples done by hand."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    bell_state,
    dagger,
    project_to_psd,
)
from bsqpt.linalg import SIGMA, SWAP

from helpers import fidelity, random_density, random_hermitian, random_matrix

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


class TestDagger:
    def test_hermitian_fixed_point(self):
        assert_allclose(dagger(SIGMA[2]), SIGMA[2], atol=0)

    def test_basis_flip(self):
        e01 = np.array([[0, 1], [0, 0]], dtype=complex)
        assert_allclose(dagger(e01), e01.T, atol=0)

    def test_scalar_conjugation(self):
        assert_allclose(dagger(1j * I2), -1j * I2, atol=0)

    def test_involution(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng)
        assert_allclose(dagger(dagger(a)), a, atol=0)


class TestPermutationOperator:
    def test_two_qubit_swap(self):
        ket01 = np.array([0, 1, 0, 0], dtype=complex)
        ket10 = np.array([0, 0, 1, 0], dtype=complex)
        assert_allclose(SWAP @ ket01, ket10, atol=0)

    def test_involution_and_unitarity(self):
        assert_allclose(SWAP @ SWAP, np.eye(4), atol=0)
        assert_allclose(SWAP @ dagger(SWAP), np.eye(4), atol=0)
        assert_allclose(SWAP, dagger(SWAP), atol=0)

    def test_commutes_with_identical_factors(self):
        rng = np.random.default_rng(13)
        m = random_matrix(rng, 2)
        assert_allclose(SWAP @ np.kron(m, m), np.kron(m, m) @ SWAP, atol=1e-13)


class TestPsd:
    def test_projection_fixes_psd_exactly(self):
        rng = np.random.default_rng(21)
        rho = random_density(rng)
        assert project_to_psd(rho) is rho

    def test_projection_clips(self):
        assert_allclose(project_to_psd(np.diag([1.0, -1.0])), np.diag([1.0, 0.0]), atol=1e-15)

    def test_projection_idempotent(self):
        rng = np.random.default_rng(22)
        a = random_hermitian(rng)
        once = project_to_psd(a)
        assert_allclose(project_to_psd(once), once, atol=1e-12)

    def test_projection_never_moves_away(self):
        # Projecting a perturbed PSD matrix cannot increase the distance to
        # the unperturbed one (projection onto a convex set).
        rng = np.random.default_rng(23)
        for _ in range(10):
            rho = random_density(rng)
            noisy = rho + 0.1 * random_hermitian(rng)
            d_before = np.linalg.norm(noisy - rho)
            d_after = np.linalg.norm(project_to_psd(noisy) - rho)
            assert d_after <= d_before + 1e-12


class TestBellStates:
    def test_psi_plus_definition(self):
        s = 1 / np.sqrt(2)
        assert_allclose(bell_state(2), np.array([0, s, s, 0]), atol=0)

    def test_orthonormal(self):
        for i in range(4):
            for j in range(4):
                ip = np.vdot(bell_state(i), bell_state(j))
                assert_allclose(ip, 1.0 if i == j else 0.0, atol=1e-15)

    def test_maximally_entangled(self):
        rho = np.outer(bell_state(0), bell_state(0).conj())
        # Trace out the second qubit: |i,k><j,k| summed over k.
        assert_allclose(np.einsum("ikjk->ij", rho.reshape(2, 2, 2, 2)), I2 / 2, atol=1e-15)


class TestMetrics:
    """The dense Uhlmann fidelity of ``tests/helpers.py``, ``bsqpt.model_fidelity``'s oracle."""

    def test_self_fidelity(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_states(self):
        assert fidelity(np.diag([1.0, 0.0]), np.diag([0.0, 1.0])) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        rho, sigma = random_density(rng), random_density(rng)
        assert abs(fidelity(rho, sigma) - fidelity(3.7 * rho, 0.2 * sigma)) < 1e-10

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros((4, 4)), I4)
