"""Matrix primitive checks, including the worked examples done by hand."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    bell_state,
    dagger,
    fidelity,
    kron,
    partial_trace,
    project_to_psd,
)
from bsqpt.linalg import SIGMA, SWAP, matrix_unit

from helpers import random_density, random_hermitian, random_matrix

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


class TestKron:
    def test_identity_case(self):
        assert_allclose(kron(I2, I2), I4, atol=0)

    def test_diagonal_paulis(self):
        assert_allclose(kron(SIGMA[3], SIGMA[3]), np.diag([1, -1, -1, 1.0]), atol=0)

    def test_sigma_x_pair_flips_00(self):
        # Oracle: plain 4x4 matrix-vector product written out by hand.
        m = kron(SIGMA[1], SIGMA[1])
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        by_hand = np.array([sum(m[r, c] * ket00[c] for c in range(4)) for r in range(4)])
        assert_allclose(by_hand, np.array([0, 0, 0, 1], dtype=complex), atol=0)
        assert_allclose(m @ ket00, by_hand, atol=0)

    def test_associative_and_bilinear(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            a, b, c = (random_matrix(rng, 2) for _ in range(3))
            assert_allclose(kron(kron(a, b), c), kron(a, kron(b, c)), atol=1e-12)
            x, y = rng.normal(size=2)
            assert_allclose(
                kron(x * a + y * b, c), x * kron(a, c) + y * kron(b, c), atol=1e-12
            )


class TestDagger:
    def test_hermitian_fixed_point(self):
        assert_allclose(dagger(SIGMA[2]), SIGMA[2], atol=0)

    def test_basis_flip(self):
        assert_allclose(dagger(matrix_unit(0, 1)), matrix_unit(1, 0), atol=0)

    def test_scalar_conjugation(self):
        assert_allclose(dagger(1j * I2), -1j * I2, atol=0)

    def test_involution(self):
        rng = np.random.default_rng(3)
        a = random_matrix(rng)
        assert_allclose(dagger(dagger(a)), a, atol=0)


class TestPartialTrace:
    def test_bell_reduction(self):
        rho = np.outer(bell_state(2), bell_state(2).conj())
        assert_allclose(partial_trace(rho, (2, 2), keep=1), I2 / 2, atol=1e-15)
        assert_allclose(partial_trace(rho, (2, 2), keep=0), I2 / 2, atol=1e-15)

    def test_product_state(self):
        rng = np.random.default_rng(7)
        rho = random_density(rng, 2)
        omega = random_matrix(rng, 2)
        got = partial_trace(kron(rho, omega), (2, 2), keep=0)
        assert_allclose(got, rho * np.trace(omega), atol=1e-12)

    def test_kron_property_random(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            a = random_matrix(rng, 4)
            b = random_matrix(rng, 2)
            assert_allclose(
                partial_trace(kron(a, b), (4, 2), keep=0), a * np.trace(b), atol=1e-12
            )
            assert_allclose(
                partial_trace(kron(a, b), (4, 2), keep=1), b * np.trace(a), atol=1e-12
            )

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        a = random_matrix(rng, 4)
        reduced = partial_trace(a, (2, 2), keep=0)
        assert_allclose(np.trace(reduced), np.trace(a), atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(4), (2, 3), keep=0)

    def test_keep_out_of_range(self):
        with pytest.raises(ValueError, match="keep must be 0"):
            partial_trace(np.eye(4), (2, 2), keep=2)


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
        assert_allclose(SWAP @ kron(m, m), kron(m, m) @ SWAP, atol=1e-13)


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
        assert_allclose(partial_trace(rho, (2, 2), keep=0), I2 / 2, atol=1e-15)


class TestMetrics:
    def test_self_fidelity(self):
        rng = np.random.default_rng(31)
        rho = random_density(rng)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-10

    def test_orthogonal_states(self):
        assert fidelity(matrix_unit(0, 0), matrix_unit(1, 1)) < 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(32)
        rho, sigma = random_density(rng), random_density(rng)
        assert abs(fidelity(rho, sigma) - fidelity(3.7 * rho, 0.2 * sigma)) < 1e-10

    def test_zero_trace_rejected(self):
        with pytest.raises(ValueError):
            fidelity(np.zeros((4, 4)), I4)
