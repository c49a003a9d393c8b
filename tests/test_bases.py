"""Operator basis construction and process-matrix basis changes."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    BASIS_KINDS,
    KrausSet,
    apply_kraus,
    apply_process_matrix,
    build_basis,
    choi_from_kraus,
    pauli_element,
    standard_element,
    transform_process_matrix,
)
from bsqpt.linalg import SIGMA, SWAP, dagger

from helpers import random_channel, random_density, random_matrix


class TestElements:
    def test_standard_element_definition(self):
        assert_allclose(standard_element(0), [[1, 0], [0, 0]], atol=0)
        assert_allclose(standard_element(1), [[0, 1], [0, 0]], atol=0)

    def test_standard_completeness_sum(self):
        # sum_k X_k X_k_dag accumulated by hand equals 2 I.
        total = np.zeros((2, 2), dtype=complex)
        for k in range(4):
            x = standard_element(k)
            total += x @ dagger(x)
        assert_allclose(total, 2 * np.eye(2), atol=0)

    def test_pauli_element_set(self):
        for k in range(4):
            assert_allclose(pauli_element(k), SIGMA[k] / np.sqrt(2), atol=0)

    def test_pauli_orthonormal(self):
        for k in range(4):
            for l in range(4):
                ip = np.trace(dagger(pauli_element(k)) @ pauli_element(l))
                assert_allclose(ip, 1.0 if k == l else 0.0, atol=1e-15)

    def test_pauli_z_action(self):
        ket1 = np.array([0, 1], dtype=complex)
        assert_allclose(pauli_element(3) @ ket1, -ket1 / np.sqrt(2), atol=0)

    def test_bad_index(self):
        with pytest.raises(ValueError):
            standard_element(4)
        with pytest.raises(ValueError):
            pauli_element(-1)


class TestBuildBasis:
    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_unitary_u_matrix(self, kind):
        b = build_basis(kind)
        assert_allclose(dagger(b.u_matrix) @ b.u_matrix, np.eye(16), atol=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_hilbert_schmidt_orthonormal(self, kind):
        b = build_basis(kind)
        gram = np.array(
            [[np.trace(dagger(x) @ y) for y in b.elements] for x in b.elements]
        )
        assert_allclose(gram, np.eye(16), atol=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_elements_match_u_expansion(self, kind):
        b = build_basis(kind)
        std = build_basis("S").elements
        for alpha in range(16):
            combo = sum(b.u_matrix[mu, alpha] * std[mu] for mu in range(16))
            assert_allclose(combo, b.elements[alpha], atol=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_u_matrix_matches_trace_definition(self, kind):
        b = build_basis(kind)
        std = build_basis("S").elements
        for alpha, a in enumerate(b.elements):
            for mu, x in enumerate(std):
                assert abs(b.u_matrix[mu, alpha] - np.trace(dagger(x) @ a)) <= 1e-15
        # u_dagger is the per-call dagger(u_matrix), bit for bit and in the same layout.
        assert b.u_dagger.tobytes() == dagger(b.u_matrix).tobytes()
        assert b.u_dagger.strides == dagger(b.u_matrix).strides
        assert not any(a.flags.writeable for a in (b.u_matrix, b.u_dagger, *b.elements))

    def test_non_unitary_change_of_basis_raises(self, monkeypatch):
        from bsqpt import bases

        elements_for = bases._elements_for
        monkeypatch.setattr(
            bases, "_elements_for", lambda kind: [2.0 * e for e in elements_for(kind)]
            if kind == "B" else elements_for(kind)
        )
        with pytest.raises(RuntimeError, match="not unitary"):
            bases.build_basis.__wrapped__("B")

    def test_standard_self_basis(self):
        assert_allclose(build_basis("S").u_matrix, np.eye(16), atol=0)

    def test_filter_first_element(self):
        b = build_basis("F")
        assert_allclose(b.elements[0], (np.eye(4) / 2) @ SWAP, atol=1e-15)

    def test_bell_adjoint_relation(self):
        b = build_basis("C")
        for k in range(4):
            for l in range(4):
                assert_allclose(dagger(b.elements[4 * k + l]), b.elements[4 * l + k], atol=1e-15)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_completeness_on_random_operator(self, kind):
        rng = np.random.default_rng(17)
        b = build_basis(kind)
        x = random_matrix(rng)
        total = sum(a @ x @ dagger(a) for a in b.elements)
        assert_allclose(total, np.trace(x) * np.eye(4), atol=1e-12)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            build_basis("Q")


class TestTransform:
    def test_standard_is_identity(self):
        rng = np.random.default_rng(41)
        chi = choi_from_kraus(random_channel(rng))
        assert_allclose(transform_process_matrix(chi, "S").m, chi.m, atol=0)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_eigenvalues_preserved(self, kind):
        rng = np.random.default_rng(42)
        chi = choi_from_kraus(random_channel(rng))
        w0 = np.linalg.eigvalsh(chi.m)
        w1 = np.linalg.eigvalsh(transform_process_matrix(chi, kind).m)
        assert_allclose(w0, w1, atol=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_round_trip(self, kind):
        rng = np.random.default_rng(43)
        chi = choi_from_kraus(random_channel(rng))
        there = transform_process_matrix(chi, kind)
        back = transform_process_matrix(there, "S")
        assert_allclose(back.m, chi.m, atol=1e-12)

    def test_identity_channel_in_pauli_basis(self):
        # E(rho) = rho = 4 (I/2) rho (I/2), so the only entry is chi[0,0] = 4.
        chi = choi_from_kraus(KrausSet([(1.0, np.eye(4, dtype=complex))]))
        chi_b = transform_process_matrix(chi, "B").m
        expected = np.zeros((16, 16))
        expected[0, 0] = 4.0
        assert_allclose(chi_b, expected, atol=1e-12)

    def test_swap_channel_in_filter_basis(self):
        chi = choi_from_kraus(KrausSet([(1.0, SWAP)]))
        chi_f = transform_process_matrix(chi, "F").m
        expected = np.zeros((16, 16))
        expected[0, 0] = 4.0
        assert_allclose(chi_f, expected, atol=1e-12)

    def test_swap_channel_action_in_filter_basis(self):
        chi_f = transform_process_matrix(choi_from_kraus(KrausSet([(1.0, SWAP)])), "F")
        rho01 = np.zeros((4, 4), dtype=complex)
        rho01[1, 1] = 1.0
        rho10 = np.zeros((4, 4), dtype=complex)
        rho10[2, 2] = 1.0
        assert_allclose(apply_process_matrix(chi_f, rho01), rho10, atol=1e-12)

    @pytest.mark.parametrize("kind", BASIS_KINDS)
    def test_transform_commutes_with_channel_action(self, kind):
        rng = np.random.default_rng(44)
        for _ in range(5):
            ks = random_channel(rng)
            rho = random_density(rng)
            chi_s = choi_from_kraus(ks)
            direct = apply_process_matrix(chi_s, rho)
            via_kind = apply_process_matrix(transform_process_matrix(chi_s, kind), rho)
            assert_allclose(via_kind, direct, atol=1e-12)
            assert_allclose(direct, apply_kraus(ks, rho), atol=1e-12)
