"""Channel representations: Kraus sets, process matrices, Choi assembly."""

import dataclasses
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    BASIS_KINDS,
    FilterParams,
    KrausSet,
    ProcessMatrix,
    apply_kraus,
    apply_process_matrix,
    assemble_choi_from_map,
    bell_state,
    build_basis,
    build_input_set,
    choi_from_kraus,
    kraus_pair,
    model_chi,
    project_to_psd,
    reconstruct_process,
    simulate_counts,
    transform_process_matrix,
)
from bsqpt.channel import to_coeff_vector
from bsqpt.linalg import SIGMA, dagger, projector

from helpers import random_channel, random_density, random_filter, random_matrix

I4 = np.eye(4, dtype=complex)
STD = np.stack(build_basis("S").elements)


def paper_filter(p):
    return FilterParams.from_ratio(0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p)


class TestCoeffVector:
    def test_round_trip(self):
        # A bijection: the inverse reindexing recovers the operator.
        rng = np.random.default_rng(1)
        k = random_matrix(rng)
        back = to_coeff_vector(k).reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
        assert_allclose(back, k, atol=0)

    def test_matches_trace_projection(self):
        # Oracle: the defining Hilbert-Schmidt projections, one by one.
        rng = np.random.default_rng(2)
        k = random_matrix(rng)
        c = to_coeff_vector(k)
        std = build_basis("S").elements
        for mu in range(16):
            assert_allclose(c[mu], np.trace(dagger(std[mu]) @ k), atol=0)


class TestApplyKraus:
    def test_identity_set(self):
        rng = np.random.default_rng(3)
        rho = random_density(rng)
        assert_allclose(apply_kraus(KrausSet([(1.0, I4)]), rho), rho, atol=0)

    def test_orthogonal_projector_annihilates(self):
        psi_p = projector(bell_state(2))
        psi_m = projector(bell_state(3))
        out = apply_kraus(KrausSet([(1.0, psi_p)]), psi_m)
        assert np.max(np.abs(out)) < 1e-15

    def test_output_hermitian_psd(self):
        rng = np.random.default_rng(4)
        ks = random_channel(rng)
        out = apply_kraus(ks, random_density(rng))
        assert_allclose(out, dagger(out), atol=1e-13)
        assert np.linalg.eigvalsh(out)[0] > -1e-13

    def test_stack_matches_one_at_a_time(self):
        rng = np.random.default_rng(12)
        ks = random_channel(rng, n_kraus=3)
        stack = np.stack([random_density(rng) for _ in range(5)])
        out = apply_kraus(ks, stack)
        for rho, got in zip(stack, out):
            assert_allclose(got, apply_kraus(ks, rho), atol=0)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            KrausSet([(-0.1, I4)])

    def test_physical_flag_enforced(self):
        with pytest.raises(ValueError, match="trace"):
            KrausSet([(1.0, 2.0 * I4)], physical=True)


class TestKrausSetImmutable:
    @pytest.mark.parametrize("name", ["items", "physical", "weights", "ops"])
    def test_fields_cannot_be_assigned(self, name):
        ks = KrausSet([(1.0, I4)])
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(ks, name, None)

    def test_operators_are_read_only_copies(self):
        rng = np.random.default_rng(5)
        mine = [random_matrix(rng) for _ in range(3)]
        kept = [k.copy() for k in mine]
        ks = KrausSet([(0.5, k) for k in mine])
        assert isinstance(ks.items, tuple)
        assert ks.weights.shape == (3,) and ks.ops.shape == (3, 4, 4)
        for a in (ks.weights, ks.ops, *(k for _, k in ks.items)):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
        for k in mine:
            assert k.flags.writeable
            k[0, 0] = 7.0  # the caller's edit reaches none of the set's copies
        assert all(np.array_equal(k, was) for (_, k), was in zip(ks.items, kept))
        assert all(np.array_equal(k, op) for (_, k), op in zip(ks.items, ks.ops))
        assert ks.weights.tolist() == [w for w, _ in ks.items] == [0.5] * 3

    def test_empty_set_stacks_to_zero_operators(self):
        ks = KrausSet([])
        assert ks.items == () and ks.weights.shape == (0,) and ks.ops.shape == (0, 4, 4)

    def test_equality_and_hash_are_by_identity(self):
        # Comparing the operator arrays would raise; the rate slot is kept by identity.
        ks, twin = KrausSet([(1.0, I4)]), KrausSet([(1.0, I4)])
        assert ks == ks and not ks != ks
        assert ks != twin and not ks == twin
        assert hash(ks) == hash(ks) and len({ks, twin}) == 2

    def test_repr_shows_neither_stacks_nor_rate_slot(self):
        ks = kraus_pair(FilterParams.from_ratio(0.76, p=0.2))
        simulate_counts(ks, build_input_set())
        text = repr(ks)
        assert text.startswith("KrausSet(items=(") and text.endswith(", physical=False)")
        assert "_rates" not in text and "weights" not in text and "ops" not in text


class TestChoiFromKraus:
    def test_identity_channel_pattern(self):
        chi = choi_from_kraus(KrausSet([(1.0, I4)]))
        c = to_coeff_vector(I4)
        assert_allclose(chi.m, np.outer(c, c.conj()), atol=0)
        w = np.linalg.eigvalsh(chi.m)
        assert np.sum(w > 1e-12) == 1

    def test_filter_rank_two(self):
        chi = choi_from_kraus(kraus_pair(paper_filter(0.325)))
        w = np.linalg.eigvalsh(chi.m)
        assert np.sum(w > 1e-12 * w[-1]) == 2

    def test_single_kraus_eigenvector_recovery(self):
        rng = np.random.default_rng(5)
        k = random_matrix(rng)
        chi = choi_from_kraus(KrausSet([(1.0, k)]))
        w, v = np.linalg.eigh(chi.m)
        c = to_coeff_vector(k)
        top = v[:, -1] * np.sqrt(w[-1])
        phase = np.vdot(top, c) / abs(np.vdot(top, c))
        assert_allclose(top * phase, c, atol=1e-10)

    def test_trace_equals_weighted_effect_trace(self):
        rng = np.random.default_rng(6)
        ks = random_channel(rng)
        expected = sum(w * np.trace(dagger(k) @ k) for w, k in ks.items)
        assert_allclose(np.trace(choi_from_kraus(ks).m), expected, atol=1e-12)

    def test_psd(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            chi = choi_from_kraus(random_channel(rng))
            assert np.linalg.eigvalsh(chi.m)[0] > -1e-12

    def test_filter_spectral_weights(self):
        # Oracle: the nonzero spectrum of chi equals the spectrum of the
        # 2x2 weighted Gram matrix sqrt(w_i w_j) <c_i, c_j> of the two
        # coefficient vectors (Kraus decompositions are not unique, so the
        # eigenvectors need not be the original pair).
        fp = paper_filter(0.325)
        ks_true = kraus_pair(fp)
        chi = choi_from_kraus(ks_true)
        spectrum = np.linalg.eigvalsh(chi.m)
        trace = np.trace(chi.m).real
        assert np.all(np.abs(spectrum[:-2]) <= 1e-6 * trace) and spectrum[-2] > 1e-6 * trace
        c = [to_coeff_vector(k) for _, k in ks_true.items]
        w = [w for w, _ in ks_true.items]
        gram = np.array(
            [
                [np.sqrt(w[i] * w[j]) * np.vdot(c[i], c[j]) for j in range(2)]
                for i in range(2)
            ]
        )
        expected = sorted(np.linalg.eigvalsh(gram))
        assert_allclose(spectrum[-2:], expected, atol=1e-10)

    def test_equal_split_spectral_weights_match_mixture(self):
        # At T = R the two filter operators are Hilbert-Schmidt orthogonal,
        # so the nonzero eigenvalues are exactly ((1-p)|c-|^2, p|c+|^2).
        fp = FilterParams.from_ratio(1.0, theta1=0.3, theta2=-0.7, p=0.325)
        ks_true = kraus_pair(fp)
        spectrum = np.linalg.eigvalsh(choi_from_kraus(ks_true).m)
        expected = sorted(w * np.vdot(k, k).real for w, k in ks_true.items)
        assert_allclose(spectrum[-2:], expected, atol=1e-10)


class TestApplyProcessMatrix:
    def test_matches_literal_double_sum(self):
        # Oracle: the 16x16 double sum written as an explicit loop.
        rng = np.random.default_rng(8)
        ks = random_channel(rng)
        chi = choi_from_kraus(ks)
        rho = random_density(rng)
        std = build_basis("S").elements
        by_hand = np.zeros((4, 4), dtype=complex)
        for a in range(16):
            for b in range(16):
                by_hand += chi.m[a, b] * (std[a] @ rho @ dagger(std[b]))
        assert_allclose(apply_process_matrix(chi, rho), by_hand, atol=1e-12)
        assert_allclose(by_hand, apply_kraus(ks, rho), atol=1e-12)

    def test_identity_channel(self):
        rng = np.random.default_rng(9)
        rho = random_density(rng)
        chi = choi_from_kraus(KrausSet([(1.0, I4)]))
        assert_allclose(apply_process_matrix(chi, rho), rho, atol=1e-13)

    def test_filter_on_hh_closed_form(self):
        # With theta1 = theta2 the HH state is an eigenvector of both filter
        # operators, so the output is ((1-p)(T-R)^2 + p(T+R)^2) |HH><HH|.
        fp = FilterParams.from_ratio(0.76, theta1=0.41 * np.pi, theta2=0.41 * np.pi, p=0.14)
        chi = choi_from_kraus(kraus_pair(fp))
        hh = projector(np.eye(4)[0])
        expected = ((1 - fp.p) * (fp.T - fp.R) ** 2 + fp.p * (fp.T + fp.R) ** 2) * hh
        assert_allclose(apply_process_matrix(chi, hh), expected, atol=1e-12)

    def test_cross_representation_at_half_mixing(self):
        fp = FilterParams.from_ratio(1.0, p=0.5)
        ks = kraus_pair(fp)
        chi = choi_from_kraus(ks)
        rho = I4 / 4
        assert_allclose(apply_process_matrix(chi, rho), apply_kraus(ks, rho), atol=1e-14)


class TestAssembleChoi:
    def test_identity_channel(self):
        ks = KrausSet([(1.0, I4)])
        chi = assemble_choi_from_map(apply_kraus(ks, STD))
        assert_allclose(chi.m, choi_from_kraus(ks).m, atol=1e-13)

    def test_flip_channel_rank_one(self):
        flip = np.kron(SIGMA[1], SIGMA[1])
        ks = KrausSet([(1.0, flip)])
        chi = assemble_choi_from_map(apply_kraus(ks, STD))
        assert_allclose(chi.m, choi_from_kraus(ks).m, atol=1e-13)
        w = np.linalg.eigvalsh(chi.m)
        assert np.sum(w > 1e-12) == 1

    def test_filter_channel(self):
        ks = kraus_pair(paper_filter(0.325))
        chi = assemble_choi_from_map(apply_kraus(ks, STD))
        assert_allclose(chi.m, choi_from_kraus(ks).m, atol=1e-12)

    def test_permutation_sandwich_elementwise(self):
        # The interleaved-layout matrix conjugated by the qubit reordering
        # must reproduce the inputs-then-outputs sum, entry by entry.
        rng = np.random.default_rng(10)
        for _ in range(5):
            ks = random_channel(rng)
            chi = choi_from_kraus(ks)
            mt = apply_kraus(ks, STD)
            d_tilde = np.zeros((16, 16), dtype=complex)
            std = build_basis("S").elements
            for k in range(4):
                for l in range(4):
                    x_k = np.zeros((2, 2), dtype=complex)
                    x_k[k // 2, k % 2] = 1
                    x_l = np.zeros((2, 2), dtype=complex)
                    x_l[l // 2, l % 2] = 1
                    d_tilde += np.kron(np.kron(x_k, x_l), mt[4 * k + l])
            # Reorders the qubits of chi's index, (r1 i1 r2 i2), to (i1 i2 r1 r2).
            a = np.eye(16).reshape(2, 2, 2, 2, 16).transpose(1, 3, 0, 2, 4).reshape(16, 16)
            assert_allclose(a @ chi.m @ dagger(a), d_tilde, atol=1e-12)

    def test_hermiticity_adjoint_pairing(self):
        rng = np.random.default_rng(11)
        mt = apply_kraus(random_channel(rng), STD)
        adjoint_of = {0: 0, 1: 2, 2: 1, 3: 3}
        for k in range(4):
            for l in range(4):
                a = mt[4 * k + l]
                b = mt[4 * adjoint_of[k] + adjoint_of[l]]
                assert_allclose(dagger(a), b, atol=1e-12)


class TestCrossRepresentationEquivalence:
    def test_many_random_channels(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            ks = random_channel(rng)
            chi = choi_from_kraus(ks)
            chi_asm = assemble_choi_from_map(apply_kraus(ks, STD))
            for _ in range(10):
                rho = random_density(rng)
                a = apply_kraus(ks, rho)
                b = apply_process_matrix(chi, rho)
                c = apply_process_matrix(chi_asm, rho)
                assert np.max(np.abs(a - b)) < 1e-10
                assert np.max(np.abs(a - c)) < 1e-10


class TestMapTableValidation:
    @pytest.mark.parametrize("call, message", [
        (lambda: KrausSet([(1.0, np.eye(3))]), "shape (3, 3), expected (4, 4)"),
        (lambda: ProcessMatrix("X", np.eye(16)), "unknown basis tag 'X'"),
        (lambda: apply_kraus(KrausSet([(1.0, I4)]), np.eye(2)), "expected (..., 4, 4)"),
    ], ids=["kraus_3x3", "unknown_tag", "state_2x2"])
    def test_rejected(self, call, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            call()

    def test_wrong_length(self):
        with pytest.raises(ValueError):
            assemble_choi_from_map(np.stack([np.eye(4)] * 15))

    def test_process_matrix_shape(self):
        with pytest.raises(ValueError):
            ProcessMatrix("S", np.eye(4))


def assert_hermitian(m):
    """The bound a process-matrix file is held to when it is read."""
    assert np.max(np.abs(m - m.conj().T)) <= 1e-8 * max(1.0, float(np.max(np.abs(m))))


class TestBuiltProcessMatricesAreHermitian:
    """``ProcessMatrix`` checks no Hermiticity, so every construction must give it."""

    @pytest.mark.parametrize("noise", [None, "poisson"])
    def test_every_built_chi_is_hermitian(self, noise):
        rng = np.random.default_rng(31)
        inputs = build_input_set()
        channels = [random_channel(rng, n_kraus=rank) for rank in (1, 2, 3, 4) for _ in range(3)]
        filters = [random_filter(rng) for _ in range(6)]
        built = [choi_from_kraus(ks) for ks in channels]
        built += [model_chi(fp, kind) for fp in filters for kind in BASIS_KINDS]
        for seed, ks in enumerate(channels + [kraus_pair(fp) for fp in filters]):
            counts = simulate_counts(ks, inputs, total_scale=1e4, noise=noise, seed=seed)
            chi = reconstruct_process(counts, inputs)
            built += [chi, ProcessMatrix("S", project_to_psd(chi.m))]
        for chi in list(built):
            for kind in ("B", "C", "F"):
                there = transform_process_matrix(chi, kind)
                built += [there, transform_process_matrix(there, "S")]
        for chi in built:
            assert_hermitian(chi.m)
