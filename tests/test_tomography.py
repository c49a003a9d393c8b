"""Measurement simulation and linear-inversion reconstruction."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    FilterParams,
    KrausSet,
    apply_kraus,
    build_basis,
    build_input_set,
    choi_from_kraus,
    kraus_pair,
    reconstruct_process,
    simulate_counts,
)
from bsqpt.tomography import CountTable

from helpers import random_channel, random_filter

I4 = np.eye(4, dtype=complex)
REFERENCE = FilterParams.from_ratio(0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=0.325)


def rates_from_density_matrices(ks: KrausSet, inputs) -> np.ndarray:
    """``Tr(Pi_m E(rho_n))`` through the channel's action on the input density matrices."""
    outputs = apply_kraus(ks, inputs.products).reshape(16, 16)
    return np.clip((outputs @ inputs.products.reshape(16, 16).conj().T).real, 0.0, None)


def mixed_channels(seed: int, count: int) -> list[KrausSet]:
    """``count`` channels, random filters alternating with random channels of rank 1 to 4,
    then the reference filter."""
    rng = np.random.default_rng(seed)
    channels = [random_channel(rng, n_kraus=t // 2 % 4 + 1) if t % 2
                else kraus_pair(random_filter(rng)) for t in range(count)]
    return channels + [kraus_pair(REFERENCE)]


class TestInputSet:
    def test_plus_state_entries(self):
        inputs = build_input_set()
        assert_allclose(inputs.singles[2], np.full((2, 2), 0.5), atol=0)

    def test_circular_state(self):
        inputs = build_input_set()
        expected = 0.5 * np.array([[1, -1j], [1j, 1]])
        assert_allclose(inputs.singles[3], expected, atol=0)

    def test_first_product_is_00(self):
        inputs = build_input_set()
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert_allclose(inputs.products[0], expected, atol=0)

    def test_all_pure_unit_trace(self):
        inputs = build_input_set()
        for rho in inputs.products:
            assert abs(np.trace(rho) - 1) < 1e-14
            assert_allclose(rho @ rho, rho, atol=1e-14)

    def test_gram_nonsingular(self):
        inputs = build_input_set()
        assert np.isfinite(inputs.gram_condition)
        assert inputs.gram_condition < 1e6

    def test_kets_reproduce_products(self):
        inputs = build_input_set()
        assert inputs.kets.shape == (16, 4)
        assert not inputs.kets.flags.writeable
        outer = np.einsum("na,nb->nab", inputs.kets, inputs.kets.conj())
        assert_allclose(outer, inputs.products, atol=1e-15)

    def test_products_and_duals_biorthogonal(self):
        inputs = build_input_set()
        # Tr(products[m] duals[n]) for every pair.
        overlaps = np.einsum("mij,nji->mn", inputs.products, inputs.duals)
        assert_allclose(overlaps, np.eye(16), atol=1e-12)


class TestDecomposition:
    def test_x0_is_first_input(self):
        coeffs = build_input_set().coeffs
        # X_0 (x) X_0 = |00><00| is products[0] itself.
        expected = np.zeros(16)
        expected[0] = 1.0
        assert_allclose(coeffs[0], expected, atol=1e-12)

    def test_x1_single_qubit_closed_form(self):
        # |0><1| = |+><+| + i|L><L| - (1+i)/2 (|0><0| + |1><1|), checked by
        # building the combination by hand.
        inputs = build_input_set()
        c = np.array([-(1 + 1j) / 2, -(1 + 1j) / 2, 1.0, 1.0j])
        combo = sum(c[n] * inputs.singles[n] for n in range(4))
        assert_allclose(combo, np.array([[0, 1], [0, 0]]), atol=1e-14)
        coeffs = inputs.coeffs
        # Row [kl] = [0*4+1] tensors the X_0 solution with the X_1 solution.
        expected_row = np.kron(np.array([1, 0, 0, 0]), c)
        assert_allclose(coeffs[1], expected_row, atol=1e-12)

    def test_identity_reproduced_for_all_elements(self):
        inputs = build_input_set()
        coeffs = inputs.coeffs
        for k in range(4):
            for l in range(4):
                x = np.zeros((4, 4), dtype=complex)
                x[(k // 2) * 2 + l // 2, (k % 2) * 2 + l % 2] = 1.0
                combo = sum(coeffs[4 * k + l, n] * inputs.products[n] for n in range(16))
                assert_allclose(combo, x, atol=1e-12)


class TestSimulateCounts:
    def test_identity_channel_diagonal(self):
        inputs = build_input_set()
        ct = simulate_counts(KrausSet([(1.0, I4)]), inputs, total_scale=500.0)
        assert abs(ct.counts[0, 0] - 500.0) < 1e-9

    def test_triplet_filter_kills_00_row(self):
        inputs = build_input_set()
        ct = simulate_counts(kraus_pair(FilterParams.from_ratio(1.0)), inputs)
        assert np.max(np.abs(ct.counts[0])) < 1e-15

    def test_poisson_determinism(self):
        inputs = build_input_set()
        ks = kraus_pair(FilterParams.from_ratio(0.76, p=0.2))
        a = simulate_counts(ks, inputs, total_scale=1e4, noise="poisson", seed=7)
        b = simulate_counts(ks, inputs, total_scale=1e4, noise="poisson", seed=7)
        assert np.array_equal(a.counts, b.counts)
        c = simulate_counts(ks, inputs, total_scale=1e4, noise="poisson", seed=8)
        assert not np.array_equal(a.counts, c.counts)

    def test_noise_seed_recorded_only_with_poisson(self):
        inputs = build_input_set()
        ks = kraus_pair(FilterParams.from_ratio(0.76, p=0.2))
        assert simulate_counts(ks, inputs, seed=3).noise_seed is None
        assert simulate_counts(ks, inputs, noise="poisson", seed=3).noise_seed == 3

    def test_bad_args(self):
        inputs = build_input_set()
        with pytest.raises(ValueError):
            simulate_counts(KrausSet([(1.0, I4)]), inputs, total_scale=0.0)
        with pytest.raises(ValueError):
            simulate_counts(KrausSet([(1.0, I4)]), inputs, noise="gaussian")
        with pytest.raises(ValueError):
            CountTable(counts=-np.ones((16, 16)))

    def test_count_table_shape(self):
        with pytest.raises(ValueError, match=r"shape \(4, 4\), expected \(16, 16\)"):
            CountTable(counts=np.ones((4, 4)))

    @pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf])
    def test_non_finite_total_scale(self, scale):
        with pytest.raises(ValueError, match="finite and positive"):
            simulate_counts(KrausSet([(1.0, I4)]), build_input_set(), total_scale=scale)

    @pytest.mark.parametrize("noise", [None, "poisson"])
    def test_empty_kraus_set_gives_zero_table(self, noise):
        ct = simulate_counts(KrausSet([]), build_input_set(), total_scale=1e4, noise=noise, seed=1)
        assert np.array_equal(ct.counts, np.zeros((16, 16)))


class TestAmplitudeRates:
    """The amplitude form of the rates against the density-matrix route it replaced."""

    def test_rates_match_density_matrix_route(self):
        # Each rate sums at most four |amp|^2 terms, each amplitude 16 products, so
        # 1e-14 (about 45 eps) of the table maximum leaves room; the worst seen over
        # 3000 such channels was 6.2e-16.
        inputs = build_input_set()
        for ks in mixed_channels(41, 60):
            want = rates_from_density_matrices(ks, inputs)
            got = simulate_counts(ks, inputs).counts
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(want)

    def test_noiseless_counts_nonnegative(self):
        inputs = build_input_set()
        for ks in mixed_channels(42, 60):
            assert np.all(simulate_counts(ks, inputs, total_scale=1e4).counts >= 0.0)

    def test_poisson_tables_equal_density_matrix_route(self):
        # 21 channels x seeds 0-9 at 1e4 counts: the same draws from either form of the rates.
        inputs = build_input_set()
        for ks in mixed_channels(43, 20):
            means = 1e4 * rates_from_density_matrices(ks, inputs)
            for seed in range(10):
                want = np.random.default_rng(seed).poisson(means)
                got = simulate_counts(ks, inputs, total_scale=1e4, noise="poisson", seed=seed)
                assert np.array_equal(got.counts, want)


class TestReconstructProcess:
    def test_identity_channel(self):
        inputs = build_input_set()
        ks = KrausSet([(1.0, I4)])
        ct = simulate_counts(ks, inputs)
        chi = reconstruct_process(ct, inputs)
        assert_allclose(chi.m, choi_from_kraus(ks).m, atol=1e-12)

    def test_filter_channel_rank_two(self):
        inputs = build_input_set()
        fp = FilterParams.from_ratio(0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=0.5)
        ks = kraus_pair(fp)
        ct = simulate_counts(ks, inputs)
        chi = reconstruct_process(ct, inputs)
        assert np.linalg.norm(chi.m - choi_from_kraus(ks).m) < 1e-10
        w = np.linalg.eigvalsh(chi.m)
        assert np.sum(w > 1e-10 * w[-1]) == 2

    def test_scale_equivariance(self):
        inputs = build_input_set()
        ks = kraus_pair(FilterParams.from_ratio(0.76, p=0.2))
        chi1 = reconstruct_process(simulate_counts(ks, inputs, total_scale=1.0), inputs)
        chi7 = reconstruct_process(simulate_counts(ks, inputs, total_scale=7.0), inputs)
        assert_allclose(chi7.m, 7.0 * chi1.m, atol=1e-9)

    def test_oracle_equivalence_random_channels(self):
        inputs = build_input_set()
        rng = np.random.default_rng(5)
        for _ in range(10):
            ks = random_channel(rng)
            chi_rec = reconstruct_process(simulate_counts(ks, inputs), inputs)
            assert np.linalg.norm(chi_rec.m - choi_from_kraus(ks).m) < 1e-9

    def test_poisson_mean_converges(self):
        # Averaged over seeds, the reconstruction error per unit scale
        # shrinks as counts grow.
        inputs = build_input_set()
        fp = FilterParams.from_ratio(0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=0.325)
        ks = kraus_pair(fp)
        chi_true = choi_from_kraus(ks).m
        err = {}
        for scale in (1e3, 1e6):
            dists = []
            for seed in range(20):
                ct = simulate_counts(ks, inputs, total_scale=scale, noise="poisson", seed=seed)
                chi = reconstruct_process(ct, inputs)
                dists.append(np.linalg.norm(chi.m / scale - chi_true))
            err[scale] = np.mean(dists)
        assert err[1e6] < err[1e3]

    def test_round_trip_arbitrary_tables(self):
        # Any nonnegative table, physical or not, must come back through the
        # forward map Tr(Pi_m A_a rho_n A_b_dag) built here from its definition.
        inputs = build_input_set()
        x = np.stack(build_basis("S").elements)
        forward = np.einsum(
            "mij,ajk,nkl,bil->nmab", inputs.products, x, inputs.products, x.conj(), optimize=True
        )
        rng = np.random.default_rng(6)
        for _ in range(20):
            table = rng.uniform(0.0, 10.0 ** rng.uniform(0, 5), size=(16, 16))
            table[rng.random((16, 16)) < 0.2] = 0.0
            chi = reconstruct_process(CountTable(counts=table), inputs)
            back = np.einsum("nmab,ab->nm", forward, chi.m)
            assert np.max(np.abs(back - table)) <= 1e-9 * np.max(np.abs(table))
