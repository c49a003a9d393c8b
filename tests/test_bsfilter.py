"""Beamsplitter filter model: operators, optics derivation, temporal decoherence."""

import dataclasses
import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    BSOptics,
    FilterParams,
    apply_kraus,
    apply_pt_model,
    bell_state,
    decoherence_from_delay,
    hom_dip,
    hom_visibility,
    kraus_pair,
    kraus_pair_from_optics,
    kron,
    model_chi,
    u3,
)
from bsqpt.linalg import SIGMA, dagger, matrix_unit, projector

from helpers import random_density

I4 = np.eye(4, dtype=complex)


def channels_equal(ks_a, ks_b, atol=1e-12):
    """Channel-level comparison on all 16 standard operator-basis inputs."""
    worst = 0.0
    for mu in range(16):
        x = np.zeros((4, 4), dtype=complex)
        x[mu // 4, mu % 4] = 1.0
        worst = max(worst, float(np.max(np.abs(apply_kraus(ks_a, x) - apply_kraus(ks_b, x)))))
    return worst < atol


class TestU3:
    def test_zero_angles(self):
        assert_allclose(u3(0.0, 0.0), kron(SIGMA[3], SIGMA[3]), atol=0)

    def test_equal_angles_fix_00(self):
        ket00 = np.array([1, 0, 0, 0], dtype=complex)
        theta = 0.7
        assert_allclose(u3(theta, theta) @ ket00, ket00, atol=1e-15)

    def test_explicit_diagonal(self):
        t1, t2 = 1.3, -0.4
        expected = np.diag(
            [
                np.exp(0.5j * (t1 - t2)),
                -np.exp(0.5j * (t1 + t2)),
                -np.exp(-0.5j * (t1 + t2)),
                np.exp(-0.5j * (t1 - t2)),
            ]
        )
        assert_allclose(u3(t1, t2), expected, atol=1e-15)

    def test_reference_angles_unitary_diagonal(self):
        m = u3(0.41 * np.pi, 0.076 * np.pi)
        assert_allclose(m @ dagger(m), I4, atol=1e-14)
        assert_allclose(m, np.diag(np.diag(m)), atol=0)
        assert_allclose(np.linalg.det(m), 1.0, atol=1e-14)


class TestKrausPair:
    def test_ideal_filter_is_triplet_projector(self):
        fp = FilterParams.from_ratio(1.0)
        p_minus = kraus_pair(fp).items[0][1]
        assert_allclose(p_minus, projector(bell_state(2)), atol=1e-15)

    def test_ideal_filter_annihilates_singlet(self):
        fp = FilterParams.from_ratio(1.0)
        p_minus = kraus_pair(fp).items[0][1]
        assert np.max(np.abs(p_minus @ bell_state(3))) == 0.0

    def test_ideal_filter_annihilates_00(self):
        fp = FilterParams.from_ratio(1.0)
        p_minus = kraus_pair(fp).items[0][1]
        assert np.max(np.abs(p_minus @ np.array([1, 0, 0, 0.0]))) == 0.0

    def test_ideal_filter_channel_limit(self):
        # The full channel at the ideal point keeps the triplet and sends
        # the singlet and both parallel-polarization states to zero.
        ks = kraus_pair(FilterParams.from_ratio(1.0))
        triplet = projector(bell_state(2))
        assert_allclose(apply_kraus(ks, triplet), triplet, atol=1e-15)
        for dead in (projector(bell_state(3)), matrix_unit(0, 0, 4), matrix_unit(3, 3, 4)):
            assert np.max(np.abs(apply_kraus(ks, dead))) < 1e-15

    def test_weights_follow_p(self):
        ks = kraus_pair(FilterParams.from_ratio(0.76, p=0.3))
        assert ks.items[0][0] == pytest.approx(0.7)
        assert ks.items[1][0] == pytest.approx(0.3)

    def test_scale_multiplies_operators(self):
        fp1 = FilterParams.from_ratio(0.76, theta1=0.2, p=0.1, scale=1.0)
        fp2 = dataclasses.replace(fp1, scale=2.5)
        for (_, k1), (_, k2) in zip(kraus_pair(fp1).items, kraus_pair(fp2).items):
            assert_allclose(k2, 2.5 * k1, atol=1e-15)

    def test_trace_nonincreasing_for_lossless_splitter(self):
        rng = np.random.default_rng(55)
        for _ in range(20):
            fp = FilterParams.from_ratio(
                rng.uniform(0.2, 4.0),
                theta1=rng.uniform(-np.pi, np.pi),
                theta2=rng.uniform(-np.pi, np.pi),
                p=rng.uniform(0, 0.5),
            )
            ks = kraus_pair(fp)
            top = np.linalg.eigvalsh(ks.total_effect())[-1]
            assert top <= 1.0 + 1e-9

    def test_param_validation(self):
        with pytest.raises(ValueError):
            FilterParams(T=0.5, R=0.5, p=0.7)
        with pytest.raises(ValueError):
            FilterParams(T=-0.1, R=0.5)
        with pytest.raises(ValueError):
            FilterParams.from_ratio(-1.0)

    @pytest.mark.parametrize("call, message", [
        (lambda: FilterParams(T=0.5, R=-0.1), "reflection must be nonnegative"),
        (lambda: FilterParams(T=0.5, R=0.5, scale=0.0), "scale must be positive"),
        (lambda: BSOptics(T=0.0, R=1.0), "need T > 0 and R >= 0"),
    ], ids=["negative_R", "zero_scale", "zero_T_optics"])
    def test_parameter_rejected(self, call, message):
        with pytest.raises(ValueError, match=message):
            call()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("p, clamped", [(-1e-13, 0.0), (0.5 + 1e-13, 0.5)])
    def test_p_within_tolerance_is_clamped(self, p, clamped):
        # Both mixture weights stay nonnegative, so every route accepts the filter.
        fp = FilterParams.from_ratio(0.76, p=p)
        assert fp.p == clamped
        assert [w for w, _ in kraus_pair(fp).items] == [1.0 - clamped, clamped]
        assert np.isfinite(model_chi(fp).m).all()


class TestOpticsDerivation:
    def test_zero_phases_match_zero_angles(self):
        bs = BSOptics(T=0.5, R=0.5, gamma=0.0, delta=0.0)
        assert channels_equal(kraus_pair_from_optics(bs), kraus_pair(FilterParams(T=0.5, R=0.5)))

    def test_reference_phase_difference(self):
        theta = 0.41 * np.pi
        bs = BSOptics(T=1 / 1.76, R=0.76 / 1.76, gamma=0.1, delta=0.1 + theta)
        fp = FilterParams.from_ratio(0.76, theta1=theta, theta2=theta)
        assert channels_equal(kraus_pair_from_optics(bs), kraus_pair(fp))

    def test_random_phases_define_same_channel(self):
        rng = np.random.default_rng(77)
        for _ in range(20):
            g, d = rng.uniform(-np.pi, np.pi, size=2)
            t = rng.uniform(0.3, 0.7)
            p = rng.uniform(0, 0.5)
            bs = BSOptics(T=t, R=1 - t, gamma=g, delta=d)
            fp = FilterParams(T=t, R=1 - t, theta1=d - g, theta2=d - g, p=p)
            assert channels_equal(kraus_pair_from_optics(bs, p=p), kraus_pair(fp))

    def test_rr_amplitude_for_hh_input(self):
        # Both reflection phase factors cancel for parallel polarizations and
        # the two factors of i contribute the minus sign, leaving -R.
        rng = np.random.default_rng(78)
        g, d = rng.uniform(-np.pi, np.pi, size=2)
        bs = BSOptics(T=0.6, R=0.4, gamma=g, delta=d)
        p_minus = kraus_pair_from_optics(bs).items[0][1]
        rr_amplitude = p_minus[0, 0] - bs.T
        assert_allclose(rr_amplitude, -bs.R, atol=1e-14)

    def test_optics_validation(self):
        with pytest.raises(ValueError):
            BSOptics(T=0.6, R=0.6)


class TestDecoherenceFromDelay:
    def test_zero_delay_perfect_match(self):
        p = decoherence_from_delay(0.0, 83.0, mu=1.0)
        assert p == 0.0

    def test_zero_delay_reference_mode_match(self):
        p = decoherence_from_delay(0.0, 83.0, mu=0.72)
        assert abs(p - 0.14) < 1e-12

    def test_calibrated_delays(self):
        p100 = decoherence_from_delay(100.0, 83.0, mu=0.72)
        assert abs(p100 - 0.325) < 0.005
        p350 = decoherence_from_delay(350.0, 83.0, mu=0.72)
        assert p350 >= 0.499

    def test_monotone_in_delay(self):
        taus = np.linspace(0, 400, 41)
        ps = [decoherence_from_delay(t, 83.0, mu=0.9) for t in taus]
        assert all(b >= a for a, b in zip(ps, ps[1:]))

    def test_range(self):
        for tau in (0.0, 50.0, 1e6):
            for mu in (0.0, 0.5, 1.0):
                p = decoherence_from_delay(tau, 83.0, mu=mu)
                assert (1 - mu) / 2 - 1e-12 <= p < 0.5 + 1e-12

    def test_overlap_invariant(self):
        p = decoherence_from_delay(120.0, 83.0, mu=0.72)
        assert abs((1 - 2 * p) - 0.72 * np.exp(-(120.0**2) / (2 * 83.0**2))) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_array_matches_scalar_calls_and_saturates(self):
        taus = np.concatenate([np.linspace(-400, 400, 161), [5e-324, 1e155, -1e200, 1.7e308]])
        p = decoherence_from_delay(taus, 83.0, mu=0.72)
        assert np.array_equal(p, [decoherence_from_delay(t, 83.0, mu=0.72) for t in taus])
        assert np.all(p[-3:] == 0.5)

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            decoherence_from_delay(10.0, 0.0)
        with pytest.raises(ValueError):
            decoherence_from_delay(10.0, 83.0, mu=1.5)


class TestPolarizationTemporalModel:
    def test_perfect_overlap_is_pure_filter(self):
        rng = np.random.default_rng(91)
        fp = FilterParams.from_ratio(0.76, theta1=0.3, theta2=-0.2)
        rho = random_density(rng)
        out = apply_pt_model(rho, 1.0, fp)
        expected = apply_kraus(kraus_pair(dataclasses.replace(fp, p=0.0)), rho)
        assert_allclose(out, expected, atol=1e-13)

    def test_zero_overlap_is_half_mixture(self):
        rng = np.random.default_rng(92)
        fp = FilterParams.from_ratio(0.76, theta1=0.3, theta2=-0.2)
        rho = random_density(rng)
        out = apply_pt_model(rho, 0.0, fp)
        expected = apply_kraus(kraus_pair(dataclasses.replace(fp, p=0.5)), rho)
        assert_allclose(out, expected, atol=1e-13)

    def test_intermediate_overlap(self):
        rng = np.random.default_rng(93)
        fp = FilterParams.from_ratio(1.0)
        rho = random_density(rng)
        out = apply_pt_model(rho, 0.6, fp)
        expected = apply_kraus(kraus_pair(dataclasses.replace(fp, p=0.32)), rho)
        assert_allclose(out, expected, atol=1e-13)

    def test_equivalence_over_random_draws(self):
        rng = np.random.default_rng(94)
        for _ in range(50):
            s = rng.uniform(0.0, 1.0) * np.exp(2j * np.pi * rng.uniform())
            fp = FilterParams(
                T=rng.uniform(0.3, 0.8),
                R=rng.uniform(0.05, 0.6),
                theta1=rng.uniform(-np.pi, np.pi),
                theta2=rng.uniform(-np.pi, np.pi),
                scale=rng.uniform(0.5, 2.0),
            )
            rho = random_density(rng)
            p_eq = 0.5 * (1 - abs(s) ** 2)
            out = apply_pt_model(rho, s, fp)
            expected = apply_kraus(kraus_pair(dataclasses.replace(fp, p=p_eq)), rho)
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_overlap_bound(self):
        fp = FilterParams.from_ratio(1.0)
        with pytest.raises(ValueError):
            apply_pt_model(I4 / 4, 1.2, fp)


class TestHomDip:
    def test_ideal_zero_delay_rate(self):
        fp = FilterParams.from_ratio(1.0)
        curve = hom_dip(fp, np.array([0.0]), tau_c_fs=83.0, mu=1.0)
        assert abs(curve[0, 1]) < 1e-15

    def test_closed_form_for_hh(self):
        fp = FilterParams.from_ratio(0.76, scale=3.0)
        mu, tau_c = 0.9, 83.0
        grid = np.linspace(-200, 200, 21)
        curve = hom_dip(fp, grid, tau_c_fs=tau_c, mu=mu)
        expected = fp.scale**2 * (
            fp.T**2 + fp.R**2 - 2 * fp.T * fp.R * mu * np.exp(-(grid**2) / (2 * tau_c**2))
        )
        assert_allclose(curve[:, 1], expected, atol=1e-12)

    def test_visibility_closed_form(self):
        t, r = 1 / 1.76, 0.76 / 1.76
        vis = hom_visibility(t, r, mu=1.0)
        assert abs(vis - 2 * t * r / (t * t + r * r)) < 1e-15
        assert abs(vis - 0.9636) < 5e-4

    def test_visibility_is_the_unscaled_closed_form_under_powers_of_two(self):
        # Scaling T and R by a power of two first moves no bit of the closed
        # form on normal inputs, and keeps its squares from underflowing.
        rng = np.random.default_rng(61)
        for t, r, mu in rng.uniform(0.0, 1.0, (2000, 3)):
            want = 2.0 * t * r * mu / (t * t + r * r)
            for j in (-900, -300, -1, 0, 1, 300, 900):
                assert hom_visibility(t * 2.0**j, r * 2.0**j, mu) == want
        readme = FilterParams.from_ratio(0.76)  # the dip.csv golden's visibility
        assert hom_visibility(readme.T, readme.R, 0.72) == 0.6937119675456388
        assert hom_visibility(1e-200, 0.0, 0.9) == 0.0
        assert hom_visibility(1e-200, 1e-200, 1.0) == 1.0

    def test_distinguishable_polarizations_via_kraus_oracle(self):
        hv = matrix_unit(1, 1, dim=4)
        grid = np.linspace(-100, 100, 9)
        for fp, rho in itertools.product(
            (FilterParams.from_ratio(0.76), FilterParams.from_ratio(0.76, scale=2.5)),
            (hv, random_density(np.random.default_rng(41))),
        ):
            curve = hom_dip(fp, grid, tau_c_fs=83.0, mu=1.0, rho=rho)
            for tau, rate in curve:
                p = decoherence_from_delay(tau, 83.0, mu=1.0)
                ks = kraus_pair(dataclasses.replace(fp, p=p))
                assert abs(rate - np.trace(apply_kraus(ks, rho)).real) < 1e-13

    def test_even_with_minimum_at_zero(self):
        fp = FilterParams.from_ratio(0.76, theta1=0.4, theta2=0.1)
        grid = np.linspace(-300, 300, 31)
        curve = hom_dip(fp, grid, tau_c_fs=83.0, mu=0.72)
        rates = curve[:, 1]
        assert_allclose(rates, rates[::-1], atol=1e-13)
        assert np.argmin(rates) == 15


class TestFilterBasisDiagonalGrowth:
    def test_strictly_increasing_in_p(self):
        c = np.cos(0.41 * np.pi / 2) * np.cos(0.076 * np.pi / 2)
        values = []
        for p in (0.14, 0.325, 0.5):
            fp = FilterParams.from_ratio(0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p)
            chi_f = model_chi(fp, "F")
            closed = (1 - p) * (fp.T - 2 * fp.R * c) ** 2 + p * (fp.T + 2 * fp.R * c) ** 2
            assert abs(chi_f.m[15, 15].real - closed) < 1e-12
            values.append(chi_f.m[15, 15].real)
        assert values[0] < values[1] < values[2]
