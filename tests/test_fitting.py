"""Decoherence-model fitting: residuals, symmetries, the angle profile, recovery."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import (
    BASIS_KINDS,
    FilterParams,
    FitConfig,
    ProcessMatrix,
    choi_from_kraus,
    fit,
    kraus_pair,
    model_chi,
    model_fidelity,
)
from bsqpt import build_input_set, reconstruct_process, simulate_counts, transform_process_matrix
from bsqpt import project_to_psd
from bsqpt.bases import build_basis, to_coeff_vector
from bsqpt.bsfilter import P_RANGE, filter_operators
from bsqpt import fitting
from bsqpt.fitting import (
    RATIO_BOUNDS,
    _BLOCK_IX,
    _OFF_BLOCK,
    _grid_starts,
    _kernel_inputs,
    _params,
    _unit_inputs,
)

from helpers import (
    block_terms, box_least_squares, dense_optimum, fail_best_start, fidelity, random_channel,
    random_filter, random_hermitian, random_matrix, trf_residual,
)

I4 = np.eye(4, dtype=complex)
BENCH = dict(multistart=4, max_iterations=500, convergence_tol=1e-9)


def paper_filter(p, scale=1.0):
    return FilterParams.from_ratio(
        0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p, scale=scale
    )


def outside_filter(p):
    """The reference filter's angles at R/T = 0.1, below the box."""
    return FilterParams.from_ratio(0.1, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p)


def truth_x(fp):
    """The box point ``x = alpha (t^2, r^2, (2p - 1) t r)`` of a filter."""
    t, r = fp.T / (fp.T + fp.R), fp.R / (fp.T + fp.R)
    alpha = fp.scale**2
    return (alpha * t * t, alpha * r * r, alpha * (2.0 * fp.p - 1.0) * t * r)


def folded(fp):
    """The unit-scale parameters that :func:`_params` reads off a filter's own box point."""
    return _params(fp.theta1, fp.theta2, truth_x(fp))[0]


def poisson_chi(fp, total, seed):
    inputs = build_input_set()
    ct = simulate_counts(kraus_pair(fp), inputs, total_scale=total, noise="poisson", seed=seed)
    return reconstruct_process(ct, inputs)


def off_block_chi(k):
    """The reference filter at p = 0.2 in S, its block 2^-k below ``chi_S[1, 1] = 1``."""
    chi = np.ldexp(model_chi(paper_filter(0.2)).m.view(np.float64), -k).view(complex)
    chi[1, 1] = 1.0
    return ProcessMatrix("S", chi)


def distance(fp, chi):
    """Frobenius distance between the model at ``fp`` and a measured matrix, in its basis."""
    return np.linalg.norm(model_chi(fp, chi.basis).m - chi.m)


def record_polish(monkeypatch):
    """Record every polish of the fit: ``(parts, grid point, (norm, tol, max_steps), result)``."""
    real = fitting.polish
    runs = []

    def spy(parts, theta1, theta2, *args):
        runs.append((parts, (theta1, theta2), args, real(parts, theta1, theta2, *args)))
        return runs[-1][-1]

    monkeypatch.setattr(fitting, "polish", spy)
    return runs


def record_scores(monkeypatch):
    """Record every squared residual the fit sums: ``(args, result)``."""
    real = fitting._squared_residual
    calls = []

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][-1]

    monkeypatch.setattr(fitting, "_squared_residual", spy)
    return calls


def record_profile(monkeypatch):
    """Record every point profile evaluation: ``(parts, theta1, theta2, result)``."""
    real = fitting.profile
    calls = []

    def spy(parts, theta1, theta2):
        calls.append((parts, theta1, theta2, real(parts, theta1, theta2)))
        return calls[-1][-1]

    monkeypatch.setattr(fitting, "profile", spy)
    return calls


def in_box(x, rel=1e-12):
    """Whether ``x = (x1, x2, x3)`` lies in the search box, up to ``rel`` of its size."""
    x1, x2, x3 = x
    slack = rel * (abs(x1) + abs(x2) + abs(x3))
    lo, hi = (r * r for r in RATIO_BOUNDS)
    return (x1 >= -slack and x2 - lo * x1 >= -slack and hi * x1 - x2 >= -slack
            and x1 * x2 - x3 * x3 >= -slack * (abs(x1) + abs(x2) + abs(x3)))


class TestModelChi:
    def test_matches_kraus_construction(self):
        fp = paper_filter(0.325)
        assert_allclose(model_chi(fp).m, choi_from_kraus(kraus_pair(fp)).m, atol=0)

    def test_matches_kraus_route_in_every_basis(self):
        # The factor route against choi_from_kraus, scale != 1 included; the
        # worst seen over 8000 matrices was 8.4e-16 of the largest entry.
        rng = np.random.default_rng(51)
        for _ in range(50):
            fp = random_filter(rng)
            ref = choi_from_kraus(kraus_pair(fp))
            for kind in BASIS_KINDS:
                chi, expected = model_chi(fp, kind), transform_process_matrix(ref, kind)
                assert chi.basis == kind
                assert np.max(np.abs(chi.m - expected.m)) <= 1e-14 * np.max(np.abs(expected.m))

    def test_factor_matches_the_operator_route_byte_for_byte(self):
        # The block closed form against the 16x16 filter operators' coefficient
        # vectors, the route the model matrix (and the choi golden) came from.
        rng = np.random.default_rng(52)
        for _ in range(500):
            fp = random_filter(rng)
            ops = filter_operators(fp.T, fp.R, fp.theta1, fp.theta2)
            v = to_coeff_vector(ops).T * (fp.scale * np.sqrt([1.0 - fp.p, fp.p]))
            for kind in BASIS_KINDS:
                expected = v if kind == "S" else build_basis(kind).u_dagger @ v
                got = fitting._factor(fp, kind, fp.scale)
                assert got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()

    def test_rank_at_most_two(self):
        for p in (0.0, 0.14, 0.5):
            w = np.linalg.eigvalsh(model_chi(paper_filter(p)).m)
            assert np.sum(w > 1e-10 * w[-1]) <= 2

    def test_ideal_filter_rank_one_in_f_basis(self):
        chi_f = model_chi(FilterParams.from_ratio(1.0), "F")
        w = np.linalg.eigvalsh(chi_f.m)
        assert np.sum(w > 1e-12) == 1

    def test_dominant_grown_diagonal_is_15(self):
        # Among the diagonal entries that grow with p, the swap-like corner
        # dominates at p = 1/2.
        chi_lo = model_chi(paper_filter(0.0), "F").m.diagonal().real
        chi_hi = model_chi(paper_filter(0.5), "F").m.diagonal().real
        grown = [a for a in range(16) if chi_hi[a] - chi_lo[a] > 1e-12]
        assert 15 in grown
        assert max(grown, key=lambda a: chi_hi[a]) == 15


class TestResidual:
    def test_zero_at_truth(self):
        fp = paper_filter(0.14)
        chi = model_chi(fp, "F")
        assert distance(fp, chi) < 1e-14

    def test_identity_shift(self):
        fp = paper_filter(0.14)
        chi = model_chi(fp)
        eps = 1e-3
        shifted = ProcessMatrix("S", chi.m + eps * np.eye(16))
        assert abs(distance(fp, shifted) - 4 * eps) < 1e-12

    def test_continuity_probe(self):
        fp = paper_filter(0.3)
        chi = model_chi(fp)
        base = distance(fp, chi)
        for dp in (1e-6, 1e-4, 1e-2):
            r = distance(dataclasses.replace(fp, p=fp.p + dp), chi)
            assert r > base
        r_small = distance(dataclasses.replace(fp, p=fp.p + 1e-6), chi)
        r_large = distance(dataclasses.replace(fp, p=fp.p + 1e-2), chi)
        assert r_small < r_large

    def test_basis_independent_value(self):
        fp = paper_filter(0.2)
        perturbed = dataclasses.replace(fp, p=0.3)
        chi_s = model_chi(fp, "S")
        chi_f = model_chi(fp, "F")
        assert abs(distance(perturbed, chi_s) - distance(perturbed, chi_f)) < 1e-12

    @pytest.mark.parametrize("total", [1e2, 1e3, 1e4])
    def test_fit_residual_is_the_dense_distance_on_records(self, total):
        # Reference and random filters, Poisson records in S and F, both configs.
        rng = np.random.default_rng(int(total))
        for k in range(12):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k % 2 else random_filter(rng)
            chi = poisson_chi(fp, total, 4000 + k)
            for basis, cfg in (("S", FitConfig(**BENCH)), ("F", FitConfig())):
                chi_b = transform_process_matrix(chi, basis)
                res = fit(chi_b, cfg)
                assert res.residual == pytest.approx(distance(res.params, chi_b), rel=1e-13, abs=0)

    @pytest.mark.parametrize("basis", ["S", "F"])
    def test_fit_residual_is_the_dense_distance_on_non_hermitian_matrices(self, basis):
        # The anti-Hermitian part, which no model reaches, counts in full.
        rng = np.random.default_rng(41)
        for scale in (1e-3, 1.0, 1e5):
            chi = ProcessMatrix(basis, scale * random_matrix(rng, 16))
            res = fit(chi, FitConfig(**BENCH))
            assert res.residual == pytest.approx(distance(res.params, chi), rel=1e-13, abs=0)

    @pytest.mark.parametrize("basis", ["S", "F"])
    def test_fit_residual_without_positive_overlap_is_the_matrix_norm(self, basis):
        rng = np.random.default_rng(42)
        m = random_matrix(rng, 16)
        skew = random_matrix(rng, 16)
        for chi in (-np.eye(16), -m @ m.conj().T, -m @ m.conj().T + (skew - skew.conj().T)):
            res = fit(ProcessMatrix(basis, chi), FitConfig(**BENCH))
            assert not res.positive_overlap
            assert res.residual == pytest.approx(np.linalg.norm(chi), rel=1e-13, abs=0)

    @pytest.mark.parametrize("basis", ["S", "F"])
    def test_fit_residual_of_noiseless_records_stays_at_rounding(self, basis):
        # The profile's cost, a difference of squared norms, would read about
        # 2^-26 of the matrix norm here.
        rng = np.random.default_rng(43)
        filters = [paper_filter(p) for p in (0.14, 0.325, 0.5)]
        filters += [random_filter(rng) for _ in range(20)]
        for fp in filters:
            chi = model_chi(fp, basis)
            for cfg in (FitConfig(**BENCH), FitConfig()):
                assert fit(chi, cfg).residual <= 1e-14 * np.linalg.norm(chi.m)

    def test_every_start_residual_is_the_dense_distance_at_its_end_point(self, monkeypatch):
        # Each start's entry is the distance of the model at its polished end
        # point, and the reported residual is the reported start's entry, on
        # a record with several starts and on the 20 out-of-box records.
        runs = record_polish(monkeypatch)
        several = several_starts_chi()
        chis = [several, transform_process_matrix(several, "F")]
        chis += [poisson_chi(outside_filter(p), 1e3, seed) for p in (0.0, 0.3)
                 for seed in range(10)]
        starts = 0
        for chi in chis:
            half = 2.0 ** (_unit_inputs(chi)[1] // 2)
            for kwargs in CONFIGS.values():
                del runs[:]
                res = fit(chi, FitConfig(**kwargs))
                assert res.residual == res.start_residuals[res.best_start]
                assert len(runs) == len(res.start_residuals)
                starts += len(runs)
                for run, residual in zip(runs, res.start_residuals):
                    fp, scale = _params(*run[-1][:3])
                    # A start without overlap ends at the zero model.
                    want = (distance(dataclasses.replace(fp, scale=scale * half), chi)
                            if scale > 0.0 else np.linalg.norm(chi.m))
                    assert residual == pytest.approx(want, rel=1e-13, abs=0)
        assert starts > 2 * len(chis)

    def test_fit_forms_no_model_factor(self, monkeypatch):
        # A fit builds neither the factor nor the fidelity; model_fidelity does both.
        calls = []
        for name in ("_factor", "_rank2_fidelity"):
            def spy(*args, real=getattr(fitting, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(fitting, name, spy)
        chi = transform_process_matrix(poisson_chi(paper_filter(0.325), 1e4, 33), "F")
        res = fit(chi, FitConfig(**BENCH))
        assert calls == []
        assert 0.0 < model_fidelity(res.params, chi) <= 1.0
        assert calls == ["_factor", "_rank2_fidelity"]


class TestSymmetries:
    def test_shift_both_angles_by_two_pi(self):
        fp = paper_filter(0.3)
        chi = model_chi(fp)
        shifted = FilterParams(
            T=fp.T,
            R=fp.R,
            theta1=fp.theta1 + 2 * np.pi,
            theta2=fp.theta2 + 2 * np.pi,
            p=fp.p,
        )
        assert distance(shifted, chi) < 1e-12

    def test_shift_one_angle_swaps_operators(self):
        # Adding 2 pi to a single angle negates the phase unitary, which
        # exchanges the roles of the two filter operators.
        fp = paper_filter(0.3)
        shifted = dataclasses.replace(fp, theta1=fp.theta1 + 2 * np.pi)
        ks_orig = kraus_pair(fp)
        ks_shift = kraus_pair(shifted)
        assert_allclose(ks_shift.items[0][1], ks_orig.items[1][1], atol=1e-12)
        assert_allclose(ks_shift.items[1][1], ks_orig.items[0][1], atol=1e-12)

    def test_params_wraps_even_shifts(self):
        fp = FilterParams(T=0.5, R=0.5, theta1=0.3 + 2 * np.pi, theta2=-0.4 - 2 * np.pi, p=0.2)
        canon = folded(fp)
        assert abs(canon.theta1 - 0.3) < 1e-12
        assert abs(canon.theta2 + 0.4) < 1e-12
        assert canon.p == pytest.approx(0.2)

    def test_params_odd_shift_at_half_mixing(self):
        fp = FilterParams(T=0.5, R=0.5, theta1=0.3 + 2 * np.pi, theta2=-0.4, p=0.5)
        canon = folded(fp)
        assert abs(canon.theta1 - 0.3) < 1e-12
        assert canon.p == pytest.approx(0.5)

    def test_params_keeps_channel_when_flip_unavailable(self):
        # Wrapping theta1 alone would need p -> 0.8, outside [0, 1/2]; p is
        # folded back instead, moving the wrapped theta1 2 pi toward zero.
        fp = FilterParams(T=0.5, R=0.5, theta1=0.3 + 2 * np.pi, theta2=-0.4, p=0.2)
        canon = folded(fp)
        assert abs(canon.theta1 - (0.3 - 2 * np.pi)) < 1e-12
        assert abs(canon.theta2 + 0.4) < 1e-12
        assert canon.p == pytest.approx(0.2)
        assert_allclose(model_chi(canon).m, model_chi(fp).m, rtol=0, atol=1e-12)

    def test_params_fold_leaves_the_channel_unchanged(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            fp = FilterParams(
                T=0.6,
                R=0.4,
                theta1=rng.uniform(-3 * np.pi, 3 * np.pi),
                theta2=rng.uniform(-3 * np.pi, 3 * np.pi),
                p=rng.uniform(0, 0.5),
            )
            canon = folded(fp)
            assert_allclose(model_chi(canon).m, model_chi(fp).m, atol=1e-11)


# The residuals of the fit before it ran on the box-constrained profile, on
# the 20 records of the reference filter's angles at R/T = 0.1 (p = 0 and
# 0.3, 1e3 counts, seeds 0-9), under the benchmark's FitConfig and the
# defaults. On the p = 0.3, seed 8 record it ended converged at p = 0.384,
# R/T = 0.25, in a local minimum of the box, with a 1.43% higher cost.
OUTSIDE_RESIDUALS = {
    "bench": [877.2510537014, 1108.197258922, 930.2932776767, 1181.263772964, 891.9081049802,
              1037.298356448, 916.036342253, 922.3973719455, 1004.966883462, 998.7079397678,
              1038.024981046, 1107.87934951, 1060.846111331, 1208.934015091, 916.271956953,
              1001.507102341, 1041.99168245, 928.9828652542, 1048.904598565, 950.7097600947],
    "default": [877.2510536678, 1108.197258763, 930.2932776701, 1181.263772961, 891.9081049543,
                1037.298356429, 916.0363421466, 922.3973719126, 1004.966883457, 998.7079397537,
                1038.024980949, 1107.87934951, 1060.846111331, 1208.93401453, 916.2719568141,
                1001.507102283, 1041.99168245, 928.9828647397, 1048.904598169, 950.7097600947],
}
CONFIGS = {"bench": BENCH, "default": {}}


def several_starts_chi():
    """A Poisson record of a random channel (rng 42, 1e4 counts, seed 31) with four grid minima."""
    inputs = build_input_set()
    ct = simulate_counts(random_channel(np.random.default_rng(42)), inputs, total_scale=1e4,
                         noise="poisson", seed=31)
    return reconstruct_process(ct, inputs)


def unpolished(parts, theta1, theta2, *args):
    """A stand-in for ``polish`` that leaves the grid point as it is, converged."""
    value, x = fitting.profile(parts, theta1, theta2)[:2]
    return theta1, theta2, x, value, True, 1


class TestFit:
    def test_recovers_reference_parameters(self):
        fp = paper_filter(0.325)
        chi = model_chi(fp, "F")
        res = fit(chi, FitConfig())
        assert res.converged
        assert abs(res.params.p - fp.p) < 1e-4
        assert abs(res.params.ratio_rt - 0.76) < 1e-4
        assert abs(res.params.theta1 - fp.theta1) < 1e-4
        assert abs(res.params.theta2 - fp.theta2) < 1e-4
        assert abs(res.params.scale - 1.0) < 1e-4

    def test_ideal_filter_limit(self):
        chi = model_chi(FilterParams.from_ratio(1.0))
        res = fit(chi, FitConfig())
        assert res.params.p < 1e-4
        assert abs(res.params.T - res.params.R) < 1e-4

    def test_residual_field_consistent(self):
        chi = model_chi(paper_filter(0.14), "F")
        res = fit(chi, FitConfig(multistart=4))
        assert abs(distance(res.params, chi) - res.residual) < 1e-12

    def test_no_polished_start_below_the_reported_residual(self):
        chi = model_chi(paper_filter(0.2))
        cfg = FitConfig(multistart=6)
        res = fit(chi, cfg)
        for start_res in res.start_residuals:
            assert res.residual <= start_res + 1e-12

    def test_deterministic_given_seed(self):
        # The seed is accepted and has no effect: the fit draws nothing.
        chi = poisson_chi(paper_filter(0.325), 1e4, seed=31)
        a = fit(chi, FitConfig(multistart=4, seed=6))
        b = fit(chi, FitConfig(multistart=4, seed=7))
        assert a == b
        assert model_fidelity(a.params, chi) == model_fidelity(b.params, chi)

    def test_scale_recovery_from_rate_scaled_matrix(self):
        fp = paper_filter(0.325, scale=50.0)
        chi = model_chi(fp)
        res = fit(chi, FitConfig())
        assert abs(res.params.scale - 50.0) / 50.0 < 1e-4
        assert abs(res.params.p - 0.325) < 1e-4

    @pytest.mark.parametrize("power", [-1000, -600, 250, 400, 490, 498, 600, 1000,
                                       -999, 251, 497, 1001])
    def test_large_matrices_descend_as_at_unit_scale(self, power):
        # The fit scales the matrix by an even power of two, which is exact and
        # has an exact square root, so an even power takes the same steps; an
        # odd one shifts the unit matrix by one binade and moves only rounding.
        fp = FilterParams.from_ratio(0.76, theta1=1.288053, theta2=0.238761, p=0.325)
        poisson = transform_process_matrix(poisson_chi(fp, 1e4, 1), "F")
        for chi, starts in ((poisson, 4), (poisson, 16), (model_chi(paper_filter(0.2)), 4)):
            cfg = FitConfig(multistart=starts)
            big_chi = ProcessMatrix(chi.basis, chi.m * 2.0**power)
            base, big = fit(chi, cfg), fit(big_chi, cfg)
            shape = [dataclasses.replace(r.params, scale=1.0) for r in (base, big)]
            if power % 2:
                for name in ("p", "T", "R", "theta1", "theta2"):
                    got, want = (getattr(s, name) for s in shape[::-1])
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                continue
            assert shape[1] == shape[0]
            for name in ("n_evaluations", "converged", "best_start"):
                assert getattr(big, name) == getattr(base, name)
            assert model_fidelity(big.params, big_chi) == model_fidelity(base.params, chi)
            assert big.residual == base.residual * 2.0**power
            assert big.start_residuals == [v * 2.0**power for v in base.start_residuals]
            assert big.params.scale == base.params.scale * 2.0 ** (power // 2)

    def test_monotone_p_over_delay_conditions(self):
        fitted = []
        for p in (0.14, 0.325, 0.5):
            chi = model_chi(paper_filter(p), "F")
            fitted.append(fit(chi, FitConfig(multistart=8)).params.p)
        assert fitted[0] < fitted[1] < fitted[2]

    def test_starts_respect_bounds(self):
        # Every polished start's x lies in the box, and its parameters too,
        # with theta2 wrapped into [-pi, pi].
        rng = np.random.default_rng(9)
        chis = [model_chi(paper_filter(0.2)).m, poisson_chi(paper_filter(0.325), 1e3, seed=9).m,
                poisson_chi(outside_filter(0.3), 1e3, seed=8).m, np.eye(16), np.zeros((16, 16)),
                random_hermitian(rng, 16)]
        for chi in chis:
            starts = _grid_starts(*_kernel_inputs(chi.astype(complex)), FitConfig(multistart=32))
            assert starts
            for cost, th1, th2, x, _, _ in starts:
                assert in_box(x)
                fp, scale = _params(th1, th2, x)
                assert P_RANGE[0] <= fp.p <= P_RANGE[1] and scale >= 0.0
                assert RATIO_BOUNDS[0] * (1 - 1e-15) <= fp.ratio_rt <= RATIO_BOUNDS[1] * (1 + 1e-15)
                assert math.isfinite(fp.theta1) and -math.pi <= fp.theta2 <= math.pi

    def test_params_read_the_filter_off_its_box_point(self):
        # Any box point x, either sign of x3 (either half of p), at the angles
        # or at raw angles 2 pi away on one or both as the polish can return
        # them, gives parameters whose model is [a b] X [a b]^+ on the block
        # at those raw angles, with theta2 wrapped into [-pi, pi]: a filter's
        # own x gives back its channel and scale.
        rng = np.random.default_rng(10)
        for _ in range(50):
            fp = random_filter(rng)
            x1, x2, x3 = truth_x(fp)
            signs = ((x1, x2, x3), (x1, x2, -x3))
            for x, n1, n2 in itertools.product(signs, (-1, 0, 1), (-1, 0, 1)):
                theta = (fp.theta1 + 2 * np.pi * n1, fp.theta2 + 2 * np.pi * n2)
                got, scale = _params(*theta, x)
                assert scale == pytest.approx(fp.scale, rel=1e-14)
                assert -np.pi <= got.theta2 <= np.pi
                a, b = block_terms(theta)
                m = np.stack([a, b], axis=1)
                want = m @ np.array([[x[0], x[2]], [x[2], x[1]]]) @ m.conj().T
                got_chi = model_chi(dataclasses.replace(got, scale=scale)).m
                assert_allclose(got_chi[_BLOCK_IX], want, rtol=0, atol=1e-12 * fp.scale**2)

    def test_nonconvergence_reported_not_raised(self):
        # A Poisson record with two starts, neither of which converges in two
        # Newton steps from its grid point.
        chi = poisson_chi(paper_filter(0.3), 1e4, seed=6)
        res = fit(chi, FitConfig(multistart=2, max_iterations=2))
        assert not res.converged
        assert res.residual >= 0.0

    def test_converged_describes_the_reported_start(self, monkeypatch):
        fail_best_start(monkeypatch)
        chi = model_chi(paper_filter(0.3))
        res = fit(chi, FitConfig(multistart=4))
        assert res.residual < 1e-8
        assert res.converged is False

    def test_evaluation_count_is_every_profile_evaluation(self, monkeypatch):
        # A record whose angle grid has several minima, so several starts:
        # n_evaluations is every point evaluation of their polishes, each of
        # which gives the residual with its gradient and Hessian at once.
        calls = record_profile(monkeypatch)
        runs = record_polish(monkeypatch)
        res = fit(several_starts_chi(), FitConfig(multistart=4))
        assert len(res.start_residuals) == len(runs) >= 2
        assert res.n_evaluations == len(calls) == sum(run[-1][5] for run in runs)

    def test_evaluation_count_includes_unreported_and_stopped_polishes(self, monkeypatch):
        # The starts that the fit does not report, and the polishes stopped
        # by max_iterations before they converge, count every evaluation.
        runs = record_polish(monkeypatch)
        res = fit(several_starts_chi(), FitConfig(multistart=4, max_iterations=2))
        evaluations = [run[-1][5] for run in runs]
        stopped = [not run[-1][4] for run in runs]
        assert len(runs) == len(res.start_residuals) >= 2 and any(stopped)
        dropped = [e for k, e in enumerate(evaluations) if k != res.best_start]
        assert all(e >= 1 for e in dropped)
        assert res.n_evaluations == evaluations[res.best_start] + sum(dropped)
        # A stopped polish made its start's evaluation and one per step at least.
        assert all(e >= 3 for e, s in zip(evaluations, stopped) if s)

    def test_reaches_the_box_optimum_outside_the_unconstrained_cone(self):
        # The record's best box point lies where the unconstrained profile's x
        # is not positive semidefinite; the fit used to end converged at
        # p = 0.384, R/T = 0.25 with residual 1048.905, a local minimum of the
        # box, under both configurations.
        chi = poisson_chi(outside_filter(0.3), 1e3, seed=8)
        for kwargs in CONFIGS.values():
            res = fit(chi, FitConfig(**kwargs))
            assert res.converged
            assert res.residual**2 <= (1 - 0.014) * 1048.904598169**2
            assert res.params.p == pytest.approx(0.445, abs=1e-3)
            assert res.params.ratio_rt == pytest.approx(RATIO_BOUNDS[0], rel=1e-12)

    @pytest.mark.parametrize("config", sorted(CONFIGS))
    def test_no_worse_than_before_on_out_of_box_records(self, config):
        cfg = FitConfig(**CONFIGS[config])
        records = [poisson_chi(outside_filter(p), 1e3, seed) for p in (0.0, 0.3)
                   for seed in range(10)]
        for chi, before in zip(records, OUTSIDE_RESIDUALS[config]):
            res = fit(chi, cfg)
            assert res.converged
            assert res.residual <= before * (1 + 1e-9)

    @pytest.mark.parametrize("field, option", [("multistart", "--multistart"),
                                               ("max_iterations", "--max-iter")])
    @pytest.mark.parametrize("value", [0, -2])
    def test_config_rejects_fewer_than_one(self, field, option, value):
        with pytest.raises(ValueError, match=f"{field} \\({option}\\) must be at least 1"):
            FitConfig(**{field: value})

    def test_fidelity_matches_the_uhlmann_reference(self):
        # 60 Poisson records: the reference filter at the three paper delays,
        # then random filters, at 1e4 and 1e3 counts, fitted in the F basis.
        rng = np.random.default_rng(30)
        for k in range(60):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 30 else random_filter(rng)
            chi = transform_process_matrix(poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, 3000 + k),
                                           "F")
            res = fit(chi, FitConfig(**BENCH))
            reference = fidelity(project_to_psd(model_chi(res.params, "F").m),
                                 project_to_psd(chi.m))
            assert abs(model_fidelity(res.params, chi) - reference) <= 1e-7

    def test_fidelity_matches_the_rank_two_route_on_the_projection(self):
        # One eigendecomposition gives the fidelity as the 2x2 route on the
        # formed PSD projection does: within 1e-14 on the same 60 records.
        rng = np.random.default_rng(30)
        for k in range(60):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 30 else random_filter(rng)
            chi = transform_process_matrix(poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, 3000 + k),
                                           "F")
            res = fit(chi, FitConfig(**BENCH))
            v = fitting._factor(res.params, "F", res.params.scale)
            b = project_to_psd(chi.m)
            m = v.conj().T @ b @ v
            w = np.clip(np.linalg.eigvalsh(0.5 * (m + m.conj().T)), 0.0, None)
            reference = np.sum(np.sqrt(w)) ** 2 / (np.vdot(v, v).real * np.trace(b).real)
            assert abs(model_fidelity(res.params, chi) - reference) <= 1e-14

    def test_fidelity_is_one_on_noiseless_records(self):
        filters = [paper_filter(p) for p in (0.14, 0.325, 0.5)] + edge_filters()
        for fp in filters:
            chi = model_chi(fp, "F")
            res = fit(chi, FitConfig(multistart=4))
            assert abs(model_fidelity(res.params, chi) - 1.0) <= 1e-12

    def test_fidelity_is_computed_once_on_first_read(self, monkeypatch):
        # The fit runs no fidelity; each read runs one rank-two route, on the
        # model at the mantissa of its scale and the matrix at unit magnitude.
        real, calls = fitting._rank2_fidelity, []

        def spy(v, m):
            calls.append((v, m))
            return real(v, m)

        monkeypatch.setattr(fitting, "_rank2_fidelity", spy)
        chi = poisson_chi(paper_filter(0.325), 1e4, seed=31)
        res = fit(chi, FitConfig(**BENCH))
        assert calls == []
        first = model_fidelity(res.params, chi)
        assert len(calls) == 1
        assert model_fidelity(res.params, chi) == first and len(calls) == 2
        v, unit = calls[0]
        assert first == real(v, unit)
        assert np.array_equal(v, fitting._factor(res.params, chi.basis,
                                                 math.frexp(res.params.scale)[0]))
        assert np.array_equal(unit * 2.0 ** _unit_inputs(chi)[1], chi.m)

    def test_fidelity_is_the_same_under_powers_of_two(self):
        # The model runs at the mantissa of its scale and the matrix at unit
        # magnitude: the fit's parameters and the true filter against its
        # Poisson reconstruction keep their fidelity to the bit.
        rng = np.random.default_rng(34)
        for k in range(20):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 6 else random_filter(rng)
            chi = transform_process_matrix(poisson_chi(fp, (1e2, 1e3, 1e4)[k % 3], 3100 + k),
                                           "SBCF"[k % 4])
            res = fit(chi, FitConfig(**BENCH))
            for params in (res.params, fp):
                want = model_fidelity(params, chi)
                assert 0.0 < want <= 1.0
                for i in (-300, -1, 1, 250, 500):
                    scaled = ProcessMatrix(chi.basis, chi.m * 4.0**i)
                    assert model_fidelity(params, scaled) == want
                for j in (-1000, -7, 3, 500, 1000):
                    moved = dataclasses.replace(params, scale=params.scale * 2.0**j)
                    assert model_fidelity(moved, chi) == want

    def test_model_fidelity_runs_no_basis_change(self, monkeypatch):
        # The fidelity needs the matrix at unit magnitude only, in its own
        # basis: neither the fit's basis change nor its kernel inputs.
        chi = transform_process_matrix(poisson_chi(paper_filter(0.325), 1e4, 33), "F")
        res = fit(chi, FitConfig(**BENCH))
        calls = []
        for name in ("change_basis", "_kernel_inputs"):
            def spy(*args, real=getattr(fitting, name), name=name):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(fitting, name, spy)
        assert 0.0 < model_fidelity(res.params, chi) <= 1.0
        assert calls == []

    def test_repr_holds_no_array(self):
        res = fit(poisson_chi(paper_filter(0.14), 1e4, seed=32), FitConfig(**BENCH))
        text = repr(res)
        assert "array" not in text and "_v" not in text and "_unit" not in text
        assert "fidelity" not in text
        assert [f.name for f in dataclasses.fields(res)] == [
            "params", "residual", "n_evaluations", "converged", "start_residuals",
            "best_start", "positive_overlap"]

    def test_fidelity_none_without_positive_trace(self):
        chi = ProcessMatrix("S", -np.eye(16))
        res = fit(chi, FitConfig(multistart=2))
        assert model_fidelity(res.params, chi) is None

    @pytest.mark.parametrize("m", [-np.eye(16), np.zeros((16, 16))])
    def test_no_positive_overlap_not_converged(self, m):
        res = fit(ProcessMatrix("S", m), FitConfig(multistart=3))
        assert res.converged is False
        assert res.residual >= np.linalg.norm(m)

    def test_no_positive_overlap_scale_is_the_same_at_every_magnitude(self):
        # Without an overlap the scale is a stand-in for zero, not scaled with chi.
        m = -(3 / 7) * np.diag(np.arange(1.0, 17.0))
        for j in (-500, 0, 250, 500):
            res = fit(ProcessMatrix("S", m * 4.0**j), FitConfig())
            assert res.positive_overlap is False
            assert res.params.scale == 1e-150

    @pytest.mark.parametrize("k", [1000, 1020, 1060])
    def test_a_positive_scale_below_the_stand_in_is_reported_as_profiled(self, k):
        # A block far below chi_S[1, 1] = 1 profiles a scale below 1e-150 at the
        # fit's magnitude; only a fit without overlap reports the stand-in.
        chi = off_block_chi(k)
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            res = fit(chi)
        _, e, target, floor = _unit_inputs(chi)
        start = _grid_starts(target, floor, FitConfig())[res.best_start]
        scale = _params(*start[1:4])[1]
        assert res.positive_overlap and 0.0 < scale < 1e-150
        assert res.params.scale == scale * 2.0 ** (e // 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
    def test_non_finite_matrix_raises(self, bad):
        # One entry is enough. It is read off the scaling's maximum, before any
        # product, so no warning comes first.
        m = model_chi(paper_filter(0.325), "F").m.copy()
        m[3, 5] = bad
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="process matrix is not finite"):
                fit(ProcessMatrix("F", m), FitConfig(**BENCH))

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_best_start_is_the_reported_start(self, monkeypatch, k):
        # Start k comes back at the lowest end point of a real polish of
        # every start; the others come back unpolished at their grid points.
        real = fitting._grid_starts

        def starts(target, floor, cfg):
            polished = real(target, floor, cfg)
            with monkeypatch.context() as patch:
                patch.setattr(fitting, "polish", unpolished)
                out = real(target, floor, cfg)
            assert k < len(out)
            out[k] = min(polished, key=lambda start: start[0])
            return out

        monkeypatch.setattr(fitting, "_grid_starts", starts)
        res = fit(several_starts_chi(), FitConfig(multistart=4))
        assert res.best_start == k
        assert res.residual < min(r for i, r in enumerate(res.start_residuals) if i != k)

    def test_reports_the_earliest_start_of_the_optimum(self, monkeypatch):
        # A Poisson record of a filter at R/T = 0.2, outside the box, whose
        # two starts polish to the same channel, with residuals and angles
        # that differ only by rounding.
        fp = FilterParams.from_ratio(0.2, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=0.3)
        chi = poisson_chi(fp, 1e3, seed=20)
        runs = record_polish(monkeypatch)
        res = fit(chi)
        target = model_chi(dataclasses.replace(res.params, scale=1.0)).m
        low = min(res.start_residuals)
        reached = [k for k, (r, run) in enumerate(zip(res.start_residuals, runs))
                   if r <= low * (1 + 1e-12)
                   and np.linalg.norm(model_chi(_params(*run[-1][:3])[0]).m - target) <= 1e-9]
        assert len(reached) > 1
        assert res.best_start == reached[0]

    def test_rounding_noise_in_the_angles_does_not_pick_the_start(self, monkeypatch):
        # Every start ends at the truth, each later one with angles a few
        # ulp smaller: the earliest start is reported, not the smallest norm.
        fp = paper_filter(0.325)

        def starts(target, floor, cfg):
            return [(0.0, fp.theta1 * (1.0 - 1e-15 * k), fp.theta2 * (1.0 - 1e-15 * k),
                     truth_x(fp), True, 1) for k in range(cfg.multistart)]

        monkeypatch.setattr(fitting, "_grid_starts", starts)
        res = fit(model_chi(fp), FitConfig(multistart=4))
        assert len(res.start_residuals) == 4
        assert res.best_start == 0


class TestGridStarts:
    def test_one_start_reaches_the_truth_on_noiseless_filters(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            fp = random_filter(rng, (0.01, 0.49))
            chi = model_chi(fp)
            res = fit(chi, FitConfig(multistart=1))
            assert res.converged
            assert res.residual <= 1e-14 * np.linalg.norm(chi.m)
            assert abs(res.params.p - fp.p) <= 1e-12

    def test_finite_and_in_the_box_on_degenerate_input(self, monkeypatch):
        # Zero, negative-definite and subnormal matrices, as the fit scales
        # them, and the first three also as they are; the start list takes
        # only inputs at unit magnitude, not the subnormal one at 2^-1074.
        # The fit and the start list raise on underflow too; every start is
        # finite.
        runs = record_polish(monkeypatch)
        rng = np.random.default_rng(18)
        m = random_matrix(rng, 16)
        chis = [np.zeros((16, 16)), -np.eye(16), -m @ m.conj().T,
                np.ldexp(random_hermitian(rng, 16).view(np.float64), -1074).view(complex)]
        starts = []
        for k, chi in enumerate(chis):
            with np.errstate(all="raise"):
                fit(ProcessMatrix("S", chi), FitConfig())
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                inputs = [_kernel_inputs(chi.astype(complex))] * (k < 3)
                inputs.append(_unit_inputs(ProcessMatrix("S", chi))[2:])
            for target, floor in inputs:
                with np.errstate(all="raise"):
                    starts.extend(_grid_starts(target, floor, FitConfig()))
        assert len(runs) >= len(chis) and len(starts) >= 2 * len(chis)
        for cost, th1, th2, x, _, _ in starts + [(*run[-1][3:4], *run[-1][:3], 0, 0)
                                                  for run in runs]:
            assert np.all(np.isfinite([cost, th1, th2, *x]))
            assert in_box(x)

    @pytest.mark.parametrize("k", [300, 510, 520, 529, 531, 600, 1000])
    def test_a_block_far_below_the_rest_of_the_matrix_is_flat(self, k):
        # The reference filter's block 2^-k below chi_S[1, 1] = 1: at the fit's
        # magnitude the block squares to nothing, or to subnormal gradients,
        # and the polish stops at its grid start, with no warning.
        with warnings.catch_warnings(), np.errstate(divide="raise", over="raise",
                                                    invalid="raise"):
            warnings.simplefilter("error")
            res = fit(off_block_chi(k), FitConfig(multistart=4))
        assert res.converged and res.n_evaluations == 4
        assert res.residual == pytest.approx(1.0, rel=1e-12, abs=0.0)

    def test_start_order(self, monkeypatch):
        # The fit's starts are the grid starts of the matrix at its unit
        # magnitude, cut to multistart: it scores each at its end point, in
        # order, and each score is the start's profile cost up to the
        # profile's rounding.
        chi = several_starts_chi()
        _, e, target, floor = _unit_inputs(chi)
        norm = floor + target @ target
        every = _grid_starts(target, floor, FitConfig())
        assert len(every) >= 2
        scores = record_scores(monkeypatch)
        for m in (1, 2, 3, 16):
            del scores[:]
            res = fit(chi, FitConfig(multistart=m))
            want = _grid_starts(target, floor, FitConfig(multistart=m))
            assert want == every[:m]
            assert [args[3:] for args, _ in scores] == [s[1:4] for s in want]
            assert res.start_residuals == [math.sqrt(sq) * 2.0**e for _, sq in scores]
            for s, (_, sq) in zip(want, scores):
                assert abs(sq - s[0]) <= 1e-13 * norm

    def test_the_bound_scales_with_the_target(self):
        # The grid runs at the fit's unit magnitude only: on chi 4^k the unit
        # inputs, so the start list, are those of chi, and the fit scales the
        # residuals back, the reported one with the rest; its square is the
        # lowest profile cost, which bounds the fit's cost, up to the
        # profile's rounding.
        chi = poisson_chi(paper_filter(0.325), 1e4, seed=31)
        _, e, target, floor = _unit_inputs(chi)
        starts = _grid_starts(target, floor, FitConfig())
        bound = min(s[0] for s in starts)
        assert all(0.0 < bound <= s[0] <= floor + target @ target for s in starts)
        base = fit(chi)
        for k in (-300, -150, 150, 250):
            big = ProcessMatrix(chi.basis, np.ldexp(chi.m.view(np.float64), 2 * k).view(complex))
            _, e_big, target_big, floor_big = _unit_inputs(big)
            assert e_big == e + 2 * k
            assert _grid_starts(target_big, floor_big, FitConfig()) == starts
            res = fit(big)
            assert res.start_residuals == [math.ldexp(r, 2 * k) for r in base.start_residuals]
            assert res.residual == res.start_residuals[res.best_start] == math.ldexp(
                base.residual, 2 * k)
            assert math.ldexp(res.residual, -2 * k - e)**2 == pytest.approx(bound, rel=1e-12,
                                                                             abs=0)

    def test_start_list_matches_a_brute_force_grid(self, monkeypatch):
        # The grid built point by point: a least-squares solve over the box's
        # faces at each angle pair (helpers.box_least_squares), the local minima
        # by a loop over the eight neighbours and the order by repeated
        # minimum. The identity and zero matrices have a flat profile, so the
        # first grid points win. Unpolished, the starts are the brute-force ones.
        monkeypatch.setattr(fitting, "polish", unpolished)
        for chi in profile_matrices():
            target, floor = _kernel_inputs(chi.astype(complex))
            norm = floor + target @ target
            got = _grid_starts(target, floor, FitConfig(multistart=20))
            want = brute_force_grid_starts(target, floor, 20)
            assert len(got) == len(want)
            for (cost, th1, th2, *_), (want_cost, want_th1, want_th2) in zip(got, want):
                assert (th1, th2) == (want_th1, want_th2)
                assert abs(cost - want_cost) <= 1e-12 * max(norm, 1.0)

    def test_four_starts_reach_the_dense_start_optimum(self):
        # 24 Poisson records: the reference filter at the three paper delays
        # and random filters, at 1e4 and 1e3 counts, as the benchmark fits them.
        rng = np.random.default_rng(20)
        for k in range(24):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 12 else random_filter(rng)
            chi = poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, seed=2000 + k)
            res = fit(chi, FitConfig(**BENCH))
            assert res.residual <= (1 + 1e-9) * dense_optimum(chi)

    def test_one_start_crosses_p_one_half(self):
        # On these records the optimum lies near p = 1/2, where the sign of
        # x3 turns and the reported p folds, on either side for about half
        # of them. theta2 stays in [-pi, pi]; theta1 leaves it only on the
        # fits whose p was folded, those whose x3, signed by the parity of
        # the turns that wrap the start's angles, is positive.
        folds = 0
        for seed in range(1000, 1020):
            chi = poisson_chi(paper_filter(0.5), 1e4, seed)
            res = fit(chi, FitConfig(multistart=1))
            assert res.residual <= (1 + 1e-9) * dense_optimum(chi)
            _, th1, th2, x, _, _ = _grid_starts(*_unit_inputs(chi)[2:], FitConfig(multistart=1))[0]
            turns = round(th1 / (2 * np.pi)) + round(th2 / (2 * np.pi))
            folded_p = (-1) ** turns * x[2] > 0.0
            folds += folded_p
            assert -np.pi <= res.params.theta2 <= np.pi
            assert abs(res.params.theta1) <= np.pi or folded_p
        assert 0 < folds < 20


def profile_matrices():
    """A Poisson record, a model matrix, a random Hermitian matrix, I, -I and zero."""
    rng = np.random.default_rng(19)
    return [poisson_chi(paper_filter(0.325), 1e4, seed=31).m, model_chi(paper_filter(0.2)).m,
            random_hermitian(rng, 16), np.eye(16), -np.eye(16), np.zeros((16, 16))]


def parts_of(chi):
    """The profile ``parts`` (:func:`bsqpt.fitting.grid`) of a Hermitian S matrix, target, floor."""
    target, floor = _kernel_inputs(chi.astype(complex))
    return fitting.grid(fitting._profile_maps(), target)[1], target, floor


def polish_runs(monkeypatch, chis, cfg=None):
    """Every ``polish`` call of ``_grid_starts`` (16 starts by default) on ``chis``.

    Each is ``(parts, grid point, (norm, tol, max_steps), result)``.
    """
    with monkeypatch.context() as patch:
        runs = record_polish(patch)
        for chi in chis:
            _grid_starts(*_kernel_inputs(chi.astype(complex)), cfg or FitConfig())
    return runs


def regime_blocks(rng, count):
    """``count`` blocks at random angles whose box optimum lies on each face in turn.

    The block is ``[a b] X [a b]^+`` plus Hermitian noise, for an ``X`` inside
    the box, indefinite (the clip), with a ratio beyond either face, or both
    by about as much (the corners), or negative definite (``X = 0``).
    """
    shapes = [[[1.0, 0.3], [0.3, 0.8]], [[1.0, 1.5], [1.5, 0.8]], [[1.0, 0.1], [0.1, 0.01]],
              [[0.01, 0.05], [0.05, 1.0]], [[1.0, -2.0], [-2.0, 0.001]],
              [[1.0, 0.28], [0.28, 0.01]], [[0.01, -0.28], [-0.28, 1.0]],
              [[-1.0, 0.2], [0.2, -0.5]]]
    out = []
    for k in range(count):
        theta = rng.uniform(-np.pi, np.pi, 2)
        a, b = block_terms(theta)
        m = np.stack([a, b], axis=1)
        x = np.array(shapes[k % len(shapes)]) * rng.uniform(0.5, 2.0)
        noise = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        block = m @ x @ m.conj().T + 0.02 * (noise + noise.conj().T)
        out.append((np.ascontiguousarray(block).view(np.float64).ravel(), theta))
    return out


class TestProfile:
    def test_value_and_x_match_a_least_squares_solve(self):
        # At every grid point of three matrices and at 20 random angle pairs
        # of each, the box's least-squares solve (helpers.box_least_squares)
        # gives the value to 1e-12 of the block's squared norm, and x to
        # 1e-12 of its norm, or 1e-7 where the solve searches the rank-one
        # boundary by value, which places its point only to about the square
        # root of the rounding; the grid gives the point values to 1e-13.
        rng = np.random.default_rng(32)
        for k, chi in enumerate(profile_matrices()):
            parts, target, _ = parts_of(chi)
            norm = target @ target
            grid_value = fitting.grid(fitting._profile_maps(), target)[0]
            angles = list(rng.uniform(-4.0, 4.0, (20, 2)))
            if k < 3:
                angles += list(fitting._GRID)
            for theta in angles:
                value, x, *_ = fitting.profile(parts, *theta)
                cost, want, face = box_least_squares(target, theta)
                assert abs((norm - value) - cost) <= 1e-12 * max(norm, 1.0)
                tol = 1e-7 if face == "rank one" else 1e-12
                assert np.all(np.abs(np.array(x) - want) <= tol * max(np.sqrt(norm), 1.0))
            for g, theta in enumerate(fitting._GRID):
                value = fitting.profile(parts, *theta)[0]
                assert abs(value - grid_value[g]) <= 1e-13 * max(norm, 1.0)

    def test_value_on_each_face_matches_the_box_reference(self):
        # Blocks built to put the box optimum inside, on the clip, on either
        # ratio face and at a corner, at random angles: the profile's value is
        # the reference's to 1e-12 of the block's squared norm, and each face
        # is met.
        rng = np.random.default_rng(36)
        faces = set()
        for target, theta in regime_blocks(rng, 64):
            parts = fitting.grid(fitting._profile_maps(), target)[1]
            value, x, *_ = fitting.profile(parts, *theta)
            norm = target @ target
            cost, _, face = box_least_squares(target, theta)
            faces.add(face)
            assert abs((norm - value) - cost) <= 1e-12 * norm
            assert in_box(x)
        assert faces == {"inside", "rank one", "ratio face", "corner"}

    def test_gradient_and_hessian_match_central_differences(self, monkeypatch):
        rng = np.random.default_rng(33)
        h = 1e-5
        for parts, *_ in polish_runs(monkeypatch, profile_matrices()[:3]):
            for theta in rng.uniform(-4.0, 4.0, (10, 2)):
                assert_derivatives_match(parts, theta, h)

    def test_polished_starts_are_stationary_or_stopped(self, monkeypatch):
        # Each polish ends no higher in cost than its grid point, with the x
        # and P of its end point; where it converged, the profile is
        # stationary there (Newton's next step at most 1e-7), and where not,
        # it ran out of steps.
        rng = np.random.default_rng(34)
        chis = profile_matrices() + [random_hermitian(rng, 16) for _ in range(5)]
        chis += [poisson_chi(paper_filter(p), total, seed).m for p in (0.0, 0.14, 0.325, 0.5)
                 for total in (1e3, 1e4) for seed in range(3)]
        chis += [poisson_chi(outside_filter(p), 1e3, seed).m for p in (0.0, 0.3)
                 for seed in range(3)]
        stationary = 0
        for parts, grid, (norm, tol, steps), result in polish_runs(monkeypatch, chis):
            theta1, theta2, x, top, converged, evaluations = result
            value, x_end, (g1, g2), (h11, h12, h22) = fitting.profile(parts, theta1, theta2)
            start = fitting.profile(parts, *grid)[0]
            assert value >= start - 1e-14 * abs(start)
            assert_allclose(x, x_end, rtol=1e-12, atol=1e-14 * max(np.abs(x_end).max(), 1.0))
            assert abs(top - value) <= 1e-12 * (abs(value) + 1.0)
            assert evaluations >= 1
            if not converged:
                continue
            det = h11 * h22 - h12 * h12
            if h11 < 0.0 and det > 0.0:
                step = np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2]) / det
                stationary += np.abs(step).sum() <= 1e-7
                assert np.abs(step).sum() <= 1e-7
            else:
                assert math.hypot(g1, g2) <= 1e-12 * max(norm, 1.0)
        assert stationary >= 40

    def test_the_end_point_is_stable_under_rounding(self, monkeypatch):
        # A change of one ulp in one wave coefficient moves every polished end
        # point by at most about 1e-12: the polish stops on the Newton
        # decrement, not on a comparison of values at rounding level.
        chis = [poisson_chi(paper_filter(p), total, seed).m for p in (0.14, 0.325, 0.5)
                for total in (1e3, 1e4) for seed in range(4)]
        chis += [poisson_chi(outside_filter(p), 1e3, seed).m for p in (0.0, 0.3)
                 for seed in range(4)]
        rng = np.random.default_rng(37)
        moved = []
        for cfg in (FitConfig(), FitConfig(**BENCH)):
            for (c, iw), grid, args, result in polish_runs(monkeypatch, chis, cfg):
                i, j = rng.integers(c.shape[0]), rng.integers(c.shape[1])
                bumped = c.copy()
                bumped[i, j] = complex(np.nextafter(c[i, j].real, np.inf), c[i, j].imag)
                again = fitting.polish((bumped, iw), *grid, *args)
                assert again[4] == result[4]
                moved.append(max(abs(again[0] - result[0]), abs(again[1] - result[1])))
        assert len(moved) >= 60
        assert max(moved) <= 1e-12


def assert_derivatives_match(parts, theta, h=1e-5):
    """The profile's gradient and Hessian at ``theta`` against central differences."""
    value, _, gradient, (h11, h12, h22) = fitting.profile(parts, *theta)
    scale = abs(value) + 1.0
    steps = h * np.eye(2)
    up = [fitting.profile(parts, *(theta + e)) for e in steps]
    down = [fitting.profile(parts, *(theta - e)) for e in steps]
    fd = [(u[0] - d[0]) / (2 * h) for u, d in zip(up, down)]
    fd_hessian = [(np.array(u[2]) - np.array(d[2])) / (2 * h) for u, d in zip(up, down)]
    assert np.all(np.abs(np.array(gradient) - fd) <= 1e-8 * scale)
    assert np.all(np.abs(np.array([[h11, h12], [h12, h22]]) - fd_hessian) <= 1e-8 * scale)


def brute_force_grid_starts(target, floor, n):
    """:func:`fitting._grid_starts`, unpolished: one grid point at a time, ``(cost, theta)``."""
    side = 16
    cost = np.empty((side, side))
    for i, j in itertools.product(range(side), repeat=2):
        cost[i, j] = floor + box_least_squares(target, grid_angles(i, j))[0]

    def tied(value, low):
        return value <= low + 1e-9 * (1.0 + low)

    minima = [(i, j) for i, j in itertools.product(range(side), repeat=2)
              if tied(cost[i, j], min(cost[(i + di) % side, (j + dj) % side]
                                      for di in (-1, 0, 1) for dj in (-1, 0, 1) if di or dj))]
    starts = []
    while minima and len(starts) < n:
        low = min(cost[ij] for ij in minima)
        i, j = next(ij for ij in minima if tied(cost[ij], low))
        minima.remove((i, j))
        starts.append((cost[i, j], *grid_angles(i, j)))
    return starts


def grid_angles(i, j):
    return -np.pi + 2 * np.pi * i / 16, -np.pi + 2 * np.pi * j / 16


def edge_filters():
    """The 10 filters with p on a bound among 60 random ones (rng 8)."""
    rng = np.random.default_rng(8)
    out = []
    for k in range(60):
        fp = random_filter(rng)
        p = (0.0, 0.002, 0.498, 0.5)[(k // 3) % 4]
        if k % 3 == 0 and p in P_RANGE:
            out.append(dataclasses.replace(fp, p=p))
    return out


def box_point(x):
    """A start ``(p, R/T, theta1, theta2)`` for the reference solver from a grid point's x.

    ``x`` is clipped into the box as the fit's parameters are, but p keeps
    its half of [0, 1] and the angles stay as they are.
    """
    x1, x2, x3 = x
    t, r = math.sqrt(max(x1, 0.0)), math.sqrt(max(x2, 0.0))
    ratio = min(max(r / t, RATIO_BOUNDS[0]), RATIO_BOUNDS[1]) if t > 0.0 else RATIO_BOUNDS[1]
    p = 0.5 * (1.0 + min(max(x3 / (t * r), -1.0), 1.0)) if t * r > 0.0 else 0.5
    return p, ratio


class TestDescend:
    def test_noiseless_records_on_the_p_bounds_reach_rounding_level(self):
        filters = edge_filters()
        assert len(filters) == 10
        for fp in filters:
            res = fit(model_chi(fp, "F"), FitConfig(multistart=4))
            assert res.converged
            assert res.residual <= 1e-12

    def test_every_solver_point_stays_in_the_box(self, monkeypatch):
        # Records at p = 0 and at R/T = 0.1 put the unconstrained profile's
        # optimum outside the box, so their polishes run along its faces.
        calls = record_profile(monkeypatch)
        chis = [model_chi(fp) for fp in edge_filters()]
        chis += [poisson_chi(paper_filter(p), total, seed=26) for p in (0.14, 0.325, 0.5)
                 for total in (1e3, 1e4)]
        chis += [poisson_chi(paper_filter(0.0), total, seed) for total in (1e3, 1e4)
                 for seed in range(26, 32)]
        chis += [poisson_chi(outside_filter(p), 1e3, seed) for p in (0.0, 0.3)
                 for seed in range(4)]
        for chi in chis:
            fit(chi, FitConfig(multistart=4))
        assert len(calls) > 100
        for *_, (value, x, _, _) in calls:
            assert in_box(x)
            assert value >= 0.0

    def test_every_polish_runs_as_it_would_alone(self, monkeypatch):
        # Each start's polish in a fit ends where the same polish ends when
        # run alone, and the fit scores each start at that end as it is: its
        # residual is the square root of the score, which is the polish's
        # profile cost up to the profile's rounding.
        runs = record_polish(monkeypatch)
        scores = record_scores(monkeypatch)
        chis = [several_starts_chi(), ProcessMatrix("S", np.eye(16))]
        chis += [poisson_chi(outside_filter(p), total, seed)
                 for p, total, seed in ((0.3, 1e3, 8), (0.3, 1e4, 6), (0.0, 1e3, 6))]
        chis += [model_chi(fp, "F") for fp in edge_filters()]
        several = 0
        for chi in chis:
            del runs[:], scores[:]
            res = fit(chi)
            assert len(runs) == len(scores) == len(res.start_residuals)
            assert sum(run[-1][5] for run in runs) == res.n_evaluations
            several += len(runs) > 1
            e = _unit_inputs(chi)[1]
            for (parts, grid, args, result), (score_args, sq), residual in zip(
                    runs, scores, res.start_residuals):
                alone = fitting.polish(parts, *grid, *args)
                assert alone == result
                assert score_args[3:] == result[:3]
                assert abs(sq - (args[0] - result[3])) <= 1e-13 * args[0]
                assert residual == math.sqrt(sq) * 2.0**e
        assert several >= 2

    def test_no_polish_ends_below_the_unconstrained_bound(self, monkeypatch):
        # The box only raises the cost: at the grid point and at the end of
        # every start's polish on 36 Poisson records (the reference filter at
        # p = 0 and the paper delays, random filters and channels), the cost
        # is not below the bound that the unconstrained x = G^-1 v gives at
        # the same angles, by more than the relative 1e-9 of a tie. At p = 0
        # the box holds some ends above it.
        runs = record_polish(monkeypatch)
        rng = np.random.default_rng(35)
        filters = [paper_filter(p) for p in (0.0, 0.14, 0.325, 0.5) for _ in range(3)]
        filters += [random_filter(rng) for _ in range(6)]
        channels = [kraus_pair(fp) for fp in filters] + [random_channel(rng) for _ in range(6)]
        inputs = build_input_set()
        for k, channel in enumerate(channels + channels[-12:]):
            counts = simulate_counts(channel, inputs, total_scale=1e4 if k < 24 else 1e3,
                                     noise="poisson", seed=3500 + k)
            fit(reconstruct_process(counts, inputs), FitConfig(multistart=4))
        assert len({id(parts) for parts, *_ in runs}) == 36
        above = 0
        for parts, grid, (norm, _, _), (theta1, theta2, _, top, _, _) in runs:
            for theta, value in ((grid, fitting.profile(parts, *grid)[0]), ((theta1, theta2), top)):
                bound = unconstrained_cost(parts, theta, norm)
                cost = norm - value
                assert cost >= bound - 1e-9 * (1.0 + bound)
                above += cost > bound + 1e-6 * (1.0 + bound)
        assert above >= 1

    @pytest.mark.parametrize("kwargs", [BENCH, {}], ids=["4-starts", "16-starts"])
    def test_no_worse_than_scipy_trf(self, monkeypatch, kwargs):
        # 24 Poisson records, the reference filter at the three paper delays
        # and random filters, at 1e4 and 1e3 counts. The reference runs scipy's
        # trf on the dense residual from each of the fit's grid points
        # (helpers.trf_residual), to its own end.
        rng = np.random.default_rng(27)
        runs = record_polish(monkeypatch)
        for k in range(24):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 12 else random_filter(rng)
            chi = poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, seed=2700 + k)
            del runs[:]
            ours = fit(chi, FitConfig(**kwargs))
            starts = [(*box_point(fitting.profile(parts, *grid)[1]), *grid)
                      for parts, grid, _, _ in runs]
            reference = trf_residual(chi, starts, kwargs.get("convergence_tol", 1e-14),
                                     kwargs.get("max_iterations", 2000))
            assert ours.converged
            assert ours.residual <= (1 + 1e-6) * reference + 1e-12


def unconstrained_cost(parts, theta, norm):
    """The cost ``norm - v . G^-1 v`` at ``theta`` of the best x with no box, a bound on the profile's."""
    c, iw = parts
    v1, v2, v3 = (c[:3] @ np.exp(iw @ np.asarray(theta))).real.tolist()
    z = 2.0 * math.cos(0.5 * theta[0] - 0.5 * theta[1])
    x1, x2, x3 = fitting.solve(z, v1, v2, v3)
    return norm - (v1 * x1 + v2 * x2 + v3 * x3)


class TestBlock:
    def test_the_block_holds_the_model_and_the_rest_of_the_cost(self):
        # The model at fp is [a b] X [a b]^+ on the block for fp's box point
        # x, and zero off it; a matrix's distance to it is the block's plus
        # the floor.
        rng = np.random.default_rng(29)
        for _ in range(10):
            fp = random_filter(rng)
            model = model_chi(fp).m
            x1, x2, x3 = truth_x(fp)
            a, b = block_terms((fp.theta1, fp.theta2))
            m = np.stack([a, b], axis=1)
            block = m @ np.array([[x1, x3], [x3, x2]]) @ m.conj().T
            assert_allclose(model[_BLOCK_IX], block, rtol=0, atol=1e-14 * fp.scale**2)
            assert np.all(model[_OFF_BLOCK] == 0.0)
            chi = model_chi(random_filter(rng)).m + 0.05 * random_hermitian(rng, 16)
            target, floor = _kernel_inputs(chi)
            r = target.view(complex).reshape(6, 6) - model[_BLOCK_IX]
            full = np.linalg.norm(chi - model) ** 2
            assert abs(np.vdot(r, r).real + floor - full) <= 1e-12 * full


    def test_the_terms_gram_coupling_is_twice_the_cosine_of_the_half_difference(self):
        # The profile takes z = a^+ b in closed form, 2 cos((theta1 - theta2) / 2),
        # and |a|^2 = |b|^2 = 4: so must both builds of the block's two terms,
        # at random angles over several periods and at every grid angle.
        rng = np.random.default_rng(32)
        for theta in [*rng.uniform(-12.0, 12.0, (200, 2)).tolist(), *fitting._GRID.tolist()]:
            z = 2.0 * math.cos(0.5 * theta[0] - 0.5 * theta[1])
            for a, b in (fitting._terms(*theta).T, block_terms(theta)):
                assert abs(np.vdot(a, b) - z) <= 1e-14
                assert abs(np.vdot(a, a) - 4.0) <= 1e-14 and abs(np.vdot(b, b) - 4.0) <= 1e-14


class TestModelCache:
    def test_cached_values_equal_uncached(self):
        cached = fitting._profile_maps()
        assert fitting._profile_maps() is cached
        fresh = fitting.maps(fitting._GRID)
        assert len(fresh) == len(cached)
        for got, want in zip(cached, fresh):
            assert np.array_equal(got, want)

    def test_one_model_per_distinct_point(self, monkeypatch):
        # A fit evaluates the profile once at each point it visits.
        calls = record_profile(monkeypatch)
        for chi in (poisson_chi(paper_filter(0.14), 1e4, seed=22),
                    poisson_chi(outside_filter(0.3), 1e3, seed=8)):
            del calls[:]
            res = fit(chi, FitConfig(multistart=4))
            points = [(id(parts), theta1, theta2) for parts, theta1, theta2, _ in calls]
            assert len(points) == len(set(points)) == res.n_evaluations


class TestEvaluate:
    def test_each_point_of_a_stack_evaluates_as_it_would_alone(self):
        # Every reduction of the grid runs per point: no sum or maximum
        # crosses the angle pairs of a stack. Each of 16 random pairs gives
        # in the stack the value it gives alone, to 1e-13 of the block's
        # squared norm (numpy's matrix product rounds one column apart from
        # many), and the same point parts.
        rng = np.random.default_rng(31)
        for _ in range(4):
            chi = model_chi(random_filter(rng)).m + 0.05 * random_hermitian(rng, 16)
            target, _ = _kernel_inputs(chi)
            norm = target @ target
            angles = rng.uniform(-np.pi, np.pi, (16, 2))
            value, (c, iw) = fitting.grid(fitting.maps(angles), target)
            assert value.shape == (16,)
            for k in range(16):
                alone, (c_alone, iw_alone) = fitting.grid(fitting.maps(angles[k:k + 1]), target)
                assert abs(alone[0] - value[k]) <= 1e-13 * norm
                assert np.array_equal(c_alone, c) and np.array_equal(iw_alone, iw)


class TestJacobian:
    @pytest.mark.parametrize("p", [0.14, 0.325, 0.5])
    def test_reference_filters(self, p):
        # A Poisson record, so the profile is not trivial: its Danskin gradient
        # and its Hessian at the paper's angles and around them match
        # central differences.
        inputs = build_input_set()
        ct = simulate_counts(kraus_pair(paper_filter(p)), inputs, total_scale=1e4,
                             noise="poisson", seed=15)
        chi = reconstruct_process(ct, inputs).m
        parts = parts_of(0.5 * (chi + chi.conj().T))[0]
        rng = np.random.default_rng(15)
        truth = np.array([0.41 * np.pi, 0.076 * np.pi])
        for theta in [truth, *(truth + rng.uniform(-0.5, 0.5, (6, 2)))]:
            assert_derivatives_match(parts, theta)

    def test_random_points(self):
        # Blocks whose box optimum lies on each face (see regime_blocks), at
        # their own angles and nearby: the gradient from Danskin's theorem and
        # the Hessian of each face match central differences.
        rng = np.random.default_rng(16)
        faces = set()
        for target, theta in regime_blocks(rng, 48):
            parts = fitting.grid(fitting._profile_maps(), target)[1]
            faces.add(box_least_squares(target, theta)[2])
            for point in (theta, theta + rng.uniform(-0.05, 0.05, 2)):
                assert_derivatives_match(parts, point)
        assert faces == {"inside", "rank one", "ratio face", "corner"}
