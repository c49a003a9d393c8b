"""Decoherence-model fitting: residuals, symmetries, recovery."""

import dataclasses
import math

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
)
from bsqpt import build_input_set, reconstruct_process, simulate_counts, transform_process_matrix
from bsqpt import fidelity, project_to_psd
from bsqpt.bsfilter import P_RANGE
from bsqpt import fitting
from bsqpt.fitting import (
    RATIO_BOUNDS,
    THETA_START_RANGE,
    _BLOCK_IX,
    _LOWER,
    _UPPER,
    _evaluate,
    _kernel_inputs,
    _moment_starts,
    _params,
    _starts,
    canonicalize,
)

from helpers import (
    fail_best_start, random_filter, random_hermitian, set_lane, start_lane, untouched,
)

I4 = np.eye(4, dtype=complex)


def paper_filter(p, scale=1.0):
    return FilterParams.from_ratio(
        0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p, scale=scale
    )


def truth_x(fp):
    return np.array([fp.p, fp.ratio_rt, fp.theta1, fp.theta2])


def poisson_chi(fp, total, seed):
    inputs = build_input_set()
    ct = simulate_counts(kraus_pair(fp), inputs, total_scale=total, noise="poisson", seed=seed)
    return reconstruct_process(ct, inputs)


def distance(fp, chi):
    """Frobenius distance between the model at ``fp`` and a measured matrix, in its basis."""
    return np.linalg.norm(model_chi(fp, chi.basis).m - chi.m)


def record_solver(monkeypatch):
    """Record each start point and every (point, kernel values) the solver's fun returns."""
    real = fitting._descend
    log = {"x0": [], "fun": []}

    def recording(fun, start, *args):
        log["x0"].extend(np.array(start[0]))

        def f(x):
            out = fun(x)
            log["fun"].extend(zip(x.copy(), zip(*(part.copy() for part in out))))
            return out

        return real(f, start, *args)

    monkeypatch.setattr(fitting, "_descend", recording)
    return log


def counted_lane(real, fun, start, args, calls):
    """Run a one-lane start through the real solver, logging its evaluations in ``calls``.

    "f" stands for each residual of a trial point, "j" for each Jacobian the
    lane uses: its start's, and each accepted trial point's unless that step
    ends the lane by the step or cost-decrease test of ``fitting._descend``,
    whose expressions this repeats.
    """
    tol = args[2]
    state = list(start[:5])
    calls.append("j")

    def f(trial):
        out = fun(trial)
        calls.append("f")
        x, _, cost, g, gram = state
        step = trial - x
        drop = cost - out[1]
        predicted = -np.add.reduce(step * (2.0 * g + (gram @ step[:, :, None])[:, :, 0]), axis=1)
        gain = drop / predicted if predicted > 0.0 else -1.0
        if gain > 0.0:
            ends = ((np.sqrt(np.add.reduce(step * step, axis=1))
                     <= tol * (tol + np.sqrt(np.add.reduce(x * x, axis=1))))
                    | ((gain > 0.25) & (drop <= tol * cost)))
            if not ends:
                calls.append("j")
            state[:] = [trial, *out[:4]]
        return out

    return real(f, start, *args)


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

    def test_canonicalize_wraps_even_shifts(self):
        fp = FilterParams(T=0.5, R=0.5, theta1=0.3 + 2 * np.pi, theta2=-0.4 - 2 * np.pi, p=0.2)
        canon = canonicalize(fp)
        assert abs(canon.theta1 - 0.3) < 1e-12
        assert abs(canon.theta2 + 0.4) < 1e-12
        assert canon.p == pytest.approx(0.2)

    def test_canonicalize_odd_shift_at_half_mixing(self):
        fp = FilterParams(T=0.5, R=0.5, theta1=0.3 + 2 * np.pi, theta2=-0.4, p=0.5)
        canon = canonicalize(fp)
        assert abs(canon.theta1 - 0.3) < 1e-12
        assert canon.p == pytest.approx(0.5)

    def test_canonicalize_keeps_channel_when_flip_unavailable(self):
        # Folding theta1 alone would need p -> 0.8, outside [0, 1/2]; the
        # fold is undone instead of changing the channel.
        fp = FilterParams(T=0.5, R=0.5, theta1=0.3 + 2 * np.pi, theta2=-0.4, p=0.2)
        canon = canonicalize(fp)
        assert abs(canon.theta1 - (0.3 + 2 * np.pi)) < 1e-12
        assert canon.p == pytest.approx(0.2)

    def test_canonicalized_channel_unchanged(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            fp = FilterParams(
                T=0.6,
                R=0.4,
                theta1=rng.uniform(-3 * np.pi, 3 * np.pi),
                theta2=rng.uniform(-3 * np.pi, 3 * np.pi),
                p=rng.uniform(0, 0.5),
            )
            canon = canonicalize(fp)
            assert_allclose(model_chi(canon).m, model_chi(fp).m, atol=1e-11)


class TestFit:
    def test_recovers_reference_parameters(self):
        fp = paper_filter(0.325)
        chi = model_chi(fp, "F")
        res = fit(chi, FitConfig(seed=2))
        assert res.converged
        assert abs(res.params.p - fp.p) < 1e-4
        assert abs(res.params.ratio_rt - 0.76) < 1e-4
        assert abs(res.params.theta1 - fp.theta1) < 1e-4
        assert abs(res.params.theta2 - fp.theta2) < 1e-4
        assert abs(res.params.scale - 1.0) < 1e-4

    def test_ideal_filter_limit(self):
        chi = model_chi(FilterParams.from_ratio(1.0))
        res = fit(chi, FitConfig(seed=3))
        assert res.params.p < 1e-4
        assert abs(res.params.T - res.params.R) < 1e-4

    def test_residual_field_consistent(self):
        chi = model_chi(paper_filter(0.14), "F")
        res = fit(chi, FitConfig(multistart=4, seed=4))
        assert abs(distance(res.params, chi) - res.residual) < 1e-12

    def test_descent_from_every_start(self):
        chi = model_chi(paper_filter(0.2))
        cfg = FitConfig(multistart=6, seed=5)
        res = fit(chi, cfg)
        for start_res in res.start_residuals:
            assert res.residual <= start_res + 1e-12

    def test_deterministic_given_seed(self):
        chi = model_chi(paper_filter(0.2))
        cfg = FitConfig(multistart=4, seed=6)
        a = fit(chi, cfg)
        b = fit(chi, cfg)
        assert a.params == b.params
        assert a.residual == b.residual

    def test_scale_recovery_from_rate_scaled_matrix(self):
        fp = paper_filter(0.325, scale=50.0)
        chi = model_chi(fp)
        res = fit(chi, FitConfig(seed=7))
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
            base = fit(chi, cfg)
            big = fit(ProcessMatrix(chi.basis, chi.m * 2.0**power), cfg)
            shape = [dataclasses.replace(r.params, scale=1.0) for r in (base, big)]
            if power % 2:
                for name in ("p", "T", "R", "theta1", "theta2"):
                    got, want = (getattr(s, name) for s in shape[::-1])
                    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
                continue
            assert shape[1] == shape[0]
            for name in ("fidelity", "n_evaluations", "converged", "best_start"):
                assert getattr(big, name) == getattr(base, name)
            assert big.residual == base.residual * 2.0**power
            assert big.start_residuals == [v * 2.0**power for v in base.start_residuals]
            assert big.params.scale == base.params.scale * 2.0 ** (power // 2)

    def test_monotone_p_over_delay_conditions(self):
        fitted = []
        for p in (0.14, 0.325, 0.5):
            chi = model_chi(paper_filter(p), "F")
            fitted.append(fit(chi, FitConfig(multistart=8, seed=8)).params.p)
        assert fitted[0] < fitted[1] < fitted[2]

    def test_starts_respect_bounds(self):
        cfg = FitConfig(multistart=32, seed=9)
        for x in _starts(cfg):
            p, ratio, th1, th2 = x
            assert P_RANGE[0] <= p <= P_RANGE[1]
            assert RATIO_BOUNDS[0] <= ratio <= RATIO_BOUNDS[1]
            assert THETA_START_RANGE[0] <= th1 <= THETA_START_RANGE[1]
            assert THETA_START_RANGE[0] <= th2 <= THETA_START_RANGE[1]

    def test_nonconvergence_reported_not_raised(self):
        # A Poisson record: a moment start solves an exact model matrix in
        # under two evaluations.
        chi = poisson_chi(paper_filter(0.3), 1e4, seed=10)
        res = fit(chi, FitConfig(multistart=2, max_iterations=2, seed=10))
        assert not res.converged
        assert res.residual >= 0.0

    def test_converged_describes_the_reported_start(self, monkeypatch):
        fail_best_start(monkeypatch)
        chi = model_chi(paper_filter(0.3))
        res = fit(chi, FitConfig(multistart=4, seed=12))
        assert res.residual < 1e-8
        assert res.converged is False

    def test_counts_every_residual_and_jacobian(self, monkeypatch):
        real = fitting._descend
        calls = []

        def counting(fun, start, *args):
            out = untouched(start)
            for k in range(len(start[0])):
                set_lane(out, k, counted_lane(real, fun, start_lane(start, k), args, calls))
            return tuple(out)

        monkeypatch.setattr(fitting, "_descend", counting)
        res = fit(model_chi(paper_filter(0.2)), FitConfig(multistart=3, seed=13))
        assert "j" in calls
        # ...plus the residual at each of the three start points.
        assert res.n_evaluations == len(calls) + 3

    def test_a_rejected_step_does_not_count_its_jacobian(self, monkeypatch):
        # One start, stopped by its evaluation cap before it converges, that
        # rejects four of its seven steps. The kernel builds the Jacobian at
        # every trial point, but it counts only where the lane moves on.
        real = fitting._descend
        costs = []

        def recording(fun, start, *args):
            costs.append(start[2][0])

            def f(x):
                out = fun(x)
                costs.append(out[1][0])
                return out

            return real(f, start, *args)

        monkeypatch.setattr(fitting, "_descend", recording)
        res = fit(poisson_chi(paper_filter(0.5), 1e4, seed=2),
                  FitConfig(multistart=1, max_iterations=8, seed=2))
        assert not res.converged
        trials = len(costs) - 1
        accepted = sum(costs[i] < min(costs[:i]) for i in range(1, len(costs)))
        assert trials - accepted == 4
        # The start's residual and Jacobian, one residual per trial point and
        # one Jacobian per accepted trial point.
        assert res.n_evaluations == 2 + trials + accepted

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
            res = fit(chi, FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9,
                                     seed=k))
            reference = fidelity(project_to_psd(model_chi(res.params, "F").m),
                                 project_to_psd(chi.m))
            assert abs(res.fidelity - reference) <= 1e-7

    def test_fidelity_is_one_on_noiseless_records(self):
        filters = [paper_filter(p) for p in (0.14, 0.325, 0.5)] + edge_filters()
        for k, fp in enumerate(filters):
            res = fit(model_chi(fp, "F"), FitConfig(multistart=4, seed=k))
            assert abs(res.fidelity - 1.0) <= 1e-12

    def test_fidelity_none_without_positive_trace(self):
        res = fit(ProcessMatrix("S", -np.eye(16)), FitConfig(multistart=2, seed=14))
        assert res.fidelity is None

    @pytest.mark.parametrize("m", [-np.eye(16), np.zeros((16, 16))])
    def test_no_positive_overlap_not_converged(self, m):
        res = fit(ProcessMatrix("S", m), FitConfig(multistart=3, seed=14))
        assert res.converged is False
        assert res.residual >= np.linalg.norm(m)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_best_start_is_the_reported_start(self, monkeypatch, k):
        # Only start k runs; the others come back untouched at their start
        # point. On this Poisson record each moment root and the midpoint
        # descend below every untouched start.
        real = fitting._descend

        def solver(fun, start, *args):
            out = untouched(start)
            set_lane(out, k, real(fun, start_lane(start, k), *args))
            return tuple(out)

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(poisson_chi(paper_filter(0.325), 1e4, seed=23), FitConfig(multistart=4, seed=23))
        assert res.best_start == k
        assert res.residual < min(r for i, r in enumerate(res.start_residuals) if i != k)


    def test_reports_the_earliest_start_of_the_optimum(self, monkeypatch):
        # The noiseless README matrix: most starts reach the same channel,
        # with residuals and angles that differ only by rounding.
        fp = FilterParams.from_ratio(0.76, theta1=1.288053, theta2=0.238761, p=0.325)
        inputs = build_input_set()
        chi = transform_process_matrix(
            reconstruct_process(simulate_counts(kraus_pair(fp), inputs), inputs), "F")
        real = fitting._descend
        ends = []

        def solver(*args):
            ends.append(real(*args))
            return ends[-1]

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(chi)
        target = model_chi(dataclasses.replace(res.params, scale=1.0)).m
        (x_end, r_end, *_), = ends
        reached = [k for k, (x, r) in enumerate(zip(x_end, r_end)) if np.linalg.norm(r) <= 1e-12
                   and np.linalg.norm(model_chi(_params(x)).m - target) <= 1e-9]
        assert len(reached) > 1
        assert res.best_start == reached[0]

    def test_rounding_noise_in_the_angles_does_not_pick_the_start(self, monkeypatch):
        # Every start ends at the truth, each later one with angles a few
        # ulp smaller: the earliest start is reported, not the smallest norm.
        fp = paper_filter(0.325)
        calls = []

        def solver(fun, start, *args):
            calls.extend(start[0])
            lanes = np.arange(1, len(calls) + 1)[:, None]
            x = truth_x(fp) * (1.0 - 1e-15 * lanes * np.array([0, 0, 1, 1]))
            r, _, _, _, alpha, _ = fun(x)
            return x, r, alpha, np.ones(len(x), dtype=bool), np.ones(len(x), dtype=int)

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(model_chi(fp), FitConfig(multistart=4, seed=25))
        assert len(calls) == 4
        assert res.best_start == 0


class TestMomentStarts:
    def test_a_root_is_the_truth_on_noiseless_filters(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            fp = random_filter(rng, (0.01, 0.49))
            starts = _moment_starts(model_chi(fp).m)
            assert len(starts) == 2
            assert min(np.max(np.abs(x - truth_x(fp))) for x in starts) <= 1e-9
            # The root whose |u| is nearer 1 comes first.
            assert np.max(np.abs(starts[0] - truth_x(fp))) <= 1e-9

    def test_finite_and_in_the_box_on_degenerate_input(self):
        rng = np.random.default_rng(18)
        for m in (-np.eye(16), np.zeros((16, 16)), random_hermitian(rng, 16)):
            for p, ratio, th1, th2 in _moment_starts(m.astype(complex)):
                assert P_RANGE[0] <= p <= P_RANGE[1]
                assert np.all(np.isfinite([p, ratio, th1, th2]))
                assert RATIO_BOUNDS[0] <= ratio <= RATIO_BOUNDS[1]
                # An angle leaves THETA_START_RANGE only where folding it
                # alone would swap the two filter operators.
                assert abs(th1) <= 2 * np.pi and abs(th2) <= 2 * np.pi
                assert min(abs(th1), abs(th2)) <= THETA_START_RANGE[1]

    def test_start_order(self, monkeypatch):
        log = record_solver(monkeypatch)
        chi = model_chi(paper_filter(0.2))
        cfg = FitConfig(multistart=5, seed=19)
        fit(chi, cfg)
        want = _moment_starts(chi.m) + _starts(cfg)[:3]
        assert len(log["x0"]) == 5
        for got, expect in zip(log["x0"], want):
            assert np.array_equal(got, expect)

    def test_start_list_matches_one_draw_per_value(self, monkeypatch):
        # The reference draws multistart - 1 points, one call per value, and
        # cuts the list behind the moment starts and the midpoint.
        seen = []

        def solver(fun, start, *args):
            seen.append(start[0])
            return tuple(untouched(start))

        monkeypatch.setattr(fitting, "_descend", solver)
        chi = model_chi(paper_filter(0.2))
        lo_r, hi_r = RATIO_BOUNDS
        for seed in range(10):
            for m in range(1, 21):
                rng = np.random.default_rng(seed)
                drawn = [np.array([0.5 * sum(P_RANGE), math.sqrt(lo_r * hi_r), 0.0, 0.0])]
                for _ in range(m - 1):
                    p = rng.uniform(*P_RANGE)
                    ratio = math.exp(rng.uniform(math.log(lo_r), math.log(hi_r)))
                    th1 = rng.uniform(*THETA_START_RANGE)
                    th2 = rng.uniform(*THETA_START_RANGE)
                    drawn.append(np.array([p, ratio, th1, th2]))
                fit(chi, FitConfig(multistart=m, seed=seed))
                assert np.array_equal(seen[-1], np.array((_moment_starts(chi.m) + drawn)[:m]))

    def test_four_starts_reach_the_seeded_sixteen_start_optimum(self, monkeypatch):
        # 24 Poisson records: the reference filter at the three paper delays
        # and random filters, at 1e4 and 1e3 counts, as the benchmark fits them.
        rng = np.random.default_rng(20)
        records = []
        for k in range(24):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 12 else random_filter(rng)
            records.append(poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, seed=2000 + k))
        four = [fit(chi, FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9,
                                   seed=k)).residual for k, chi in enumerate(records)]
        monkeypatch.setattr(fitting, "_moment_starts", lambda chi_std: [])
        for k, chi in enumerate(records):
            seeded = fit(chi, FitConfig(multistart=16, max_iterations=500,
                                        convergence_tol=1e-9, seed=k)).residual
            assert four[k] <= (1 + 1e-6) * seeded


def trf_descend(fun, start, lo, hi, tol, max_evals):
    """scipy's trust-region reflective least squares behind the solver seam, as a reference.

    It runs start by start. The square root of the cost off the block, the
    start's cost less its block residual, rides along as one more, constant,
    residual component, so trf minimizes the cost the descent minimizes.
    """
    least_squares = pytest.importorskip("scipy.optimize").least_squares
    x0, r0, cost0 = start[:3]
    off = np.sqrt(max(cost0[0] - r0[0] @ r0[0], 0.0))
    out = untouched(start)
    for k, x in enumerate(x0):
        sol = least_squares(lambda x: np.append(fun(x[None])[0][0], off), x,
                            jac=lambda x: np.vstack([fun(x[None])[5][0].T, np.zeros(4)]),
                            bounds=(lo, hi), method="trf", ftol=tol, xtol=tol, gtol=tol,
                            max_nfev=max_evals)
        set_lane(out, k, (sol.x[None], sol.fun[None, :-1], fun(sol.x[None])[4],
                          [sol.success], [sol.nfev + sol.njev]))
    return tuple(out)


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


class TestDescend:
    def test_noiseless_records_on_the_p_bounds_reach_rounding_level(self):
        filters = edge_filters()
        assert len(filters) == 10
        for k, fp in enumerate(filters):
            res = fit(model_chi(fp, "F"), FitConfig(multistart=4, seed=k))
            assert res.converged
            assert res.residual <= 1e-12

    def test_every_solver_point_stays_in_the_box(self, monkeypatch):
        log = record_solver(monkeypatch)
        chis = [model_chi(fp) for fp in edge_filters()[:4]]
        chis += [poisson_chi(paper_filter(p), 1e3, seed=26) for p in (0.14, 0.5)]
        for k, chi in enumerate(chis):
            fit(chi, FitConfig(multistart=4, seed=k))
        points = log["x0"] + [x for x, _ in log["fun"]]
        assert len(points) > 100
        for x in points:
            assert np.all(_LOWER <= x) and np.all(x <= _UPPER)

    def test_every_lane_runs_as_it_would_alone(self, monkeypatch):
        real = fitting._descend
        runs = []

        def recording(fun, start, *args):
            runs.append((fun, start, args, real(fun, start, *args)))
            return runs[-1][-1]

        monkeypatch.setattr(fitting, "_descend", recording)
        chis = [poisson_chi(paper_filter(0.325), 1e4, seed=28)]
        chis += [model_chi(fp, "F") for fp in edge_filters()]
        for k, chi in enumerate(chis):
            res = fit(chi, FitConfig(seed=k))
            fun, start, args, (x, r, _, converged, evaluations) = runs[-1]
            assert len(x) == 16
            assert evaluations.sum() == res.n_evaluations
            for lane in range(16):
                alone = real(fun, start_lane(start, lane), *args)
                assert np.array_equal(alone[0][0], x[lane])
                assert np.array_equal(alone[1][0], r[lane])
                assert alone[3][0] == converged[lane] and alone[4][0] == evaluations[lane]

    @pytest.mark.parametrize("kwargs", [
        dict(multistart=4, max_iterations=500, convergence_tol=1e-9), {},
    ], ids=["4-starts", "16-starts"])
    def test_no_worse_than_scipy_trf(self, monkeypatch, kwargs):
        # 24 Poisson records, the reference filter at the three paper delays
        # and random filters, at 1e4 and 1e3 counts.
        rng = np.random.default_rng(27)
        records = []
        for k in range(24):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 12 else random_filter(rng)
            records.append(poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, seed=2700 + k))
        ours = [fit(chi, FitConfig(seed=k, **kwargs)) for k, chi in enumerate(records)]
        monkeypatch.setattr(fitting, "_descend", trf_descend)
        for k, chi in enumerate(records):
            reference = fit(chi, FitConfig(seed=k, **kwargs)).residual
            assert ours[k].converged
            assert ours[k].residual <= (1 + 1e-6) * reference + 1e-12


class TestBlock:
    def test_the_block_holds_the_model_and_the_rest_of_the_cost(self):
        rng = np.random.default_rng(29)
        for _ in range(10):
            fp = random_filter(rng)
            unit = model_chi(dataclasses.replace(fp, scale=1.0)).m
            chi = model_chi(random_filter(rng)).m + 0.05 * random_hermitian(rng, 16)
            target, floor = _kernel_inputs(chi)
            r, cost, _, _, scale, _ = (part[0] for part in _evaluate(truth_x(fp)[None], target,
                                                                      floor))
            # The residual is block - alpha chi_1 at the kernel's scale alpha.
            embedded = np.zeros((16, 16), dtype=complex)
            embedded[_BLOCK_IX] = ((target - r) / scale).view(complex).reshape(6, 6)
            assert_allclose(embedded, unit, rtol=0, atol=1e-14)
            alpha = max(np.vdot(unit, chi).real, 0.0) / np.vdot(unit, unit).real
            off = chi.copy()
            off[_BLOCK_IX] = 0.0
            full = np.linalg.norm(chi - alpha * unit) ** 2
            assert abs(r @ r + np.linalg.norm(off) ** 2 - full) <= 1e-12 * full
            assert abs(cost - full) <= 1e-12 * full


class TestModelCache:
    def test_cached_values_equal_uncached(self, monkeypatch):
        log = record_solver(monkeypatch)
        chi = poisson_chi(paper_filter(0.325), 1e4, seed=21)
        fit(chi, FitConfig(multistart=4, seed=21))
        # The fit runs on the matrix scaled by an even power of two into [1/4, 1).
        e = int(np.frexp(np.max(np.abs(chi.m.view(np.float64))))[1])
        unit = np.ldexp(chi.m.view(np.float64), -(e + e % 2)).view(complex)
        target, floor = _kernel_inputs(0.5 * (unit + unit.conj().T))
        assert log["fun"]
        for x, got in log["fun"]:
            for part, alone in zip(got, _evaluate(x[None], target, floor), strict=True):
                assert np.array_equal(part, alone[0])

    def test_one_model_per_distinct_point(self, monkeypatch):
        log = record_solver(monkeypatch)
        built = []
        real = fitting._evaluate

        def counting(x, *args):
            built.extend(point.tobytes() for point in x)
            return real(x, *args)

        monkeypatch.setattr(fitting, "_evaluate", counting)
        chi = poisson_chi(paper_filter(0.14), 1e4, seed=22)
        fit(chi, FitConfig(multistart=4, seed=22))
        points = {x.tobytes() for x in log["x0"]}
        points |= {x.tobytes() for x, _ in log["fun"]}
        assert len(built) == len(set(built)) == len(points)
        assert set(built) == points


class TestEvaluate:
    def test_each_point_of_a_stack_evaluates_as_it_would_alone(self):
        # Every reduction runs per point: no sum crosses the points of a stack.
        rng = np.random.default_rng(31)
        chi = model_chi(random_filter(rng)).m + 0.05 * random_hermitian(rng, 16)
        target, floor = _kernel_inputs(chi)
        x = np.array(_starts(FitConfig(multistart=19, seed=31))[1:])
        stacked = _evaluate(x, target, floor)
        assert len(x) == 16
        for k in range(16):
            for part, alone in zip(stacked, _evaluate(x[k:k + 1], target, floor)):
                assert np.array_equal(part[k], alone[0])


def paper_x(p):
    return np.array([p, 0.76, 0.41 * np.pi, 0.076 * np.pi])


class TestJacobian:
    @staticmethod
    def assert_matches_central_differences(x, chi_std, h=1e-6):
        target, floor = _kernel_inputs(chi_std)

        def residual(point):
            return _evaluate(point[None], target, floor)[0][0]

        r, _, g, gram, _, jt = (part[0] for part in _evaluate(x[None], target, floor))
        assert jt.shape == (4, 72)
        fd = np.empty((72, 4))
        for k, e in enumerate(np.eye(4)):
            fd[:, k] = (residual(x + h * e) - residual(x - h * e)) / (2 * h)
            assert np.linalg.norm(fd[:, k]) > 0.0
            assert np.linalg.norm(jt[k] - fd[:, k]) <= 1e-6 * np.linalg.norm(fd[:, k])
        # The normal equations are those of the central-difference Jacobian,
        # to the same relative 1e-6 of each column.
        norms = np.linalg.norm(fd, axis=0)
        assert np.all(np.abs(g - fd.T @ r) <= 1e-6 * norms * np.linalg.norm(r))
        assert np.all(np.abs(gram - fd.T @ fd) <= 1e-6 * np.outer(norms, norms))

    @pytest.mark.parametrize("p", [0.14, 0.325, 0.5])
    def test_reference_filters(self, p):
        # A Poisson record, so the residual and the scale profile are not trivial.
        inputs = build_input_set()
        ct = simulate_counts(kraus_pair(paper_filter(p)), inputs, total_scale=1e4,
                             noise="poisson", seed=15)
        chi = reconstruct_process(ct, inputs).m
        self.assert_matches_central_differences(paper_x(p), 0.5 * (chi + chi.conj().T))

    def test_random_points(self):
        rng = np.random.default_rng(16)
        for _ in range(10):
            x = np.array([rng.uniform(0.0, 0.5), np.exp(rng.uniform(np.log(0.25), np.log(4.0))),
                          rng.uniform(-3 * np.pi, 3 * np.pi), rng.uniform(-3 * np.pi, 3 * np.pi)])
            other = FilterParams.from_ratio(np.exp(rng.uniform(-1.0, 1.0)),
                                            theta1=rng.uniform(-np.pi, np.pi),
                                            theta2=rng.uniform(-np.pi, np.pi),
                                            p=rng.uniform(0.0, 0.5), scale=1.7)
            chi = model_chi(other).m + 0.05 * random_hermitian(rng, 16)
            self.assert_matches_central_differences(x, chi)
