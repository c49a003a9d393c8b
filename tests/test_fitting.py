"""Decoherence-model fitting: residuals, symmetries, recovery."""

import dataclasses
import itertools
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
from bsqpt.bases import to_coeff_vector
from bsqpt.bsfilter import P_RANGE, u3
from bsqpt.linalg import SWAP
from bsqpt import fitting, varpro
from bsqpt.fitting import (
    RATIO_BOUNDS,
    _BLOCK,
    _BLOCK_IX,
    _LOWER,
    _UPPER,
    _damped_step,
    _descend,
    _evaluate,
    _grid_starts,
    _kernel_inputs,
    _params,
    canonicalize,
)

from helpers import (
    fail_best_start, random_channel, random_filter, random_hermitian, random_matrix, set_lane,
    start_lane, untouched,
)

I4 = np.eye(4, dtype=complex)


def paper_filter(p, scale=1.0):
    return FilterParams.from_ratio(
        0.76, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p, scale=scale
    )


def outside_filter(p):
    """The reference filter's angles at R/T = 0.1, below the box: no lane reaches the bound."""
    return FilterParams.from_ratio(0.1, theta1=0.41 * np.pi, theta2=0.076 * np.pi, p=p)


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


def record_fit(monkeypatch):
    """Record the stack size of each kernel call and each solver run ``(fun, start, args, out)``."""
    real, kernel = fitting._descend, fitting._evaluate
    stacks, runs = [], []

    def counting(x, *args):
        stacks.append(len(x))
        return kernel(x, *args)

    def solver(fun, start, *args):
        runs.append((fun, start, args, real(fun, start, *args)))
        return runs[-1][-1]

    monkeypatch.setattr(fitting, "_evaluate", counting)
    monkeypatch.setattr(fitting, "_descend", solver)
    return stacks, runs


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

    def test_descent_from_every_start(self):
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
            fitted.append(fit(chi, FitConfig(multistart=8)).params.p)
        assert fitted[0] < fitted[1] < fitted[2]

    def test_starts_respect_bounds(self):
        rng = np.random.default_rng(9)
        chis = [model_chi(paper_filter(0.2)).m, poisson_chi(paper_filter(0.325), 1e3, seed=9).m,
                np.eye(16), np.zeros((16, 16)), random_hermitian(rng, 16)]
        for chi in chis:
            for x in _grid_starts(*_kernel_inputs(chi.astype(complex)), 32)[0]:
                p, ratio, th1, th2 = x
                assert 0.0 <= p <= 1.0
                assert RATIO_BOUNDS[0] <= ratio <= RATIO_BOUNDS[1]
                assert -np.pi <= th1 < np.pi and -np.pi <= th2 < np.pi
                assert np.all(_LOWER <= x) and np.all(x <= _UPPER)

    def test_nonconvergence_reported_not_raised(self):
        # A Poisson record with two starts, neither of which converges in two
        # evaluations from its polished start.
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

    def test_counts_every_residual_and_jacobian(self, monkeypatch):
        real = fitting._descend
        calls = []

        def counting(fun, start, *args):
            out = untouched(start)
            for k in range(len(start[0])):
                set_lane(out, k, counted_lane(real, fun, start_lane(start, k), args, calls))
            return tuple(out)

        monkeypatch.setattr(fitting, "_descend", counting)
        # A Poisson record whose angle grid has three minima, so three starts.
        res = fit(poisson_chi(paper_filter(0.325), 1e4, seed=31), FitConfig(multistart=4))
        assert len(res.start_residuals) == 3
        assert "j" in calls
        # ...plus the residual at each start point.
        assert res.n_evaluations == len(calls) + 3

    def test_a_rejected_step_does_not_count_its_jacobian(self, monkeypatch):
        # One start on a record at p = 0, whose profile minimum lies outside
        # the box, stopped by its evaluation cap before it converges; it
        # rejects six of its eleven steps. The kernel builds the Jacobian at
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
        res = fit(poisson_chi(paper_filter(0.0), 1e3, seed=8),
                  FitConfig(multistart=1, max_iterations=12))
        assert not res.converged
        trials = len(costs) - 1
        accepted = sum(costs[i] < min(costs[:i]) for i in range(1, len(costs)))
        assert trials - accepted == 6
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
            res = fit(chi, FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9))
            reference = fidelity(project_to_psd(model_chi(res.params, "F").m),
                                 project_to_psd(chi.m))
            assert abs(res.fidelity - reference) <= 1e-7

    def test_fidelity_is_one_on_noiseless_records(self):
        filters = [paper_filter(p) for p in (0.14, 0.325, 0.5)] + edge_filters()
        for fp in filters:
            res = fit(model_chi(fp, "F"), FitConfig(multistart=4))
            assert abs(res.fidelity - 1.0) <= 1e-12

    def test_fidelity_none_without_positive_trace(self):
        res = fit(ProcessMatrix("S", -np.eye(16)), FitConfig(multistart=2))
        assert res.fidelity is None

    @pytest.mark.parametrize("m", [-np.eye(16), np.zeros((16, 16))])
    def test_no_positive_overlap_not_converged(self, m):
        res = fit(ProcessMatrix("S", m), FitConfig(multistart=3))
        assert res.converged is False
        assert res.residual >= np.linalg.norm(m)

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_best_start_is_the_reported_start(self, monkeypatch, k):
        # Start k comes back at the lowest end point of a real descent of
        # every start; the others come back untouched at their start point.
        # The starts are the grid points, unpolished: a polished start can
        # already sit at the lowest end point.
        unpolished(monkeypatch)
        real = fitting._descend

        def solver(fun, start, *args):
            assert k < len(start[0])
            ends = real(fun, start, *args)
            best = int(np.argmin(np.where(ends[5], np.add.reduce(ends[1] * ends[1], axis=1),
                                          np.inf)))
            out = untouched(start)
            set_lane(out, k, [part[best:best + 1] for part in ends])
            return tuple(out)

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(poisson_chi(paper_filter(0.325), 1e4, seed=31), FitConfig(multistart=4))
        assert res.best_start == k
        assert res.residual < min(r for i, r in enumerate(res.start_residuals) if i != k)


    def test_reports_the_earliest_start_of_the_optimum(self, monkeypatch):
        # A Poisson record of a filter at R/T = 0.1, outside the box, so no
        # lane ends at the profile's bound and every lane runs; its two
        # starts reach the same channel, with residuals and angles that
        # differ only by rounding.
        chi = poisson_chi(outside_filter(0.3), 1e4, seed=6)
        real = fitting._descend
        ends = []

        def solver(*args):
            ends.append(real(*args))
            return ends[-1]

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(chi)
        target = model_chi(dataclasses.replace(res.params, scale=1.0)).m
        (x_end, r_end, *_, ended), = ends
        assert ended.all()
        low = min(np.linalg.norm(r) for r in r_end)
        reached = [k for k, (x, r) in enumerate(zip(x_end, r_end))
                   if np.linalg.norm(r) <= low * (1 + 1e-12)
                   and np.linalg.norm(model_chi(_params(x)).m - target) <= 1e-9]
        assert len(reached) > 1
        assert res.best_start == reached[0]

    def test_rounding_noise_in_the_angles_does_not_pick_the_start(self, monkeypatch):
        # Every start ends at the truth, each later one with angles a few
        # ulp smaller: the earliest start is reported, not the smallest norm.
        fp = paper_filter(0.325)
        calls = []
        monkeypatch.setattr(fitting, "_grid_starts", lambda target, floor, n: (np.tile(
            truth_x(fp), (n, 1)), 0.0))

        def solver(fun, start, *args):
            calls.extend(start[0])
            lanes = np.arange(1, len(calls) + 1)[:, None]
            x = truth_x(fp) * (1.0 - 1e-15 * lanes * np.array([0, 0, 1, 1]))
            r, _, _, _, alpha, _ = fun(x)
            ones = np.ones(len(x), dtype=bool)
            return x, r, alpha, ones, np.ones(len(x), dtype=int), ones

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(model_chi(fp), FitConfig(multistart=4))
        assert len(calls) == 4
        assert res.best_start == 0


    def test_no_kernel_call_after_a_lane_converges_at_the_bound(self, monkeypatch):
        # Three starts; the first converges at the profile's bound, and the
        # iteration in which it does is the fit's last kernel call.
        real = fitting._descend
        calls, runs = record_fit(monkeypatch)
        res = fit(poisson_chi(paper_filter(0.325), 1e4, seed=31), FitConfig(multistart=4))
        fun, start, args, (*_, converged, _, ended) = runs[0]
        fitted = len(calls)
        alone = real(fun, start_lane(start, 0), *args)
        assert ended.tolist() == [True, False, False] and converged[0]
        assert alone[3][0] and alone[5][0]
        assert fitted == 1 + (len(calls) - fitted)
        assert res.best_start == 0

    def test_counts_the_evaluations_of_dropped_lanes(self, monkeypatch):
        # n_evaluations is every residual the kernel made (each start's and
        # each trial point's) and every Jacobian a lane used, dropped lanes
        # included: each lane's start Jacobian and one per accepted step
        # that did not end it, up to the last point evaluated for it.
        real = fitting._descend
        stacks, runs = record_fit(monkeypatch)
        res = fit(poisson_chi(paper_filter(0.325), 1e4, seed=31), FitConfig(multistart=4))
        fun, start, args, (*_, evaluations, ended) = runs[0]
        residuals, iterations = sum(stacks), len(stacks) - 1
        assert ended.any() and not ended.all()
        jacobians = 0
        for k in range(len(ended)):
            calls = []
            alone = counted_lane(real, fun, start_lane(start, k), args, calls)
            if ended[k]:
                assert alone[4][0] == evaluations[k]
            else:
                # A dropped lane is evaluated at one trial point per iteration of the fit.
                calls = calls[:[i for i, call in enumerate(calls) if call == "f"][iterations]]
                assert evaluations[k] == 1 + len(calls)
            jacobians += calls.count("j")
        assert res.n_evaluations == evaluations.sum() == residuals + jacobians

    def test_dropped_lanes_are_left_out(self, monkeypatch):
        # The solver leaves both lanes at their starts and reports the second,
        # at the truth, as dropped: the fit reports the first, though it is worse.
        fp = paper_filter(0.325)
        x0 = np.array([truth_x(fp) + [0.1, 0.2, 0.3, 0.0], truth_x(fp)])
        monkeypatch.setattr(fitting, "_grid_starts", lambda target, floor, n: (x0, -np.inf))

        def solver(fun, start, *args):
            out = untouched(start)
            out[5][1] = False
            return tuple(out)

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(model_chi(fp), FitConfig(multistart=2))
        assert res.best_start == 0
        assert res.residual == pytest.approx(res.start_residuals[0], rel=1e-9)
        assert res.start_residuals[1] < 1e-12 < res.residual

    def test_every_field_as_before_when_no_lane_reaches_the_bound(self, monkeypatch):
        # A filter at R/T = 0.1, outside the box, fitted at its default
        # configuration: both lanes run to their end, and every field is
        # bit for bit what the fit gave before lanes were dropped.
        real = fitting._descend
        ended = []

        def solver(*args):
            out = real(*args)
            ended.extend(out[5])
            return out

        monkeypatch.setattr(fitting, "_descend", solver)
        res = fit(poisson_chi(outside_filter(0.3), 1e3, seed=8))
        assert ended == [True, True]
        assert res.params == FilterParams(
            T=float.fromhex("0x1.999999999999ap-1"), R=float.fromhex("0x1.999999999999ap-3"),
            theta1=float.fromhex("0x1.b6e9b0fd05b00p-5"),
            theta2=float.fromhex("-0x1.8d62d4a418b38p-1"),
            p=float.fromhex("0x1.88f0d15aa0906p-2"), scale=float.fromhex("0x1.2ea7b0672ead4p+5"))
        assert res.residual == float.fromhex("0x1.0639e4efb7c60p+10")
        assert res.fidelity == float.fromhex("0x1.808813c5a85c7p-1")
        assert res.start_residuals == [float.fromhex("0x1.14cdf85cc4673p+10"),
                                       float.fromhex("0x1.172b820d15aa2p+10")]
        assert (res.n_evaluations, res.converged, res.best_start) == (204, True, 1)


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
        # Zero, negative-definite and subnormal matrices, both as the fit
        # scales them and as they are, the subnormal one at 2^-1074. The fit
        # and the start list raise on underflow too; the cost bound is finite.
        log = record_solver(monkeypatch)
        rng = np.random.default_rng(18)
        m = random_matrix(rng, 16)
        chis = [np.zeros((16, 16)), -np.eye(16), -m @ m.conj().T,
                np.ldexp(random_hermitian(rng, 16).view(np.float64), -1074).view(complex)]
        starts = []
        for chi in chis:
            with np.errstate(all="raise"):
                fit(ProcessMatrix("S", chi), FitConfig())
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                inputs = [_kernel_inputs(chi.astype(complex)),
                          unit_kernel_inputs(ProcessMatrix("S", chi))[:2]]
            for target, floor in inputs:
                with np.errstate(all="raise"):
                    x0, bound = _grid_starts(target, floor, 16)
                assert math.isfinite(bound)
                starts.extend(x0)
        assert len(log["x0"]) >= len(chis) and len(starts) >= 2 * len(chis)
        for x in log["x0"] + starts:
            assert np.all(np.isfinite(x))
            assert np.all(_LOWER <= x) and np.all(x <= _UPPER)

    def test_start_order(self, monkeypatch):
        # The fit's starts are the grid starts of the matrix at its unit
        # magnitude, cut to multistart.
        log = record_solver(monkeypatch)
        chi = poisson_chi(paper_filter(0.325), 1e4, seed=31)
        target, floor, _ = unit_kernel_inputs(chi)
        for m in (1, 2, 3, 16):
            fit(chi, FitConfig(multistart=m))
            want = _grid_starts(target, floor, m)[0]
            assert len(want) == min(m, 3)
            assert np.array_equal(np.array(log["x0"][-len(want):]), want)
            assert np.array_equal(want, _grid_starts(target, floor, 16)[0][:m])

    def test_the_bound_scales_with_the_target(self):
        # Far from unit magnitude the grid runs on the target scaled by a
        # power of two; the starts stay, and the cost bound scales back.
        target, floor, _ = unit_kernel_inputs(poisson_chi(paper_filter(0.325), 1e4, seed=31))
        x0, bound = _grid_starts(target, floor, 16)
        assert 0.0 < bound <= floor + target @ target
        for k in (-600, -300, 300, 500):
            big = _grid_starts(np.ldexp(target, k), math.ldexp(floor, 2 * k), 16)
            assert np.array_equal(big[0], x0) and big[1] == math.ldexp(bound, 2 * k)

    def test_start_list_matches_a_brute_force_grid(self, monkeypatch):
        # The grid built point by point: a least-squares solve of the three
        # model terms at each angle pair, the local minima by a loop over the
        # eight neighbours and the order by repeated minimum. The identity and
        # zero matrices have a flat profile, so the first grid points win.
        # Unpolished, the starts are the brute-force ones; polished, each
        # stays within one grid spacing of its grid point.
        polished = [_grid_starts(*_kernel_inputs(chi.astype(complex)), 20)[0]
                    for chi in profile_matrices()]
        unpolished(monkeypatch)
        for chi, moved in zip(profile_matrices(), polished):
            target, floor = _kernel_inputs(chi.astype(complex))
            got = _grid_starts(target, floor, 20)[0]
            want = brute_force_grid_starts(target, floor, 20)
            assert got.shape == want.shape == moved.shape
            assert_allclose(got, want, rtol=0, atol=1e-9)
            turn = np.remainder(moved[:, 2:] - want[:, 2:] + np.pi, 2 * np.pi) - np.pi
            assert np.all(np.abs(turn) <= np.pi / 8 + 1e-12)

    def test_four_starts_reach_the_dense_start_optimum(self):
        # 24 Poisson records: the reference filter at the three paper delays
        # and random filters, at 1e4 and 1e3 counts, as the benchmark fits them.
        rng = np.random.default_rng(20)
        for k in range(24):
            fp = paper_filter((0.14, 0.325, 0.5)[k % 3]) if k < 12 else random_filter(rng)
            chi = poisson_chi(fp, 1e4 if k % 2 == 0 else 1e3, seed=2000 + k)
            res = fit(chi, FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9))
            assert res.residual <= (1 + 1e-9) * dense_optimum(chi, 1e-9, 500)

    def test_one_start_crosses_p_one_half(self):
        # On these records the optimum lies just past p = 1/2 in the solver's
        # coordinates, across the mirror of the box's two halves, for about
        # half of them.
        for seed in range(1000, 1020):
            chi = poisson_chi(paper_filter(0.5), 1e4, seed)
            res = fit(chi, FitConfig(multistart=1))
            assert res.residual <= (1 + 1e-9) * dense_optimum(chi, 1e-14, 2000)


def unpolished(monkeypatch):
    """Make ``_grid_starts`` hand out its grid points as they are, with the profile's x and P."""
    monkeypatch.setattr(fitting, "polish", lambda parts, theta1, theta2: (
        theta1, theta2, *varpro.profile(parts, theta1, theta2)[1::-1]))


def profile_matrices():
    """A Poisson record, a model matrix, a random Hermitian matrix, I, -I and zero."""
    rng = np.random.default_rng(19)
    return [poisson_chi(paper_filter(0.325), 1e4, seed=31).m, model_chi(paper_filter(0.2)).m,
            random_hermitian(rng, 16), np.eye(16), -np.eye(16), np.zeros((16, 16))]


def polish_runs(monkeypatch, chis):
    """Every ``polish`` call of ``_grid_starts`` (16 starts) on ``chis``.

    Each is ``(parts, grid point, result)``.
    """
    runs = []
    real = fitting.polish

    def spy(parts, theta1, theta2):
        runs.append((parts, (theta1, theta2), real(parts, theta1, theta2)))
        return runs[-1][-1]

    with monkeypatch.context() as patch:
        patch.setattr(fitting, "polish", spy)
        for chi in chis:
            _grid_starts(*_kernel_inputs(chi.astype(complex)), 16)
    return runs


def term_design(theta):
    """The three model terms at ``theta`` as the columns of a real design matrix on the block."""
    a = to_coeff_vector(I4)[_BLOCK]
    b = to_coeff_vector(u3(*theta) @ SWAP)[_BLOCK]
    terms = [np.outer(a, a.conj()), np.outer(b, b.conj()),
             np.outer(a, b.conj()) + np.outer(b, a.conj())]
    return np.array([np.concatenate([t.real.ravel(), t.imag.ravel()]) for t in terms]).T


class TestProfile:
    def test_value_and_x_match_a_least_squares_solve(self, monkeypatch):
        # At every grid point and at 20 random angle pairs, to 1e-12 of the
        # block's squared norm (the value) and of its norm (x).
        rng = np.random.default_rng(32)
        angles = np.concatenate([fitting._GRID, rng.uniform(-4.0, 4.0, (20, 2))])
        for chi in profile_matrices():
            target, _ = _kernel_inputs(chi.astype(complex))
            parts = polish_runs(monkeypatch, [chi])[0][0]
            block = target.view(complex).reshape(6, 6)
            y = np.concatenate([block.real.ravel(), block.imag.ravel()])
            norm = np.linalg.norm(y)
            for theta in angles:
                value, x, *_ = varpro.profile(parts, *theta)
                want = np.linalg.lstsq(term_design(theta), y, rcond=None)[0]
                rest = y - term_design(theta) @ want
                assert abs((norm**2 - value) - rest @ rest) <= 1e-12 * norm**2
                assert np.all(np.abs(np.array(x) - want) <= 1e-12 * norm)

    def test_gradient_and_hessian_match_central_differences(self, monkeypatch):
        rng = np.random.default_rng(33)
        h = 1e-5
        for parts, *_ in polish_runs(monkeypatch, profile_matrices()[:3]):
            for theta in rng.uniform(-4.0, 4.0, (10, 2)):
                value, _, gradient, (h11, h12, h22) = varpro.profile(parts, *theta)
                scale = abs(value) + 1.0
                steps = h * np.eye(2)
                up = [varpro.profile(parts, *(theta + e)) for e in steps]
                down = [varpro.profile(parts, *(theta - e)) for e in steps]
                fd = [(u[0] - d[0]) / (2 * h) for u, d in zip(up, down)]
                fd_hessian = [(np.array(u[2]) - np.array(d[2])) / (2 * h)
                              for u, d in zip(up, down)]
                assert np.all(np.abs(np.array(gradient) - fd) <= 1e-8 * scale)
                assert np.all(np.abs(np.array([[h11, h12], [h12, h22]]) - fd_hessian)
                              <= 1e-8 * scale)

    def test_polished_starts_are_stationary_or_stopped(self, monkeypatch):
        # Each polish ends no lower in the profile than its grid point and
        # within one grid spacing of it, with the x and P of its end point; there
        # the profile is stationary (Newton's next step at most 1e-7), its
        # Hessian is not definite, or the next step would leave the cell.
        rng = np.random.default_rng(34)
        chis = profile_matrices() + [random_hermitian(rng, 16) for _ in range(5)]
        chis += [poisson_chi(paper_filter(p), total, seed).m for p in (0.0, 0.14, 0.325, 0.5)
                 for total in (1e3, 1e4) for seed in range(3)]
        stationary = 0
        for parts, grid, (theta1, theta2, x, top) in polish_runs(monkeypatch, chis):
            assert -np.pi <= theta1 < np.pi and -np.pi <= theta2 < np.pi
            moved = np.remainder(np.array([theta1, theta2]) - grid + np.pi, 2 * np.pi) - np.pi
            assert np.all(np.abs(moved) <= np.pi / 8 + 1e-12)
            value, x_end, (g1, g2), (h11, h12, h22) = varpro.profile(parts, theta1, theta2)
            start = varpro.profile(parts, *grid)[0]
            assert value >= start - 1e-14 * abs(start)
            assert_allclose(x, x_end, rtol=1e-12, atol=1e-14 * np.abs(x_end).max())
            assert abs(top - value) <= 1e-12 * (abs(value) + 1.0)
            det = h11 * h22 - h12 * h12
            if not (h11 < 0.0 and det > 0.0):
                continue
            step = np.array([h12 * g2 - h22 * g1, h12 * g1 - h11 * g2]) / det
            end = np.array([theta1, theta2]) + step
            turn = np.remainder(end - grid + np.pi, 2 * np.pi) - np.pi
            stationary += np.abs(step).sum() <= 1e-7
            assert np.abs(step).sum() <= 1e-7 or np.any(np.abs(turn) > np.pi / 8)
        assert stationary >= 40


def unit_kernel_inputs(chi):
    """The kernel inputs of ``chi`` at the fit's unit magnitude, and its even exponent ``e``."""
    e = int(np.frexp(np.max(np.abs(chi.m.view(np.float64))))[1])
    e += e % 2
    unit = ProcessMatrix(chi.basis, np.ldexp(chi.m.view(np.float64), -e).view(complex))
    std = transform_process_matrix(unit, "S").m
    return (*_kernel_inputs(0.5 * (std + std.conj().T)), e)


def dense_optimum(chi, tol, max_evals):
    """The lowest residual that ``_descend`` reaches on ``chi`` from 540 starts.

    The starts are p = 0.1 to 0.9, over both halves of the box, R/T = 1/2,
    1 and 2, and a 6x6 grid of angle pairs. The box is the fit's, spelled
    out so that it does not move with the fit's.
    """
    target, floor, e = unit_kernel_inputs(chi)
    angles = np.linspace(-np.pi, np.pi, 6, endpoint=False)
    x0 = np.array(list(itertools.product((0.1, 0.3, 0.5, 0.7, 0.9), (0.5, 1.0, 2.0), angles,
                                         angles)))

    def fun(x):
        return _evaluate(x, target, floor)

    _, r, *_ = _descend(fun, (x0, *fun(x0)), np.array([0.0, 0.25, -np.inf, -np.inf]),
                        np.array([1.0, 4.0, np.inf, np.inf]), tol, max_evals, -np.inf)
    return math.sqrt(floor + np.add.reduce(r * r, axis=1).min()) * 2.0**e


def brute_force_grid_starts(target, floor, n):
    """:func:`fitting._grid_starts`, one grid point and one start at a time."""
    side = 16
    block = target.view(complex).reshape(6, 6)
    y = np.concatenate([block.real.ravel(), block.imag.ravel()])
    cost, coef = np.empty((side, side)), np.empty((side, side, 3))
    for i, j in itertools.product(range(side), repeat=2):
        design = term_design(grid_angles(i, j))
        coef[i, j] = np.linalg.lstsq(design, y, rcond=None)[0]
        cost[i, j] = floor + np.sum((design @ coef[i, j] - y) ** 2)

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
        x1, x2, x3 = coef[i, j]
        t, r = math.sqrt(max(x1, 0.0)), math.sqrt(max(x2, 0.0))
        ratio = min(max(r / t, RATIO_BOUNDS[0]), RATIO_BOUNDS[1]) if t > 0 else RATIO_BOUNDS[1]
        p = min(max(0.5 * (1 + x3 / (t * r)), 0.0), 1.0) if t * r > 0 else 0.5
        starts.append([p, ratio, *grid_angles(i, j)])
    return np.array(starts)


def grid_angles(i, j):
    return -np.pi + 2 * np.pi * i / 16, -np.pi + 2 * np.pi * j / 16


def trf_descend(fun, start, lo, hi, tol, max_evals, bound):
    """scipy's trust-region reflective least squares behind the solver seam, as a reference.

    It runs start by start, every start to its end, whatever ``bound``. The
    square root of the cost off the block, the start's cost less its block
    residual, rides along as one more, constant, residual component, so trf
    minimizes the cost the descent minimizes.
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
        for fp in filters:
            res = fit(model_chi(fp, "F"), FitConfig(multistart=4))
            assert res.converged
            assert res.residual <= 1e-12

    def test_every_solver_point_stays_in_the_box(self, monkeypatch):
        # Records at p = 0 put the profile's minimum outside the box, so
        # their descents run along its wall.
        log = record_solver(monkeypatch)
        chis = [model_chi(fp) for fp in edge_filters()]
        chis += [poisson_chi(paper_filter(p), total, seed=26) for p in (0.14, 0.325, 0.5)
                 for total in (1e3, 1e4)]
        chis += [poisson_chi(paper_filter(0.0), total, seed) for total in (1e3, 1e4)
                 for seed in range(26, 32)]
        for chi in chis:
            fit(chi, FitConfig(multistart=4))
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
        # The filters at R/T = 0.1 lie outside the box, so every lane of
        # theirs runs to its end; the first record drops two of its three.
        chis = [poisson_chi(paper_filter(0.325), 1e4, seed=31), ProcessMatrix("S", np.eye(16))]
        chis += [poisson_chi(outside_filter(p), total, seed)
                 for p, total, seed in ((0.3, 1e3, 8), (0.3, 1e4, 6), (0.0, 1e3, 6))]
        chis += [model_chi(fp, "F") for fp in edge_filters()]
        dropped = every_lane = 0
        for chi in chis:
            res = fit(chi)
            fun, start, args, (x, r, _, converged, evaluations, ended) = runs[-1]
            assert len(x) == len(res.start_residuals)
            assert evaluations.sum() == res.n_evaluations
            dropped += not ended.all()
            every_lane += len(x) > 1 and ended.all()
            for lane in range(len(x)):
                alone = real(fun, start_lane(start, lane), *args)
                assert alone[5][0]
                if not ended[lane]:
                    # Dropped before its end, with the evaluations made so far.
                    assert evaluations[lane] < alone[4][0]
                    continue
                assert np.array_equal(alone[0][0], x[lane])
                assert np.array_equal(alone[1][0], r[lane])
                assert alone[3][0] == converged[lane] and alone[4][0] == evaluations[lane]
        assert dropped >= 1 and every_lane >= 3

    def test_no_lane_ends_below_the_bound(self, monkeypatch):
        # The bound is the lowest polished profile cost of the starts; on 36
        # Poisson records (the reference filter at p = 0 and the paper
        # delays, random filters and channels) no start lies below it, and no
        # lane that ran ends below it, by more than the relative 1e-9 of a tie.
        real_starts, real_descend = fitting._grid_starts, fitting._descend
        checked = []

        def starts(*args):
            checked.append(real_starts(*args))
            return checked[-1]

        def solver(fun, start, *args):
            out = real_descend(fun, start, *args)
            bound = checked[-1][1]
            costs = np.concatenate([start[2], fun(out[0][out[5]])[1]])
            assert np.all(costs >= bound - 1e-9 * (1.0 + bound))
            return out

        monkeypatch.setattr(fitting, "_grid_starts", starts)
        monkeypatch.setattr(fitting, "_descend", solver)
        rng = np.random.default_rng(35)
        filters = [paper_filter(p) for p in (0.0, 0.14, 0.325, 0.5) for _ in range(3)]
        filters += [random_filter(rng) for _ in range(6)]
        channels = [kraus_pair(fp) for fp in filters] + [random_channel(rng) for _ in range(6)]
        inputs = build_input_set()
        for k, channel in enumerate(channels + channels[-12:]):
            counts = simulate_counts(channel, inputs, total_scale=1e4 if k < 24 else 1e3,
                                     noise="poisson", seed=3500 + k)
            fit(reconstruct_process(counts, inputs), FitConfig(multistart=4))
        assert len(checked) == 36

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
        ours = [fit(chi, FitConfig(**kwargs)) for chi in records]
        monkeypatch.setattr(fitting, "_descend", trf_descend)
        for k, chi in enumerate(records):
            reference = fit(chi, FitConfig(**kwargs)).residual
            assert ours[k].converged
            assert ours[k].residual <= (1 + 1e-6) * reference + 1e-12


def masked_solve(gram, g, mu, scale, frozen):
    """The damped step as a stacked numpy solve: the frozen rows and columns those of the identity."""
    eye = np.eye(4)
    system = np.where(frozen[:, None] | frozen[None, :], eye, gram + (mu * scale)[:, None] * eye)
    return np.linalg.solve(system, np.where(frozen, 0.0, -g))


def damped_systems():
    """Seeded ``(gram, g, scale)`` triples: random SPD, kernel and one-zero-column Jacobians.

    ``scale`` is More's running maximum of ``diag(J^T J)``, here the diagonal
    times a draw from [1, 2], as if earlier Jacobians had larger columns.
    """
    rng = np.random.default_rng(41)
    cases = []
    for _ in range(6):
        cases.append((rng.normal(size=(72, 4)) * 10.0 ** rng.uniform(-1.0, 1.0, 4),
                      rng.normal(size=72)))
    chi = model_chi(random_filter(rng)).m + 0.05 * random_hermitian(rng, 16)
    x = rng.uniform([0.0, 0.25, -np.pi, -np.pi], [1.0, 4.0, np.pi, np.pi], (4, 4))
    r, _, _, _, _, jt = _evaluate(x, *_kernel_inputs(chi))
    cases += [(j.T, res) for j, res in zip(jt, r)]
    out = [(jac.T @ jac, jac.T @ res, np.diag(jac.T @ jac) * rng.uniform(1.0, 2.0, 4))
           for jac, res in cases]
    for column in range(4):
        jac = rng.normal(size=(72, 4))
        jac[:, column] = 0.0
        gram = jac.T @ jac
        # D keeps the column's earlier maximum, so the variable is free and damped alone.
        scale = np.diag(gram) * rng.uniform(1.0, 2.0, 4)
        scale[column] = rng.uniform(1.0, 2.0)
        out.append((gram, jac.T @ rng.normal(size=72), scale))
    return out


class TestDampedStep:
    @pytest.mark.parametrize("mu", [1e-12, 1e-6, 1e-3, 1.0, 1e3, 1e12])
    def test_matches_a_solve_of_the_masked_system(self, mu):
        frozen_sets = [np.array(f) for f in itertools.product((False, True), repeat=4)]
        for gram, g, scale in damped_systems():
            for frozen in frozen_sets:
                reference = masked_solve(gram, g, mu, scale, frozen)
                step = np.array(_damped_step(gram.tolist(), g.tolist(), mu, scale.tolist(),
                                             frozen.tolist()))
                assert np.all(step[frozen] == 0.0)
                assert np.linalg.norm(step - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_a_pivot_that_is_not_positive_falls_back_to_elimination(self):
        # Undamped and indefinite, as mu D lost in rounding would leave J^T J.
        rng = np.random.default_rng(42)
        frozen = np.zeros(4, dtype=bool)
        for k in range(20):
            a = rng.normal(size=(4, 4))
            gram, g = a + a.T, rng.normal(size=4)
            if k % 2:
                gram[0, 0] = 0.0  # a zero leading pivot, which only a row exchange passes
            reference = masked_solve(gram, g, 0.0, np.ones(4), frozen)
            step = np.array(_damped_step(gram.tolist(), g.tolist(), 0.0, [1.0] * 4, [False] * 4))
            assert np.linalg.norm(step - reference) <= 1e-12 * np.linalg.norm(reference)

    def test_a_singular_system_raises_as_numpy_does(self):
        gram, g, frozen = np.zeros((4, 4)), np.ones(4), np.zeros(4, dtype=bool)
        with pytest.raises(np.linalg.LinAlgError):
            masked_solve(gram, g, 0.0, np.ones(4), frozen)
        with pytest.raises(np.linalg.LinAlgError):
            _damped_step(gram.tolist(), g.tolist(), 0.0, [1.0] * 4, [False] * 4)


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
        fit(chi, FitConfig(multistart=4))
        # The fit runs on the matrix scaled by an even power of two into [1/4, 1).
        target, floor, _ = unit_kernel_inputs(chi)
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
        fit(chi, FitConfig(multistart=4))
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
        x = rng.uniform([0.0, 0.25, -np.pi, -np.pi], [1.0, 4.0, np.pi, np.pi], (16, 4))
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
