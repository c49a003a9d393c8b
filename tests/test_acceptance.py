"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import time

import numpy as np
from numpy.testing import assert_allclose

from bsqpt import (
    BSOptics,
    FilterParams,
    FitConfig,
    apply_kraus,
    apply_pt_model,
    bell_state,
    build_input_set,
    choi_from_kraus,
    decoherence_from_delay,
    fit,
    hom_dip,
    hom_visibility,
    kraus_pair,
    kraus_pair_from_optics,
    model_chi,
    reconstruct_process,
    simulate_counts,
)
from bsqpt.cli import main
from bsqpt.linalg import projector

from helpers import random_channel, random_density, read_json, write_json

RATIO = 0.76
THETA1 = 0.41 * np.pi
THETA2 = 0.076 * np.pi
P_VALUES = (0.14, 0.325, 0.5)


def reference_filter(p, scale=1.0):
    return FilterParams.from_ratio(RATIO, theta1=THETA1, theta2=THETA2, p=p, scale=scale)


def test_criterion_1_tomography_oracle_equivalence():
    inputs = build_input_set()
    rng = np.random.default_rng(2024)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(50):
        ks = random_channel(rng)
        chi_rec = reconstruct_process(simulate_counts(ks, inputs), inputs)
        chi_true = choi_from_kraus(ks)
        worst = max(worst, float(np.linalg.norm(chi_rec.m - chi_true.m)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-9
    assert elapsed < 10.0
    print(f"[PASS] criterion 1: oracle equivalence, worst Frobenius {worst:.2e}, "
          f"{elapsed:.2f} s for 50 channels")


def test_criterion_2_triplet_filter_theorem():
    ks = kraus_pair(FilterParams(T=0.5, R=0.5, theta1=0.0, theta2=0.0, p=0.0))
    psi_plus = projector(bell_state(2))
    psi_minus = projector(bell_state(3))
    ket00 = np.zeros((4, 4), dtype=complex)
    ket00[0, 0] = 1.0

    singlet_norm = float(np.linalg.norm(apply_kraus(ks, psi_minus)))
    triplet_err = float(np.max(np.abs(apply_kraus(ks, psi_plus) - psi_plus)))
    hh_norm = float(np.linalg.norm(apply_kraus(ks, ket00)))
    assert singlet_norm < 1e-12
    assert triplet_err < 1e-12
    assert hh_norm < 1e-12
    print(f"[PASS] criterion 2: triplet filter, |E(singlet)|={singlet_norm:.1e}, "
          f"|E(psi+)-psi+|={triplet_err:.1e}, |E(HH)|={hh_norm:.1e}")


def test_criterion_3_temporal_model_equivalence():
    rng = np.random.default_rng(31)
    worst = 0.0
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
        explicit = apply_pt_model(rho, s, fp)
        p_eq = 0.5 * (1.0 - abs(s) ** 2)
        mixture = apply_kraus(kraus_pair(FilterParams(
            T=fp.T, R=fp.R, theta1=fp.theta1, theta2=fp.theta2, p=p_eq, scale=fp.scale
        )), rho)
        worst = max(worst, float(np.max(np.abs(explicit - mixture))))
    assert worst < 1e-12
    print(f"[PASS] criterion 3: temporal model equals two-operator mixture, "
          f"worst entry error {worst:.2e}")


def test_criterion_4_optics_derivation():
    rng = np.random.default_rng(41)
    cases = [(rng.uniform(-np.pi, np.pi), rng.uniform(-np.pi, np.pi)) for _ in range(20)]
    cases.append((0.1, 0.1 + 0.41 * np.pi))
    worst = 0.0
    for gamma, delta in cases:
        t = rng.uniform(0.3, 0.7)
        p = rng.uniform(0.0, 0.5)
        ks_optics = kraus_pair_from_optics(BSOptics(T=t, R=1 - t, gamma=gamma, delta=delta), p=p)
        ks_model = kraus_pair(
            FilterParams(T=t, R=1 - t, theta1=delta - gamma, theta2=delta - gamma, p=p)
        )
        for mu in range(16):
            x = np.zeros((4, 4), dtype=complex)
            x[mu // 4, mu % 4] = 1.0
            diff = np.max(np.abs(apply_kraus(ks_optics, x) - apply_kraus(ks_model, x)))
            worst = max(worst, float(diff))
    assert worst < 1e-12
    print(f"[PASS] criterion 4: optics derivation matches phase model, "
          f"worst channel difference {worst:.2e} over {len(cases)} phase pairs")


def test_criterion_5_filter_basis_phenomenology():
    c = np.cos(THETA1 / 2) * np.cos(THETA2 / 2)
    values = []
    for p in P_VALUES:
        fp = reference_filter(p)
        chi_f = model_chi(fp, "F")
        closed = (1 - p) * (fp.T - 2 * fp.R * c) ** 2 + p * (fp.T + 2 * fp.R * c) ** 2
        diag = float(chi_f.m[15, 15].real)
        assert abs(diag - closed) < 1e-10
        values.append(diag)
        w = np.linalg.eigvalsh(chi_f.m)
        assert w[-3] < 1e-10 * w[-1]
    assert values[0] < values[1] < values[2]
    print(f"[PASS] criterion 5: chi^F[15,15] = {values[0]:.4f} < {values[1]:.4f} < "
          f"{values[2]:.4f}, closed form matched, all ranks 2")


def test_criterion_6_fit_recovery():
    noiseless_p = []
    for p_true in P_VALUES:
        chi = model_chi(reference_filter(p_true), "F")
        res = fit(chi, FitConfig(seed=6))
        e = res.params
        assert abs(e.p - p_true) < 1e-4
        assert abs(e.ratio_rt - RATIO) < 1e-4
        assert abs(e.theta1 - THETA1) < 1e-4
        assert abs(e.theta2 - THETA2) < 1e-4
        noiseless_p.append(e.p)
    assert noiseless_p[0] < noiseless_p[1] < noiseless_p[2]

    inputs = build_input_set()
    noisy_means = []
    for p_true in P_VALUES:
        ks = kraus_pair(reference_filter(p_true))
        fitted = []
        for seed in range(10):
            ct = simulate_counts(ks, inputs, total_scale=1e4, noise="poisson", seed=seed)
            chi = reconstruct_process(ct, inputs)
            res = fit(chi, FitConfig(multistart=4, max_iterations=500,
                                     convergence_tol=1e-9, seed=seed))
            fitted.append(res.params.p)
        mean_p = float(np.mean(fitted))
        assert abs(mean_p - p_true) / p_true < 0.05
        noisy_means.append(mean_p)
    assert noisy_means[0] < noisy_means[1] < noisy_means[2]
    print(f"[PASS] criterion 6: noiseless recovery at 1e-4; Poisson means "
          f"{noisy_means[0]:.4f}, {noisy_means[1]:.4f}, {noisy_means[2]:.4f} "
          f"within 5% and increasing")


def test_criterion_7_hom_dip_visibility():
    fp = FilterParams.from_ratio(RATIO)
    tau_c = 83.0
    grid = np.linspace(-10 * tau_c, 10 * tau_c, 401)
    curve = hom_dip(fp, grid, tau_c_fs=tau_c, mu=1.0)
    rates = curve[:, 1]
    simulated_vis = (rates.max() - rates.min()) / rates.max()
    closed = hom_visibility(fp.T, fp.R, mu=1.0)
    assert abs(simulated_vis - closed) < 1e-6
    assert abs(closed - 0.9636) < 5e-4
    assert_allclose(rates, rates[::-1], atol=1e-12)
    assert np.argmin(rates) == 200
    print(f"[PASS] criterion 7: dip visibility {simulated_vis:.6f} matches "
          f"closed form {closed:.6f}; curve even with minimum at zero delay")


def test_criterion_8_decoherence_calibration():
    mu, tau_c = 0.72, 83.0
    p0 = decoherence_from_delay(0.0, tau_c, mu)
    p100 = decoherence_from_delay(100.0, tau_c, mu)
    p350 = decoherence_from_delay(350.0, tau_c, mu)
    assert abs(p0 - 0.14) < 1e-12
    assert abs(p100 - 0.325) < 0.005
    assert p350 >= 0.499
    print(f"[PASS] criterion 8: p(0)={p0:.4f}, p(100fs)={p100:.4f}, "
          f"p(350fs)={p350:.5f} reproduce the three delay conditions")


def test_criterion_9_cli_contract(tmp_path):
    params = tmp_path / "params.json"
    write_json(
        {"ratio_RT": RATIO, "theta1": THETA1, "theta2": THETA2, "p": 0.325, "scale": 1.0},
        params,
    )
    counts = tmp_path / "counts.csv"
    chi = tmp_path / "chi.json"
    report = tmp_path / "fit.json"
    assert main(["simulate", "--params", str(params), "--counts-out", str(counts)]) == 0
    assert main(["reconstruct", "--counts", str(counts), "--basis", "F",
                 "--out", str(chi)]) == 0
    assert main(["fit", "--chi", str(chi), "--out", str(report)]) == 0
    fitted = read_json(report)
    assert abs(fitted["p"] - 0.325) < 1e-3

    # Byte stability of every golden under fixed seeds.
    for name, args in {
        "sim": ["simulate", "--params", str(params), "--counts-out", None,
                "--noise", "poisson", "--seed", "3", "--total-scale", "10000"],
        "rec": ["reconstruct", "--counts", str(counts), "--basis", "F", "--out", None],
        "fit": ["fit", "--chi", str(chi), "--out", None],
        "dip": None,
    }.items():
        if name == "dip":
            tparams = tmp_path / "tparams.json"
            write_json({"ratio_RT": RATIO, "theta1": THETA1, "theta2": THETA2,
                        "tau_fs": 0.0, "tau_c_fs": 83.0, "mu": 0.72}, tparams)
            args = ["homdip", "--params", str(tparams), "--tau-min", "-300",
                    "--tau-max", "300", "--steps", "25", "--out", None]
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        for out in (out_a, out_b):
            final_args = [a if a is not None else str(out) for a in args]
            assert main(final_args) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), f"{name} output not byte-stable"
    print(f"[PASS] criterion 9: CLI pipeline exit codes 0, fitted p={fitted['p']:.6f} "
          f"(error {abs(fitted['p'] - 0.325):.1e}), goldens byte-stable")
