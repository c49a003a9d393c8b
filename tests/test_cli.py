"""File formats and the command-line pipeline, including exit codes."""

import io
import json
import logging
import os
import subprocess
import sys
from contextlib import redirect_stderr

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bsqpt import FilterParams, build_input_set, choi_from_kraus, kraus_pair, simulate_counts
from bsqpt import reconstruct_process, transform_process_matrix
from bsqpt import cli, fileio, fitting, tomography
from bsqpt.cli import main
from bsqpt.fileio import FileFormatError

from helpers import fail_best_start, random_matrix, read_json, write_json

PI = np.pi
HEADER = "input_index,projector_index,count\n"
EYE = np.eye(16).tolist()


# What reading write_params' default splitter logs, on the command's stderr.
DERIVED_RT = "derived T=0.568182, R=0.431818 from ratio_RT=0.76"


def write_params(path, **overrides):
    payload = {
        "ratio_RT": 0.76,
        "theta1": 0.41 * PI,
        "theta2": 0.076 * PI,
        "p": 0.325,
        "scale": 1.0,
    }
    payload.update(overrides)
    for key in [k for k, v in payload.items() if v is None]:
        del payload[key]
    with open(path, "w") as fh:
        json.dump(payload, fh)
    return path


def chi_argv(command, chi, out, tmp_path):
    """Arguments of a command that reads ``--chi``; ``apply`` gets the maximally mixed state."""
    extra = ["--to", "F"] if command == "transform" else []
    if command == "apply":
        rho = tmp_path / "mixed.json"
        fileio.write_matrix(rho, np.eye(4) / 4, fileio.STATE_TAG)
        extra = ["--state", str(rho)]
    return [command, "--chi", str(chi), "--out", str(out), *extra]


class TestMatrixFile:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        m = random_matrix(rng, 16)
        m = m + m.conj().T
        path = tmp_path / "m.json"
        fileio.write_matrix(path, m, "S")
        basis, back = fileio.read_matrix(path)
        assert basis == "S"
        assert np.array_equal(back, m)

    def test_serialized_twice_same_bytes(self, tmp_path):
        rng = np.random.default_rng(2)
        m = random_matrix(rng, 4)
        fileio.write_matrix(tmp_path / "a.json", m, "state")
        fileio.write_matrix(tmp_path / "b.json", m, "state")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_rejects_bad_tag(self, tmp_path):
        path = tmp_path / "m.json"
        write_json({"dim": 2, "basis": "X", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
                   path)
        with pytest.raises(FileFormatError):
            fileio.read_matrix(path)

    def test_rejects_shape_mismatch(self, tmp_path):
        path = tmp_path / "m.json"
        write_json({"dim": 3, "basis": "S", "re": [[1, 0], [0, 1]], "im": [[0, 0], [0, 0]]},
                   path)
        with pytest.raises(FileFormatError):
            fileio.read_matrix(path)


class TestCountFile:
    def test_round_trip(self, tmp_path):
        inputs = build_input_set()
        ct = simulate_counts(
            kraus_pair(FilterParams.from_ratio(0.76, p=0.2)),
            inputs,
            total_scale=1e4,
            noise="poisson",
            seed=11,
        )
        path = tmp_path / "c.csv"
        fileio.write_counts(path, ct)
        back = fileio.read_counts(path)
        assert np.array_equal(back.counts, ct.counts)
        assert back.total_scale == ct.total_scale

    def test_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        lines = ["input_index,projector_index,count"]
        lines += [f"{i},{j},1.0" for i in range(16) for j in range(16)][:-1]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="missing"):
            fileio.read_counts(path)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        lines = ["input_index,projector_index,count"]
        lines += [f"{i},{j},1.0" for i in range(16) for j in range(16)]
        lines.append("0,0,2.0")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="duplicate"):
            fileio.read_counts(path)

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "c.csv"
        lines = ["input_index,projector_index,count"]
        lines += [f"{i},{j},1.0" for i in range(16) for j in range(16)]
        lines[1] = "0,0,-3.0"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(FileFormatError, match="negative"):
            fileio.read_counts(path)

    def test_comment_naming_total_scale_is_a_comment(self, tmp_path):
        path = tmp_path / "c.csv"
        lines = ["# note: total_scale = 1e4 was the run's setting", HEADER.strip()]
        lines += [f"{i},{j},1.0" for i in range(16) for j in range(16)]
        path.write_text("\n".join(lines) + "\n")
        assert fileio.read_counts(path).total_scale == 1.0
        assert main(["reconstruct", "--counts", str(path),
                     "--out", str(tmp_path / "o.json")]) == 0

    def test_later_comment_does_not_override_the_header(self, tmp_path):
        path = tmp_path / "c.csv"
        lines = ["# total_scale = 1.0", "# previous total_scale=2", HEADER.strip()]
        lines += [f"{i},{j},1.0" for i in range(16) for j in range(16)]
        path.write_text("\n".join(lines) + "\n")
        assert fileio.read_counts(path).total_scale == 1.0


class TestParamsFile:
    def test_ratio_form(self, tmp_path):
        fp, delay = fileio.read_params(write_params(tmp_path / "p.json"))
        assert abs(fp.T - 1 / 1.76) < 1e-12
        assert abs(fp.R - 0.76 / 1.76) < 1e-12
        assert delay is None

    def test_explicit_tr_form(self, tmp_path):
        path = write_params(tmp_path / "p.json", ratio_RT=None, T=0.6, R=0.4)
        fp, _ = fileio.read_params(path)
        assert fp.T == 0.6 and fp.R == 0.4

    def test_temporal_form_derives_p(self, tmp_path):
        path = write_params(
            tmp_path / "p.json", p=None, tau_fs=0.0, tau_c_fs=83.0, mu=0.72
        )
        fp, delay = fileio.read_params(path)
        assert abs(fp.p - 0.14) < 1e-12
        assert delay == (0.0, 83.0, 0.72)

    def test_alias_keys(self, tmp_path):
        path = tmp_path / "p.json"
        write_json({"ratio_RT": 1.0, "theta1_rad": 0.5, "theta2_rad": -0.5, "p": 0.1}, path)
        fp, _ = fileio.read_params(path)
        assert fp.theta1 == 0.5 and fp.theta2 == -0.5
        assert fp.scale == 1.0

    def test_both_forms_rejected(self, tmp_path):
        path = write_params(tmp_path / "p.json", T=0.5, R=0.5)
        with pytest.raises(FileFormatError):
            fileio.read_params(path)

    def test_both_p_and_temporal_rejected(self, tmp_path):
        path = write_params(tmp_path / "p.json", tau_fs=10.0, tau_c_fs=83.0, mu=0.7)
        with pytest.raises(FileFormatError):
            fileio.read_params(path)


class TestCliPipeline:
    def test_end_to_end_recovers_p(self, tmp_path):
        params = write_params(tmp_path / "params.json")
        counts = tmp_path / "counts.csv"
        chi = tmp_path / "chi.json"
        report = tmp_path / "fit.json"
        assert main(["simulate", "--params", str(params), "--counts-out", str(counts)]) == 0
        assert main(
            ["reconstruct", "--counts", str(counts), "--basis", "F", "--out", str(chi)]
        ) == 0
        assert main(["fit", "--chi", str(chi), "--out", str(report)]) == 0
        result = read_json(report)
        assert abs(result["p"] - 0.325) <= 1e-9
        assert result["converged"] is True
        assert "warning" not in result

    def test_fit_report_keys(self, tmp_path):
        # The README pipeline's report; a field added to FilterParams must not
        # reach it unnoticed.
        params = write_params(tmp_path / "params.json", scale=None)
        counts, chi, report = tmp_path / "counts.csv", tmp_path / "chi.json", tmp_path / "fit.json"
        assert main(["simulate", "--params", str(params), "--counts-out", str(counts)]) == 0
        assert main(["reconstruct", "--counts", str(counts), "--basis", "F",
                     "--out", str(chi)]) == 0
        assert main(["fit", "--chi", str(chi), "--out", str(report)]) == 0
        assert set(read_json(report)) == {
            "T", "R", "ratio_RT", "theta1", "theta2", "p", "scale", "residual", "fidelity",
            "n_evaluations", "converged",
        }

    def test_simulate_deterministic_bytes(self, tmp_path):
        params = write_params(tmp_path / "params.json")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            code = main(
                ["simulate", "--params", str(params), "--counts-out", str(out),
                 "--noise", "poisson", "--seed", "5", "--total-scale", "20000"]
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_noise_seed_recorded_only_with_poisson(self, tmp_path):
        params = write_params(tmp_path / "params.json")
        plain, noisy = tmp_path / "plain.csv", tmp_path / "noisy.csv"
        assert main(["simulate", "--params", str(params), "--counts-out", str(plain)]) == 0
        assert main(["simulate", "--params", str(params), "--counts-out", str(noisy),
                     "--noise", "poisson", "--seed", "5"]) == 0
        assert "noise_seed" not in plain.read_text()
        assert "\n# noise_seed = 5\n" in noisy.read_text()

    def test_negative_noise_seed_exit_2_naming_the_seed(self, tmp_path, capsys):
        params = write_params(tmp_path / "params.json")
        out = tmp_path / "noisy.csv"
        assert main(["simulate", "--params", str(params), "--counts-out", str(out),
                     "--noise", "poisson", "--seed=-1"]) == 2
        err = capsys.readouterr().err
        assert "error: seed (--seed) must be a non-negative integer, got -1\n" in err
        assert not out.exists()

    @pytest.mark.parametrize("noise", [[], ["--noise", "poisson"]], ids=["noiseless", "poisson"])
    def test_negative_seed_refused_before_any_work(self, tmp_path, capsys, monkeypatch, noise):
        # Refused with or without noise, before the parameter file is read.
        params = write_params(tmp_path / "params.json")
        out = tmp_path / "counts.csv"
        monkeypatch.setattr(fileio, "read_params", None)
        assert main(["simulate", "--params", str(params), "--counts-out", str(out),
                     "--seed=-1", *noise]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed (--seed) must be a non-negative integer, got -1\n"
        assert not out.exists()

    def test_ideal_filter_row_is_zero(self, tmp_path):
        params = write_params(tmp_path / "params.json", ratio_RT=1.0, theta1=0.0,
                              theta2=0.0, p=0.0)
        counts = tmp_path / "counts.csv"
        assert main(["simulate", "--params", str(params), "--counts-out", str(counts)]) == 0
        table = fileio.read_counts(counts)
        assert np.max(np.abs(table.counts[0])) < 1e-15

    def test_reconstruct_matches_model(self, tmp_path):
        params = write_params(tmp_path / "params.json", p=0.5)
        counts = tmp_path / "counts.csv"
        chi_path = tmp_path / "chi.json"
        main(["simulate", "--params", str(params), "--counts-out", str(counts)])
        main(["reconstruct", "--counts", str(counts), "--basis", "S", "--out", str(chi_path)])
        _, m = fileio.read_matrix(chi_path)
        fp = FilterParams.from_ratio(0.76, theta1=0.41 * PI, theta2=0.076 * PI, p=0.5)
        assert np.linalg.norm(m - choi_from_kraus(kraus_pair(fp)).m) < 1e-10

    def test_reconstruct_psd_flag(self, tmp_path):
        params = write_params(tmp_path / "params.json")
        counts = tmp_path / "counts.csv"
        chi_path = tmp_path / "chi.json"
        main(["simulate", "--params", str(params), "--counts-out", str(counts),
              "--noise", "poisson", "--seed", "1", "--total-scale", "500"])
        main(["reconstruct", "--counts", str(counts), "--basis", "S",
              "--out", str(chi_path), "--psd-project"])
        _, m = fileio.read_matrix(chi_path)
        assert np.linalg.eigvalsh(m)[0] > -1e-9

    def test_transform_round_trip(self, tmp_path):
        params = write_params(tmp_path / "params.json")
        chi_s = tmp_path / "chi_s.json"
        chi_f = tmp_path / "chi_f.json"
        chi_back = tmp_path / "chi_back.json"
        main(["choi", "--params", str(params), "--basis", "S", "--out", str(chi_s)])
        main(["transform", "--chi", str(chi_s), "--to", "F", "--out", str(chi_f)])
        main(["transform", "--chi", str(chi_f), "--to", "S", "--out", str(chi_back)])
        _, m0 = fileio.read_matrix(chi_s)
        _, m1 = fileio.read_matrix(chi_back)
        assert np.max(np.abs(m0 - m1)) < 1e-12

    def test_apply_identity_channel(self, tmp_path):
        chi_path = tmp_path / "chi.json"
        state_path = tmp_path / "state.json"
        out_path = tmp_path / "out.json"
        from bsqpt import KrausSet

        chi = choi_from_kraus(KrausSet([(1.0, np.eye(4, dtype=complex))]))
        fileio.write_matrix(chi_path, chi.m, "S")
        rng = np.random.default_rng(3)
        m = random_matrix(rng)
        rho = m @ m.conj().T
        rho /= np.trace(rho).real
        fileio.write_matrix(state_path, rho, "state")
        assert main(["apply", "--chi", str(chi_path), "--state", str(state_path),
                     "--out", str(out_path)]) == 0
        _, out = fileio.read_matrix(out_path)
        assert_allclose(out, rho, atol=1e-12)

    def test_apply_ideal_filter_kills_singlet(self, tmp_path):
        params = write_params(tmp_path / "params.json", ratio_RT=1.0, theta1=0.0,
                              theta2=0.0, p=0.0)
        counts = tmp_path / "c.csv"
        chi_path = tmp_path / "chi.json"
        state_path = tmp_path / "psi_minus.json"
        out_path = tmp_path / "out.json"
        main(["simulate", "--params", str(params), "--counts-out", str(counts)])
        main(["reconstruct", "--counts", str(counts), "--basis", "S", "--out", str(chi_path)])
        singlet = np.zeros((4, 4), dtype=complex)
        singlet[1, 1] = singlet[2, 2] = 0.5
        singlet[1, 2] = singlet[2, 1] = -0.5
        fileio.write_matrix(state_path, singlet, "state")
        main(["apply", "--chi", str(chi_path), "--state", str(state_path),
              "--out", str(out_path)])
        _, out = fileio.read_matrix(out_path)
        assert abs(np.trace(out)) < 1e-12

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "choi"])
    @pytest.mark.parametrize("tau_fs", [1e155, 1e200, 1.7e308])
    def test_far_delay_saturates_at_half(self, tmp_path, caplog, command, tau_fs):
        caplog.set_level(logging.INFO, logger="bsqpt")
        params = write_params(tmp_path / "p.json", p=None, tau_fs=tau_fs, tau_c_fs=83.0, mu=0.72)
        out = tmp_path / "out"
        flag = "--counts-out" if command == "simulate" else "--out"
        assert main([command, "--params", str(params), flag, str(out)]) == 0
        assert "derived p=0.5 from" in caplog.text
        if command == "simulate":
            values = fileio.read_counts(out).counts
        else:
            payload = read_json(out)
            values = np.array([payload["re"], payload["im"]])
        assert np.all(np.isfinite(values))

    def test_each_call_logs_to_its_own_stderr(self, tmp_path):
        params = write_params(tmp_path / "p.json")
        root, package = logging.getLogger(), logging.getLogger("bsqpt")
        before = (list(root.handlers), root.level, package.level)
        errs = []
        for k in range(2):
            err = io.StringIO()
            with redirect_stderr(err):
                assert main(["choi", "--params", str(params),
                             "--out", str(tmp_path / f"chi{k}.json")]) == 0
            errs.append(err.getvalue())
        assert errs == [f"{DERIVED_RT}\n"] * 2
        # Neither logger keeps anything of the calls.
        assert (list(root.handlers), root.level, package.level) == before
        assert not package.handlers

    def test_homdip_curve(self, tmp_path):
        params = write_params(tmp_path / "params.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        out = tmp_path / "dip.csv"
        code = main(["homdip", "--params", str(params), "--tau-min", "-200",
                     "--tau-max", "200", "--steps", "21", "--out", str(out)])
        assert code == 0
        text = out.read_text().splitlines()
        assert text[0].startswith("# visibility = ")
        vis = float(text[0].split("=")[1])
        assert abs(vis - 0.72 * 0.963489) < 1e-3
        rows = [line.split(",") for line in text[2:]]
        rates = np.array([float(r[1]) for r in rows])
        assert np.argmin(rates) == 10
        assert_allclose(rates, rates[::-1], atol=1e-12)


class TestCliErrors:
    def test_invalid_params_exit_2(self, tmp_path):
        path = write_params(tmp_path / "p.json", T=0.5, R=0.5)
        assert main(["simulate", "--params", str(path),
                     "--counts-out", str(tmp_path / "c.csv")]) == 2

    def test_malformed_json_exit_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["fit", "--chi", str(bad), "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("flag", ["--chi", "--state"])
    @pytest.mark.parametrize("text", ["1", "null", '"dim"', "[1]"])
    def test_matrix_file_not_an_object_exit_2(self, tmp_path, capsys, flag, text):
        files = {"--chi": tmp_path / "chi.json", "--state": tmp_path / "rho.json"}
        fileio.write_matrix(files["--chi"], np.eye(16), "S")
        fileio.write_matrix(files["--state"], np.eye(4) / 4, fileio.STATE_TAG)
        files[flag].write_text(text)
        out = tmp_path / "o.json"
        assert main(["apply", "--chi", str(files["--chi"]), "--state", str(files["--state"]),
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {files[flag]}: expected a JSON object\n"
        assert not out.exists()
        if flag == "--chi":
            assert main(["fit", "--chi", str(files["--chi"]), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {files[flag]}: expected a JSON object\n"
            assert not out.exists()

    @pytest.mark.parametrize("command, flag", [
        ("reconstruct", "--counts"),
        ("fit", "--chi"),
        ("simulate", "--params"),
    ])
    def test_undecodable_file_names_path_exit_2(self, tmp_path, capsys, command, flag):
        bad = tmp_path / "bad"
        bad.write_bytes(b"\xff\xfe{}")
        out = tmp_path / "out"
        out_flag = "--counts-out" if command == "simulate" else "--out"
        assert main([command, flag, str(bad), out_flag, str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not UTF-8 text")
        assert not out.exists()

    def test_malformed_counts_exit_2(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("input_index,projector_index,count\n0,0,1.0\n")
        assert main(["reconstruct", "--counts", str(bad),
                     "--out", str(tmp_path / "o.json")]) == 2

    @pytest.mark.parametrize("scale", ["nan", "inf", "0", "-1"])
    def test_bad_total_scale_exit_2(self, tmp_path, capsys, scale):
        params = write_params(tmp_path / "p.json")
        counts = tmp_path / "c.csv"
        assert main(["simulate", "--params", str(params), "--counts-out", str(counts),
                     "--total-scale", scale]) == 2
        assert "total_scale must be finite and positive" in capsys.readouterr().err
        assert not counts.exists()

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-5"])
    def test_bad_total_scale_header_exit_2(self, tmp_path, capsys, value):
        path = tmp_path / "c.csv"
        lines = ["# coincidence count table", f"# total_scale = {value}",
                 "input_index,projector_index,count"]
        lines += [f"{i},{j},1.0" for i in range(16) for j in range(16)]
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.json"
        assert main(["reconstruct", "--counts", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and "total_scale" in err
        assert not out.exists()

    @pytest.mark.parametrize("option", ["--multistart", "--max-iter"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_fit_rejects_fewer_than_one_start_or_iteration(self, tmp_path, capsys, option, value):
        chi = tmp_path / "chi.json"
        fileio.write_matrix(chi, choi_from_kraus(kraus_pair(FilterParams.from_ratio(0.76))).m, "S")
        out = tmp_path / "o.json"
        assert main(["fit", "--chi", str(chi), "--out", str(out), option, value]) == 2
        assert f"({option}) must be at least 1, got {value}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "transform"])
    @pytest.mark.parametrize("bad, part", [(np.nan, "real"), (np.inf, "imag"), (-np.inf, "real")])
    def test_non_finite_chi_exit_2(self, tmp_path, capsys, command, bad, part):
        chi = choi_from_kraus(kraus_pair(FilterParams.from_ratio(0.76, p=0.2))).m.copy()
        getattr(chi, part)[3, 5] = bad
        chi_path = tmp_path / "chi.json"
        with open(chi_path, "w") as fh:  # write_matrix refuses non-finite entries
            json.dump({"dim": 16, "basis": "S", "re": chi.real.tolist(),
                       "im": chi.imag.tolist()}, fh)
        out = tmp_path / "out.json"
        extra = ["--to", "F"] if command == "transform" else []
        assert main([command, "--chi", str(chi_path), "--out", str(out), *extra]) == 2
        assert f"error: {chi_path}: non-finite matrix entry" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("tau_c_fs, mu, message", [
        (0.0, 0.72, "coherence time must be positive"),
        (83.0, 2.0, "mode-match factor must lie in [0, 1]"),
        # A square that underflows to zero or overflows to infinity.
        (1e-200, 0.72, "coherence time must be positive"),
        (5e-324, 0.72, "coherence time must be positive"),
        (1e200, 0.72, "coherence time must be positive"),
    ])
    def test_bad_delay_configuration_names_file_exit_2(self, tmp_path, capsys, tau_c_fs, mu,
                                                       message):
        params = write_params(tmp_path / "p.json", p=None, tau_fs=100.0, tau_c_fs=tau_c_fs,
                              mu=mu)
        out = tmp_path / "m.json"
        assert main(["choi", "--params", str(params), "--out", str(out)]) == 2
        assert f"error: {params}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, key, bad", [
        ("simulate", "theta1", np.nan),
        ("simulate", "p", -np.inf),
        ("choi", "scale", np.inf),
    ])
    def test_non_finite_parameter_exit_2(self, tmp_path, capsys, command, key, bad):
        params = write_params(tmp_path / "p.json", **{key: bad})
        out = tmp_path / "out"
        flag = "--counts-out" if command == "simulate" else "--out"
        assert main([command, "--params", str(params), flag, str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {params}: key {key!r} must be a finite number\n"
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", ["simulate", "choi"])
    def test_overflowing_rate_bound_names_file_exit_2(self, tmp_path, capsys, command):
        params = write_params(tmp_path / "p.json", scale=1e200)
        out = tmp_path / "out"
        flag = "--counts-out" if command == "simulate" else "--out"
        assert main([command, "--params", str(params), flag, str(out)]) == 2
        assert capsys.readouterr().err == (
            f"{DERIVED_RT}\n"
            f"error: {params}: rate bound (scale*(T+R))^2 is not finite for scale=1e+200\n"
        )
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("scale, total_scale, noise, message", [
        (1e150, "1e100", [], "times the largest rate is not finite"),
        (1.0, "1e20", ["--noise", "poisson"], "above the Poisson sampler's limit"),
    ], ids=["product", "poisson"])
    def test_overflowing_total_scale_exit_2(self, tmp_path, capsys, scale, total_scale, noise,
                                            message):
        params = write_params(tmp_path / "p.json", scale=scale)
        counts = tmp_path / "c.csv"
        assert main(["simulate", "--params", str(params), "--counts-out", str(counts),
                     "--total-scale", total_scale, *noise]) == 2
        err = capsys.readouterr().err
        assert f"error: total_scale={float(total_scale)!r} " in err and message in err
        assert not counts.exists()

    def test_missing_key_names_file_once_exit_2(self, tmp_path, capsys):
        params = write_params(tmp_path / "p.json", ratio_RT=None, T=0.5)
        assert main(["choi", "--params", str(params), "--out", str(tmp_path / "m.json")]) == 2
        assert capsys.readouterr().err == f"error: {params}: missing key 'R'\n"

    @pytest.mark.parametrize("command", ["fit", "transform", "apply"])
    def test_slightly_non_hermitian_chi_names_file_exit_2(self, tmp_path, capsys, command):
        chi = choi_from_kraus(kraus_pair(FilterParams.from_ratio(0.76, p=0.2))).m
        skew = random_matrix(np.random.default_rng(17), dim=16)
        skew = 0.5 * (skew - skew.conj().T)
        # An anti-Hermitian part of 1e-7 relative to the largest entry, at any scale.
        chi = chi + 1e-7 * np.max(np.abs(chi)) * skew / np.max(np.abs(skew))
        chi_path = tmp_path / "chi.json"
        out = tmp_path / "out.json"
        for scale in (1.0, 2.0**-40, 2.0**-700):
            fileio.write_matrix(chi_path, scale * chi, "S")
            assert main(chi_argv(command, chi_path, out, tmp_path)) == 2
            assert f"error: {chi_path}: process matrix is not Hermitian" in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("command", ["fit", "transform", "apply"])
    def test_state_file_as_chi_names_file_exit_2(self, tmp_path, capsys, command):
        state = tmp_path / "state.json"
        fileio.write_matrix(state, np.eye(4) / 4, fileio.STATE_TAG)
        out = tmp_path / "out.json"
        assert main(chi_argv(command, state, out, tmp_path)) == 2
        assert capsys.readouterr().err == f"error: {state}: expected a 16x16 process matrix\n"
        assert not out.exists()

    def test_chi_file_as_state_names_file_exit_2(self, tmp_path, capsys):
        chi = tmp_path / "chi.json"
        fileio.write_matrix(chi, np.eye(16), "S")
        out = tmp_path / "out.json"
        assert main(["apply", "--chi", str(chi), "--state", str(chi), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {chi}: expected a 4x4 state matrix tagged 'state'\n"
        assert not out.exists()

    # The residual of a fit to the identity overflows at this scale.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_fit_report_refused_exit_2(self, tmp_path, capsys):
        chi = tmp_path / "chi.json"
        fileio.write_matrix(chi, 1e308 * np.eye(16), "S")
        out = tmp_path / "fit.json"
        assert main(["fit", "--chi", str(chi), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {out}: not written, it would hold NaN or infinity\n"
        assert not out.exists()

    # The fit runs at one magnitude, so the top and the bottom of the float
    # range take the same steps as a unit-scale matrix.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("chi, factor", [
        *(pytest.param("identity", d, id=f"identity-{d}") for d in (1e-300, 1e-200, 1e150, 1e160,
                                                                     1e300)),
        *(pytest.param("model", 2.0**k, id=f"model-2^{k}") for k in range(511, 516)),
    ])
    def test_fit_report_is_finite_at_any_magnitude(self, tmp_path, chi, factor):
        fp = FilterParams.from_ratio(0.76, theta1=0.41 * PI, theta2=0.076 * PI, p=0.2)
        m = np.eye(16) if chi == "identity" else choi_from_kraus(kraus_pair(fp)).m
        chi_path, out = tmp_path / "chi.json", tmp_path / "fit.json"
        fileio.write_matrix(chi_path, factor * m, "S")
        assert main(["fit", "--chi", str(chi_path), "--out", str(out), "--multistart", "4"]) == 0
        report = read_json(out)
        assert all(np.isfinite(v) for v in report.values() if isinstance(v, float))
        assert report["converged"] is True
        if chi == "identity":
            # The optimum is flat: at every point of it the rank-2 model takes
            # two of the sixteen unit eigenvalues and leaves sqrt(14).
            assert report["residual"] == pytest.approx(np.sqrt(14.0) * factor, rel=1e-12)
        else:
            assert report["p"] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("command, flag, text, message", [
        ("fit", "--chi", json.dumps({"dim": 16, "basis": "S", "re": EYE}), "missing key 'im'"),
        ("fit", "--chi", json.dumps({"dim": 16, "basis": "S", "re": EYE, "im": [["a"] * 16] * 16}),
         "matrix entries are not numbers"),
        ("reconstruct", "--counts", "0,0,1.0\n", "missing or wrong header line"),
        ("reconstruct", "--counts", HEADER + "0,0\n", "malformed row '0,0'"),
        ("reconstruct", "--counts", HEADER + "0,0,x\n", "malformed row '0,0,x'"),
        ("reconstruct", "--counts", HEADER + "16,0,1\n", "index pair (16, 0) out of range"),
        ("simulate", "--params",
         json.dumps({"ratio_RT": 0.76, "theta1": 0.1, "theta1_rad": 0.1, "theta2": 0.0, "p": 0.2}),
         "duplicate keys ['theta1', 'theta1_rad']"),
        ("simulate", "--params",
         json.dumps({"ratio_RT": 0.76, "theta1": 0.0, "theta2": 0.0, "tau_fs": 100.0,
                     "tau_c_fs": 83.0}),
         "temporal form needs all of tau_fs, tau_c_fs, mu"),
    ], ids=["matrix_no_im", "matrix_not_numbers", "counts_no_header", "counts_two_fields",
            "counts_not_number", "counts_index_range", "params_duplicate_angle",
            "params_temporal_no_mu"])
    def test_malformed_input_file_names_path_exit_2(self, tmp_path, capsys, command, flag, text,
                                                    message):
        bad = tmp_path / "bad"
        bad.write_text(text)
        out = tmp_path / "out"
        out_flag = "--counts-out" if command == "simulate" else "--out"
        assert main([command, flag, str(bad), out_flag, str(out)]) == 2
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"
        assert not out.exists()

    def test_non_finite_apply_output_refused_exit_2(self, tmp_path, capsys):
        chi, rho = tmp_path / "chi.json", tmp_path / "rho.json"
        fp = FilterParams.from_ratio(0.76, p=0.2)
        fileio.write_matrix(chi, 1e300 * choi_from_kraus(kraus_pair(fp)).m, "S")
        fileio.write_matrix(rho, 1e300 * np.eye(4), fileio.STATE_TAG)
        out = tmp_path / "out.json"
        assert main(["apply", "--chi", str(chi), "--state", str(rho), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {out}: not written, it would hold NaN or infinity\n"
        )
        assert not out.exists()

    def test_io_failure_exit_3(self, tmp_path):
        params = write_params(tmp_path / "p.json")
        assert main(["simulate", "--params", str(params),
                     "--counts-out", str(tmp_path / "nodir" / "c.csv")]) == 3

    def test_nonconvergence_exit_4_with_file(self, tmp_path):
        # A Poisson record whose best start, polished to the minimum of the
        # angle profile, does not converge in two evaluations.
        params = write_params(tmp_path / "p.json")
        counts = tmp_path / "noisy.csv"
        chi_path = tmp_path / "chi.json"
        report = tmp_path / "fit.json"
        main(["simulate", "--params", str(params), "--counts-out", str(counts),
              "--noise", "poisson", "--seed", "2", "--total-scale", "10000"])
        main(["reconstruct", "--counts", str(counts), "--out", str(chi_path)])
        code = main(["fit", "--chi", str(chi_path), "--out", str(report),
                     "--max-iter", "2", "--multistart", "2"])
        assert code == 4
        result = read_json(report)
        assert result["converged"] is False
        assert "warning" in result

    def test_failed_best_start_exit_4(self, tmp_path, monkeypatch):
        fail_best_start(monkeypatch)
        params = write_params(tmp_path / "p.json")
        chi_path = tmp_path / "chi.json"
        report = tmp_path / "fit.json"
        main(["choi", "--params", str(params), "--basis", "S", "--out", str(chi_path)])
        assert main(["fit", "--chi", str(chi_path), "--out", str(report),
                     "--multistart", "4"]) == 4
        result = read_json(report)
        assert result["converged"] is False
        assert "did not converge" in result["warning"]

    @pytest.mark.parametrize("error", [OverflowError("math range error"),
                                       ZeroDivisionError("float division by zero"),
                                       FloatingPointError("overflow encountered")])
    @pytest.mark.parametrize("command, name", [("fit", "fit"),
                                               ("reconstruct", "reconstruct_process")])
    def test_arithmetic_error_exit_4_without_output(self, tmp_path, capsys, monkeypatch,
                                                    error, command, name):
        counts, chi_path = tmp_path / "counts.csv", tmp_path / "chi.json"
        assert main(["simulate", "--params", str(write_params(tmp_path / "p.json")),
                     "--counts-out", str(counts)]) == 0
        assert main(["reconstruct", "--counts", str(counts), "--out", str(chi_path)]) == 0
        capsys.readouterr()

        def fail(*args, **kwargs):
            raise error

        # cli imports both names when the command runs, so they are patched at home.
        monkeypatch.setattr(fitting if command == "fit" else tomography, name, fail)
        out = tmp_path / "out.json"
        source = ["--chi", str(chi_path)] if command == "fit" else ["--counts", str(counts)]
        assert main([command, *source, "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            f"error: numerical failure: {type(error).__name__}: {error}\n")
        assert not out.exists()

    def test_other_exception_propagates_without_output(self, tmp_path, monkeypatch):
        # Not a bad input but a bug: main re-raises it, so the process exits 1
        # with its traceback, and the package's logger keeps no handler.
        def fail(path):
            raise TypeError("a bug")

        monkeypatch.setattr(fileio, "read_params", fail)
        out = tmp_path / "counts.csv"
        handlers = list(cli.log.handlers)
        with pytest.raises(TypeError, match="a bug"):
            main(["simulate", "--params", str(write_params(tmp_path / "p.json")),
                  "--counts-out", str(out)])
        assert not out.exists()
        assert cli.log.handlers == handlers

    def test_undefined_fidelity_is_null_with_warning(self, tmp_path):
        chi_path = tmp_path / "chi.json"
        report = tmp_path / "fit.json"
        fileio.write_matrix(chi_path, -np.eye(16), "S")
        assert main(["fit", "--chi", str(chi_path), "--out", str(report),
                     "--multistart", "2"]) == 4
        result = read_json(report)
        assert result["fidelity"] is None
        assert "fidelity undefined" in result["warning"]
        assert result["converged"] is False
        assert "no positive overlap with the filter model" in result["warning"]

    def test_no_positive_overlap_is_the_fit_s_verdict(self, tmp_path, caplog):
        # The warning follows the fit's zero scale, not a comparison of the
        # residual with the matrix norm, two norms that round differently.
        chi_path, report = tmp_path / "chi.json", tmp_path / "fit.json"

        def warning(m, *flags):
            fileio.write_matrix(chi_path, m, "S")
            assert main(["fit", "--chi", str(chi_path), "--out", str(report), *flags]) == 4
            return read_json(report)["warning"]

        diagonal = -np.diag(np.arange(1, 17) * (3 / 7))
        warnings = [warning(diagonal), warning(diagonal, "--multistart", "4")]
        rng = np.random.default_rng(0)
        for _ in range(400):
            a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
            m = -(a @ a.conj().T) * 10.0 ** rng.uniform(-5, 5)
            warnings.append(warning(0.5 * (m + m.conj().T)))
        assert all("no positive overlap with the filter model" in w for w in warnings)
        assert not [w for w in warnings if "did not converge" in w]
        assert not [r for r in caplog.records if "did not converge" in r.getMessage()]

    def test_identity_channel_mismatch_warning(self, tmp_path):
        from bsqpt import KrausSet

        chi = choi_from_kraus(KrausSet([(1.0, np.eye(4, dtype=complex))]))
        chi_path = tmp_path / "chi.json"
        report = tmp_path / "fit.json"
        fileio.write_matrix(chi_path, chi.m, "S")
        code = main(["fit", "--chi", str(chi_path), "--out", str(report)])
        assert code == 0
        result = read_json(report)
        assert "warning" in result and "mismatch" in result["warning"]

    # The residual and the matrix norm scale alike, and neither squares an entry
    # on its own, so the mismatch share survives at either end of the range.
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fit_warning_does_not_depend_on_scale(self, tmp_path):
        fp = FilterParams.from_ratio(0.76, theta1=1.288053, theta2=0.238761, p=0.325)
        inputs = build_input_set()
        counts = simulate_counts(kraus_pair(fp), inputs, total_scale=1e4, noise="poisson", seed=1)
        chi = transform_process_matrix(reconstruct_process(counts, inputs), "F").m
        chi_path, report = tmp_path / "chi.json", tmp_path / "fit.json"
        warnings, ps = [], []
        for k in (-1000, 0, 1000):
            fileio.write_matrix(chi_path, 2.0**k * chi, "F")
            assert main(["fit", "--chi", str(chi_path), "--out", str(report),
                         "--multistart", "4"]) == 0
            warnings.append(read_json(report)["warning"])
            ps.append(read_json(report)["p"])
        assert warnings == ["model mismatch: residual is 14.3% of the matrix norm"] * 3
        assert ps == [ps[1]] * 3

    def test_homdip_negative_exponent_range_in_equals_form(self, tmp_path):
        params = write_params(tmp_path / "p.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        plain, exponent = tmp_path / "plain.csv", tmp_path / "exponent.csv"
        assert main(["homdip", "--params", str(params), "--tau-min", "-100",
                     "--tau-max", "100", "--steps", "5", "--out", str(plain)]) == 0
        assert main(["homdip", "--params", str(params), "--tau-min=-1e2",
                     "--tau-max=1e2", "--steps", "5", "--out", str(exponent)]) == 0
        assert exponent.read_bytes() == plain.read_bytes()

    @pytest.mark.parametrize("value", ["-1e2", "-1E+2", "-.1e3", "-1_00", "-100.0"])
    def test_homdip_negative_value_after_a_space(self, tmp_path, value):
        # A negative value in any float form is a value after a space, not an
        # option, and gives the bytes of the = form.
        params = write_params(tmp_path / "p.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        space, equals = tmp_path / "space.csv", tmp_path / "equals.csv"
        assert main(["homdip", "--params", str(params), "--tau-min", value,
                     "--tau-max", "400", "--steps", "5", "--out", str(space)]) == 0
        assert main(["homdip", "--params", str(params), "--tau-min=-1e2",
                     "--tau-max=400", "--steps=5", "--out", str(equals)]) == 0
        assert space.read_bytes() == equals.read_bytes()

    @pytest.mark.parametrize("value", ["-1e2", "-1e-300", "-inf", "-nan"])
    def test_negative_total_scale_after_a_space_is_refused(self, tmp_path, capsys, value):
        # Read as a value after a space, and refused by the same check as the = form.
        params = write_params(tmp_path / "p.json")
        out = tmp_path / "counts.csv"
        for flags in (["--total-scale", value], [f"--total-scale={value}"]):
            assert main(["simulate", "--params", str(params), "--counts-out", str(out),
                         *flags]) == 2
            err = capsys.readouterr().err
            assert f"error: total_scale must be finite and positive, got {float(value)!r}" in err
            assert not out.exists()

    def test_fit_has_no_seed_flag(self, tmp_path, capsys):
        # The fit draws nothing at random, so it takes no seed.
        chi, report = tmp_path / "chi.json", tmp_path / "fit.json"
        fileio.write_matrix(chi, np.eye(16), "S")
        with pytest.raises(SystemExit) as exc:
            main(["fit", "--chi", str(chi), "--out", str(report), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not report.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_homdip_tiny_transmission_without_reflection(self, tmp_path):
        # The visibility's T^2 + R^2 would underflow to zero unscaled.
        params = tmp_path / "p.json"
        write_json({"T": 1e-200, "R": 0.0, "theta1": 0.1, "theta2": 0.2, "tau_fs": 10.0,
                    "tau_c_fs": 80.0, "mu": 0.9}, params)
        out = tmp_path / "dip.csv"
        assert main(["homdip", "--params", str(params), "--tau-min", "-100",
                     "--tau-max", "100", "--steps", "5", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[0] == "# visibility = 0.0"

    def test_bad_dip_range_exit_2(self, tmp_path):
        params = write_params(tmp_path / "p.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        assert main(["homdip", "--params", str(params), "--tau-min", "100",
                     "--tau-max", "-100", "--steps", "5",
                     "--out", str(tmp_path / "d.csv")]) == 2
        assert main(["homdip", "--params", str(params), "--tau-min", "-100",
                     "--tau-max", "100", "--steps", "1",
                     "--out", str(tmp_path / "d.csv")]) == 2

    @pytest.mark.parametrize("steps", ["1000001", "1000000000000"])
    def test_too_many_dip_steps_exit_2_before_the_grid(self, tmp_path, capsys, monkeypatch, steps):
        # Refused above the cap, before the grid is allocated.
        params = write_params(tmp_path / "p.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        out = tmp_path / "d.csv"
        monkeypatch.setattr(np, "linspace", None)
        assert main(["homdip", "--params", str(params), "--tau-min", "-100",
                     "--tau-max", "100", f"--steps={steps}", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == ("derived p=0.14 from tau=0 fs, tau_c=83 fs, mu=0.72\n"
                       f"{DERIVED_RT}\n"
                       f"error: --steps must be between 2 and 1000000, got {steps}\n")
        assert not out.exists()

    @pytest.mark.parametrize("tau_min, tau_max", [("-100", "inf"), ("-inf", "100"),
                                                  ("nan", "100"), ("-1e308", "1e308")])
    def test_non_finite_dip_range_exit_2(self, tmp_path, capsys, tau_min, tau_max):
        params = write_params(tmp_path / "p.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        out = tmp_path / "d.csv"
        assert main(["homdip", "--params", str(params), f"--tau-min={tau_min}",
                     f"--tau-max={tau_max}", "--steps", "5", "--out", str(out)]) == 2
        assert "need finite tau_min < tau_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_far_dip_range_saturates(self, tmp_path):
        params = write_params(tmp_path / "p.json", p=None, tau_fs=0.0,
                              tau_c_fs=83.0, mu=0.72)
        out = tmp_path / "d.csv"
        assert main(["homdip", "--params", str(params), "--tau-min", "1e200",
                     "--tau-max", "2e200", "--steps", "5", "--out", str(out)]) == 0
        rows = np.loadtxt(out, delimiter=",", skiprows=2)
        assert rows.shape == (5, 2) and np.all(np.isfinite(rows))
        # The HH closed form scale * (T^2 + R^2 - 2 T R mu exp(-tau^2/(2 tau_c^2))) at exp = 0.
        fp, _ = fileio.read_params(params)
        assert_allclose(rows[:, 1], fp.T**2 + fp.R**2, rtol=1e-14)

    def test_homdip_needs_temporal_form_exit_2(self, tmp_path):
        params = write_params(tmp_path / "p.json")
        assert main(["homdip", "--params", str(params), "--tau-min", "-100",
                     "--tau-max", "100", "--steps", "5",
                     "--out", str(tmp_path / "d.csv")]) == 2


# What the bsqpt script runs, and what python -m bsqpt.cli runs.
ENTRY_POINT = "from bsqpt.cli import entry_point\nentry_point()\n"
RUN_MODULE = "import runpy\nrunpy.run_module('bsqpt.cli', run_name='__main__', alter_sys=True)\n"


class TestConsoleInvocation:
    def test_module_entry_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "bsqpt.cli", "--help"],
            capture_output=True,
            text=True,
            env={**os.environ},
        )
        assert proc.returncode == 0
        assert "simulate" in proc.stdout

    def test_import_leaves_scipy_unloaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, bsqpt.cli; print('scipy' in sys.modules)"],
            capture_output=True,
            text=True,
            env={**os.environ},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_fit_leaves_scipy_unloaded(self, tmp_path):
        params = write_params(tmp_path / "p.json")
        chi, report = tmp_path / "chi.json", tmp_path / "fit.json"
        code = (
            "import sys\n"
            "from bsqpt import FitConfig, fitting\n"
            "from bsqpt.cli import main\n"
            "from bsqpt.fileio import read_process_matrix\n"
            f"assert main(['choi', '--params', {str(params)!r}, '--out', {str(chi)!r}]) == 0\n"
            f"assert main(['fit', '--chi', {str(chi)!r}, '--out', {str(report)!r},"
            " '--multistart', '4']) == 0\n"
            f"assert fitting.fit(read_process_matrix({str(chi)!r}),"
            " FitConfig(multistart=4)).converged\n"
            "print('scipy' in sys.modules)\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ})
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    @pytest.mark.parametrize("m", [-np.eye(16), np.zeros((16, 16))],
                             ids=["minus-identity", "zeros"])
    def test_fit_without_overlap_writes_no_runtime_warning(self, tmp_path, m):
        # Every start stops at once on these matrices, with no scale to profile.
        chi, report = tmp_path / "chi.json", tmp_path / "fit.json"
        fileio.write_matrix(chi, m, "S")
        proc = subprocess.run(
            [sys.executable, "-m", "bsqpt.cli", "fit", "--chi", str(chi), "--out", str(report)],
            capture_output=True, text=True, env={**os.environ},
        )
        assert proc.returncode == 4, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert read_json(report)["converged"] is False

    @staticmethod
    def run_entry_point(argv, prelude="", run=ENTRY_POINT):
        """Run ``entry_point`` on ``argv`` in a fresh interpreter with an atexit handler.

        ``prelude`` runs first. The handler writes ``atexit ran`` to stderr,
        which only an ordinary interpreter exit shows. Stdio is buffered, as
        by default, so a missing flush shows too.
        """
        code = ("import atexit, io, sys\n" + prelude +
                "atexit.register(print, 'atexit ran', file=sys.stderr)\n" + run)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        return subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                              text=True, env=env)

    @pytest.mark.parametrize("run", [ENTRY_POINT, RUN_MODULE], ids=["entry_point", "module"])
    @pytest.mark.parametrize("case", ["transform", "negative-seed", "missing-params",
                                      "no-overlap"])
    def test_returned_code_ends_the_process_with_its_one_line(self, tmp_path, case, run):
        # The code main returns arrives intact, stderr holds at most its one
        # complete line, the atexit handler does not run, and what stdout and
        # stderr still buffered (a pipe here; transform logs nothing) is flushed.
        missing, chi, out = tmp_path / "missing.json", tmp_path / "chi.json", tmp_path / "out"
        fileio.write_matrix(chi, np.zeros((16, 16)), "S")
        argv, code, line = {
            "transform": (["transform", "--chi", chi, "--to", "F", "--out", out], 0, ""),
            "negative-seed": (["simulate", "--params", missing, "--counts-out", out, "--seed",
                               "-1"], 2, "error: seed (--seed) must be a non-negative integer,"
                                         " got -1\n"),
            "missing-params": (["simulate", "--params", missing, "--counts-out", out], 3,
                               f"io error: [Errno 2] No such file or directory: '{missing}'\n"),
            "no-overlap": (["fit", "--chi", chi, "--out", out], 4,
                           "fit found no positive overlap with the filter model\n"),
        }[case]
        prelude = "sys.stdout.write('out')\nsys.stderr.write('err')\n"
        proc = self.run_entry_point([str(a) for a in argv], prelude, run)
        assert (proc.returncode, proc.stderr, proc.stdout) == (code, "err" + line, "out")

    @pytest.mark.parametrize("argv, prelude, code, tail", [
        (["--help"], "", 0, "atexit ran\n"),
        (["simulate"], "", 2, "the following arguments are required: --params, --counts-out\n"
                              "atexit ran\n"),
        (["simulate", "--params", "p.json", "--counts-out", "c.csv"],
         "import bsqpt.fileio\n"
         "def fail(path):\n"
         "    raise TypeError('a bug')\n"
         "bsqpt.fileio.read_params = fail\n", 1, "TypeError: a bug\natexit ran\n"),
    ], ids=["help", "usage-error", "exception"])
    def test_help_usage_error_and_exception_end_the_ordinary_way(self, argv, prelude, code,
                                                                 tail):
        proc = self.run_entry_point(argv, prelude)
        assert proc.returncode == code
        assert proc.stderr.endswith(tail)

    def test_closed_stdout_is_not_flushed(self, tmp_path):
        missing = tmp_path / "missing.json"
        proc = self.run_entry_point(["simulate", "--params", str(missing), "--counts-out",
                                     str(tmp_path / "c.csv")], "sys.stdout = None\n")
        assert (proc.returncode, proc.stderr) == (
            3, f"io error: [Errno 2] No such file or directory: '{missing}'\n")

    def test_failed_flush_ends_the_ordinary_way(self, tmp_path):
        # Python reports the flush that fails again at teardown and exits 120.
        missing = tmp_path / "missing.json"
        proc = self.run_entry_point(
            ["simulate", "--params", str(missing), "--counts-out", str(tmp_path / "c.csv")],
            "class Stream(io.StringIO):\n"
            "    def flush(self):\n"
            "        raise OSError('flush failed')\n"
            "sys.stdout = Stream()\n",
        )
        assert proc.returncode == 120
        assert proc.stderr.startswith(
            f"io error: [Errno 2] No such file or directory: '{missing}'\natexit ran\n")
        assert "OSError: flush failed" in proc.stderr
