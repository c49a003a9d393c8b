"""Self-tests of the benchmark: exact repeats, oracle sensitivity, speed scaling, seeding,
output contract."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from itertools import islice
from unittest import mock

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import bsqpt.tomography  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import COMMANDS, WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def traced_metrics(name: str, seed: int, n_items: int) -> dict[str, float]:
    wl = WORKLOADS[name](seed, ROOT)
    wl.trace_items = n_items
    try:
        tracer = Tracer()
        plain, traced, fits, probes, errors = run.traced_run(wl, tracer)
    finally:
        wl.close()
    # Too few records for the whole-run mean-p check; every item must still pass.
    assert not [e for e in errors if not e.startswith("run:")], errors
    return run.layer_metrics(tracer, plain, traced, fits, probes, COMMANDS)


@pytest.mark.parametrize("name,n_items", [("paper_fit", 3), ("tomo_batch", 16)])
def test_same_seed_repeats_exact_counts(name, n_items):
    a = traced_metrics(name, 7, n_items)
    b = traced_metrics(name, 7, n_items)
    exact = [k for k in a if k.endswith((".calls", ".bytes"))]
    exact += ["fitting.evaluations", "fitting.converged_frac", "fitting.p_rmse", "trace.items"]
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    assert a["tomography.reconstruct_process.calls"] == n_items
    if name == "paper_fit":
        assert a["fitting.evaluations"] > 0 and a["fitting.p_rmse"] > 0
    assert set(a) == {m["name"] for m in SPEC["per_layer"]}


def test_perturbed_reconstruction_fails_the_run(capsys):
    real = bsqpt.tomography.reconstruct_process

    def wrong(ct, inputs):
        chi = real(ct, inputs)
        chi.m[3, 3] += 1e-6 * np.abs(chi.m).max()  # one real diagonal entry: still Hermitian
        return chi

    with mock.patch.object(bsqpt.tomography, "reconstruct_process", wrong):
        code = run.main(["--workload", "tomo_batch", "--seed", "3", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == WORKLOADS["tomo_batch"].min_items


def test_item_times_are_scaled_by_the_gauge():
    wl = WORKLOADS["tomo_batch"](2, ROOT)
    try:
        # A machine at half the reference speed: every reading takes twice as long.
        with mock.patch.object(run.Gauge, "reading", return_value=2 * speed.REF_KERNEL_S):
            times, scaled, errors = run.timed_run(wl, 0)
    finally:
        wl.close()
    assert not errors
    assert len(times) == len(scaled) == wl.min_items
    assert scaled == pytest.approx([t / 2 for t in times])


def test_seed_changes_inputs():
    def paper_fit(seed):
        return [s for _, s in islice(WORKLOADS["paper_fit"].items(_bare("paper_fit", seed)), 6)]

    def tomo_batch(seed):
        return [src.items[0][1] if hasattr(src, "items") else src.theta1
                for src, _, _ in islice(WORKLOADS["tomo_batch"].items(_bare("tomo_batch", seed)), 8)]

    def cli_session(seed):
        s = WORKLOADS["cli_session"].session(_bare("cli_session", seed), 0, d=".")
        return [s.noise_seed, s.rho]

    for inputs in (paper_fit, tomo_batch, cli_session):
        same = [np.array_equal(x, y) for x, y in zip(inputs(1), inputs(1))]
        other = [np.array_equal(x, y) for x, y in zip(inputs(1), inputs(2))]
        assert all(same) and not any(other), inputs.__name__


def _bare(name: str, seed: int):
    """A workload object with only its seed set, enough to generate inputs."""
    wl = object.__new__(WORKLOADS[name])
    wl.seed = seed
    return wl


def test_result_line_matches_benchmark_json():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "tomo_batch", "--seed", "5",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tomo_batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
