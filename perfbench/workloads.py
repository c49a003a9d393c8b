"""The benchmark's three workloads.

A workload builds everything it needs at construction (that is the set-up
the benchmark times), generates its inputs from the workload seed, runs one
item at a time in ``run`` (the timed part) and checks each output against
the oracle in ``check`` (not timed). All calls into ``bsqpt`` go through
module attributes, so a test can substitute a faulty layer and watch the
oracle catch it.

* ``paper_fit``: the paper's analysis as in acceptance criterion 6. The
  fitting layer does almost all the work.
* ``tomo_batch``: simulate, reconstruct, PSD-repair and re-express many
  channels; no fitting. The tomography layer does almost all the work.
* ``cli_session``: the README pipeline as separate ``bsqpt`` processes.
  Interpreter start-up, imports and file I/O do most of the work.
"""

from __future__ import annotations

import csv
import itertools
import json
import logging
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from bsqpt import bases, bsfilter, channel, cli, fileio, fitting, linalg, tomography
from oracle import (
    CheckFailed,
    Oracle,
    apply_kraus,
    chi_from_kraus,
    decoherence,
    expect_close,
    filter_kraus,
    project_psd,
)
from spans import NULL

REF_RATIO = 0.76
REF_THETA1 = 0.41 * math.pi
REF_THETA2 = 0.076 * math.pi
REF_P = (0.14, 0.325, 0.5)
DELAYS_FS = (0.0, 100.0, 350.0)
TAU_C_FS = 83.0
MU = 0.72
TOTAL_SCALE = 1e4
SUBPROCESS_TIMEOUT_S = 120


def item_seed(seed: int, k: int) -> int:
    """A reproducible 31-bit seed for item ``k`` of the workload seeded with ``seed``."""
    return int(np.random.default_rng([seed, k]).integers(2**31))


@dataclass(frozen=True)
class FitOutcome:
    p_true: float
    p_fit: float
    evaluations: int
    converged: bool


class Workload:
    """Set-up, deterministic inputs, one timed item, and its oracle check."""

    name = ""
    boundary = 1  # items in a round; the timed loop stops only after whole rounds
    min_items = 1  # ...and never before this many items
    tail_pct = 50  # highest percentile expected to keep ten items beyond it
    trace_items = 1  # items in the traced run
    rss_of = resource.RUSAGE_SELF  # the process whose peak memory is peak_rss_mb

    def __init__(self, seed: int, root: str) -> None:
        self.seed = seed
        self.inputs = tomography.build_input_set()
        for kind in bases.BASIS_KINDS:
            bases.build_basis(kind)
        self.oracle = Oracle()

    def items(self):
        raise NotImplementedError

    def run(self, inp, tr):
        raise NotImplementedError

    def check(self, inp, out, tr, fits: list[FitOutcome]) -> None:
        """Raise ``CheckFailed`` unless ``out`` is right; append any fit outcome to ``fits``."""
        raise NotImplementedError

    def check_all(self, fits: list[FitOutcome]) -> None:
        """Checks over a whole run, after every item passed its own."""

    def warm_up(self) -> None:
        """Run the first item once, unchecked, so lazy set-up is done before timing."""
        self.run(next(iter(self.items())), NULL)

    def probe_layers(self, tr) -> dict[str, float]:
        """Layer measurements that are not per item; traced run only."""
        return {}

    def close(self) -> None:
        pass


def _reference_filter(p: float) -> bsfilter.FilterParams:
    return bsfilter.FilterParams.from_ratio(REF_RATIO, theta1=REF_THETA1, theta2=REF_THETA2, p=p)


class PaperFit(Workload):
    """One Poisson record at 1e4 counts -> reconstruction -> F basis -> 4-start fit."""

    name = "paper_fit"
    boundary = 15  # five records per reference p
    min_items = 30  # ten records per p, as in criterion 6
    tail_pct = 80
    trace_items = 30

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        self.channels = [bsfilter.kraus_pair(_reference_filter(p)) for p in REF_P]

    def items(self):
        for k in itertools.count():
            yield k % len(REF_P), item_seed(self.seed, k)

    def run(self, inp, tr):
        j, s = inp
        with tr.span("tomography.simulate_counts"):
            ct = tomography.simulate_counts(
                self.channels[j], self.inputs, total_scale=TOTAL_SCALE, noise="poisson", seed=s
            )
        with tr.span("tomography.reconstruct_process"):
            chi = tomography.reconstruct_process(ct, self.inputs)
        with tr.span("channel.transform_process_matrix"):
            chi_f = channel.transform_process_matrix(chi, "F")
        cfg = fitting.FitConfig(multistart=4, max_iterations=500, convergence_tol=1e-9, seed=s)
        with tr.span("fitting.fit"):
            res = fitting.fit(chi_f, cfg)
        return ct, chi, chi_f, res

    def check(self, inp, out, tr, fits):
        ct, chi, chi_f, res = out
        want = self.oracle.reconstruct(ct.counts)
        expect_close("reconstruct_process", chi.m, want)
        expect_close("transform_process_matrix to F", chi_f.m, self.oracle.to_f(want))
        fp = res.params
        fits.append(FitOutcome(REF_P[inp[0]], fp.p, res.n_evaluations, res.converged))
        if not res.converged:
            raise CheckFailed("fit did not converge")
        if not all(math.isfinite(v) for v in (fp.p, fp.T, fp.R, fp.theta1, fp.theta2, fp.scale)):
            raise CheckFailed("fit returned non-finite parameters")

    def check_all(self, fits):
        means = []
        for p in REF_P:
            got = [f.p_fit for f in fits if f.p_true == p]
            mean = sum(got) / len(got)
            if abs(mean - p) / p >= 0.05:
                raise CheckFailed(f"mean fitted p {mean:.4f} not within 5% of {p}")
            means.append(mean)
        if not means[0] < means[1] < means[2]:
            raise CheckFailed(f"mean fitted p {means} does not increase with p")


def _random_kraus(rng: np.random.Generator) -> channel.KrausSet:
    """A CP trace-nonincreasing channel of rank 1-4 from Ginibre operators."""
    ops = [rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)) for _ in range(rng.integers(1, 5))]
    top = float(np.linalg.eigvalsh(sum(k.conj().T @ k for k in ops))[-1])
    norm = math.sqrt(1.01 * top)
    return channel.KrausSet([(1.0, k / norm) for k in ops], physical=True)


def _random_filter(rng: np.random.Generator) -> bsfilter.FilterParams:
    return bsfilter.FilterParams.from_ratio(
        math.exp(rng.uniform(math.log(0.25), math.log(4.0))),
        theta1=rng.uniform(-math.pi, math.pi),
        theta2=rng.uniform(-math.pi, math.pi),
        p=rng.uniform(0.0, 0.5),
    )


class TomoBatch(Workload):
    """Simulate -> reconstruct -> (Poisson: PSD repair) -> F basis, many channels.

    Every eight items hold four noiseless and four Poisson records; four
    random Kraus channels and four filter channels; and two bootstrap
    resamples (new seeds) of each of two channels shared by the whole run.
    """

    name = "tomo_batch"
    boundary = 25 * 8  # 25 times the eight-item mix
    min_items = boundary
    tail_pct = 90  # items are alike, so a higher percentile measures only outside noise
    trace_items = 400
    SLOTS = (
        ("kraus", None), ("filter", None), ("kraus", None), ("filter", None),
        ("kraus", "poisson"), ("filter", "poisson"),
        ("shared_kraus", "poisson"), ("shared_filter", "poisson"),
    )

    def items(self):
        rng = np.random.default_rng([self.seed, 0])
        shared = {"shared_kraus": _random_kraus(rng), "shared_filter": _random_filter(rng)}
        make = {"kraus": _random_kraus, "filter": _random_filter}
        for k in itertools.count():
            kind, noise = self.SLOTS[k % len(self.SLOTS)]
            source = shared[kind] if kind in shared else make[kind](rng)
            yield source, noise, item_seed(self.seed, k)

    def run(self, inp, tr):
        source, noise, s = inp
        ks = source
        if isinstance(source, bsfilter.FilterParams):
            with tr.span("bsfilter.kraus_pair"):
                ks = bsfilter.kraus_pair(source)
        with tr.span("tomography.simulate_counts"):
            ct = tomography.simulate_counts(
                ks, self.inputs, total_scale=TOTAL_SCALE, noise=noise, seed=s
            )
        with tr.span("tomography.reconstruct_process"):
            raw = tomography.reconstruct_process(ct, self.inputs)
        chi = raw
        if noise is not None:
            with tr.span("linalg.project_to_psd"):
                psd = linalg.project_to_psd(raw.m)
            with tr.span("channel.ProcessMatrix"):
                chi = channel.ProcessMatrix("S", psd)
        with tr.span("channel.transform_process_matrix"):
            chi_f = channel.transform_process_matrix(chi, "F")
        return ks, ct, raw, chi_f

    def check(self, inp, out, tr, fits):
        ks, ct, raw, chi_f = out
        want = self.oracle.reconstruct(ct.counts)
        expect_close("reconstruct_process", raw.m, want)
        if inp[1] is None:
            expect_close(
                "simulate_counts", ct.counts, self.oracle.counts(chi_from_kraus(ks.items), TOTAL_SCALE)
            )
            with tr.span("channel.choi_from_kraus"):
                truth = channel.choi_from_kraus(ks).m
            expect_close("reconstruct_process vs choi_from_kraus", raw.m, TOTAL_SCALE * truth)
        else:
            want = project_psd(want)
        expect_close("transform_process_matrix to F", chi_f.m, self.oracle.to_f(want))


COMMANDS = (
    "simulate", "simulate_poisson", "reconstruct", "reconstruct_psd", "fit",
    "homdip", "transform", "choi", "apply",
)
HOMDIP_STEPS = 401
HOMDIP_RANGE_FS = (-400.0, 400.0)


@dataclass(frozen=True)
class Session:
    """One pass of the README pipeline at one delay, in directory ``d``."""

    d: str
    tau_fs: float
    noise_seed: int
    rho: np.ndarray

    @property
    def p_true(self) -> float:
        return decoherence(self.tau_fs, TAU_C_FS, MU)

    @property
    def kraus(self):
        return filter_kraus(REF_RATIO, REF_THETA1, REF_THETA2, self.p_true)

    def path(self, name: str) -> str:
        return os.path.join(self.d, name)

    def write_inputs(self) -> None:
        params = {"ratio_RT": REF_RATIO, "theta1": REF_THETA1, "theta2": REF_THETA2,
                  "tau_fs": self.tau_fs, "tau_c_fs": TAU_C_FS, "mu": MU}
        with open(self.path("params.json"), "w", encoding="utf-8") as fh:
            json.dump(params, fh)
        state = {"dim": 4, "basis": "state",
                 "re": self.rho.real.tolist(), "im": self.rho.imag.tolist()}
        with open(self.path("rho.json"), "w", encoding="utf-8") as fh:
            json.dump(state, fh)

    def argv(self, command: str) -> list[str]:
        f = self.path
        lo, hi = HOMDIP_RANGE_FS
        return {
            "simulate": ["simulate", "--params", f("params.json"), "--counts-out", f("counts.csv")],
            "simulate_poisson": ["simulate", "--params", f("params.json"), "--counts-out",
                                 f("noisy.csv"), "--noise", "poisson", "--seed",
                                 str(self.noise_seed), "--total-scale", str(TOTAL_SCALE)],
            "reconstruct": ["reconstruct", "--counts", f("counts.csv"), "--basis", "F",
                            "--out", f("chi_f.json")],
            "reconstruct_psd": ["reconstruct", "--counts", f("noisy.csv"), "--psd-project",
                                "--out", f("chi_psd.json")],
            "fit": ["fit", "--chi", f("chi_f.json"), "--out", f("fit.json")],
            "homdip": ["homdip", "--params", f("params.json"), "--tau-min", str(lo),
                       "--tau-max", str(hi), "--steps", str(HOMDIP_STEPS), "--out", f("dip.csv")],
            "transform": ["transform", "--chi", f("chi_f.json"), "--to", "S",
                          "--out", f("chi_s.json")],
            "choi": ["choi", "--params", f("params.json"), "--basis", "F",
                     "--out", f("model.json")],
            "apply": ["apply", "--chi", f("chi_s.json"), "--state", f("rho.json"),
                      "--out", f("out.json")],
        }[command]

    def output(self, command: str) -> str:
        argv = self.argv(command)
        flag = "--counts-out" if "--counts-out" in argv else "--out"
        return argv[argv.index(flag) + 1]


def _read_counts_csv(path: str) -> tuple[np.ndarray, dict[str, str]]:
    counts = np.full((16, 16), np.nan)
    header = {}
    with open(path, encoding="utf-8") as fh:
        rows = [line for line in fh.read().splitlines() if line.strip()]
    for line in rows:
        if line.startswith("#"):
            key, _, value = line[1:].partition("=")
            header[key.strip()] = value.strip()
    body = [r for r in rows if not r.startswith("#")]
    for i, j, c in csv.reader(body[1:]):
        counts[int(i), int(j)] = float(c)
    if body[0] != "input_index,projector_index,count" or np.isnan(counts).any():
        raise CheckFailed(f"{path}: count table is incomplete or has the wrong header")
    return counts, header


def _read_matrix_json(path: str, basis: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["basis"] != basis:
        raise CheckFailed(f"{path}: basis {payload['basis']!r}, expected {basis!r}")
    return np.array(payload["re"]) + 1j * np.array(payload["im"])


class CliSession(Workload):
    """The README pipeline, one ``bsqpt`` subprocess per command; one item is one command.

    Sessions cycle through the three reference delays, with a fresh
    Poisson seed and input state each time; ``fit`` runs with its defaults.
    """

    name = "cli_session"
    boundary = len(COMMANDS)  # whole sessions
    min_items = 3 * len(COMMANDS)  # one session per delay
    tail_pct = 60  # about 30 items: the tail falls among the non-fit commands, near the median
    trace_items = len(COMMANDS)
    rss_of = resource.RUSAGE_CHILDREN  # the largest bsqpt command, not this driver

    def __init__(self, seed: int, root: str) -> None:
        super().__init__(seed, root)
        scratch = os.path.join(root, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.dir = tempfile.mkdtemp(prefix="cli_session-", dir=scratch)
        src = os.path.join(root, "src")
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
        )

    def warm_up(self) -> None:
        pass  # a user pays the cold start of every command, so nothing is warmed

    def session(self, s: int, d: str | None = None) -> Session:
        rng = np.random.default_rng([self.seed, s])
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = m @ m.conj().T
        return Session(d or self.dir, DELAYS_FS[s % len(DELAYS_FS)], item_seed(self.seed, s),
                       rho / np.trace(rho).real)

    def items(self):
        for s in itertools.count():
            session = self.session(s)
            session.write_inputs()
            for command in COMMANDS:
                yield session, command

    def bsqpt(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "bsqpt.cli", *argv], env=self.env, capture_output=True,
            text=True, timeout=SUBPROCESS_TIMEOUT_S, check=False,
        )

    def run(self, inp, tr):
        session, command = inp
        with tr.span(f"cli.{command}.cold"):
            return self.bsqpt(session.argv(command))

    def check(self, inp, out, tr, fits):
        session, command = inp
        if out.returncode != 0:
            raise CheckFailed(f"bsqpt {command} exited {out.returncode}: {out.stderr.strip()[-300:]}")
        o = self.oracle
        f = session.path
        chi_true = chi_from_kraus(session.kraus)
        if command == "simulate":
            counts, _ = _read_counts_csv(f("counts.csv"))
            expect_close("simulate", counts, o.counts(chi_true, 1.0))
        elif command == "simulate_poisson":
            counts, header = _read_counts_csv(f("noisy.csv"))
            mean = o.counts(chi_true, TOTAL_SCALE).sum()
            if np.any(counts != np.round(counts)) or np.any(counts < 0):
                raise CheckFailed("Poisson counts are not nonnegative integers")
            if header.get("noise_seed") != str(session.noise_seed):
                raise CheckFailed("count file does not record the noise seed")
            if abs(counts.sum() - mean) > 6.0 * math.sqrt(mean):
                raise CheckFailed(f"Poisson total {counts.sum()} is off its mean {mean:.1f}")
        elif command == "reconstruct":
            expect_close("reconstruct --basis F", _read_matrix_json(f("chi_f.json"), "F"),
                         o.to_f(chi_true))
        elif command == "reconstruct_psd":
            counts, _ = _read_counts_csv(f("noisy.csv"))
            expect_close("reconstruct --psd-project", _read_matrix_json(f("chi_psd.json"), "S"),
                         project_psd(o.reconstruct(counts)))
        elif command == "fit":
            with open(f("fit.json"), encoding="utf-8") as fh:
                report = json.load(fh)
            fits.append(FitOutcome(session.p_true, report["p"], report["n_evaluations"],
                                   report["converged"]))
            if not report["converged"] or abs(report["p"] - session.p_true) >= 1e-3:
                raise CheckFailed(f"fit p={report['p']} vs true {session.p_true}")
        elif command == "homdip":
            self._check_dip(session)
        elif command == "transform":
            expect_close("transform --to S", _read_matrix_json(f("chi_s.json"), "S"), chi_true)
        elif command == "choi":
            expect_close("choi --basis F", _read_matrix_json(f("model.json"), "F"),
                         o.to_f(chi_true))
        elif command == "apply":
            expect_close("apply", _read_matrix_json(f("out.json"), "state"),
                         apply_kraus(session.kraus, session.rho))

    def _check_dip(self, session: Session) -> None:
        with open(session.path("dip.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        t, r = 1.0 / (1.0 + REF_RATIO), REF_RATIO / (1.0 + REF_RATIO)
        vis = float(lines[0].partition("=")[2])
        if abs(vis - 2 * t * r * MU / (t * t + r * r)) > 1e-12:
            raise CheckFailed(f"dip visibility {vis} is off the closed form")
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[2:]])
        grid = np.linspace(*HOMDIP_RANGE_FS, HOMDIP_STEPS)
        hh = np.zeros((4, 4), dtype=complex)
        hh[0, 0] = 1.0
        want = [np.trace(apply_kraus(
            filter_kraus(REF_RATIO, REF_THETA1, REF_THETA2, decoherence(tau, TAU_C_FS, MU)), hh
        )).real for tau in grid]
        if rows.shape != (HOMDIP_STEPS, 2) or np.any(rows[:, 0] != grid):
            raise CheckFailed("dip curve has the wrong delay grid")
        expect_close("homdip rates", rows[:, 1], np.array(want))

    def probe_layers(self, tr) -> dict[str, float]:
        """Start-up cost, in-process (warm) command times, file I/O and ``hom_dip``."""
        out = {
            "cli.interpreter_ms": 1e3 * median(self._child_seconds("pass") for _ in range(3)),
            "cli.import_ms": 1e3 * median(self._child_seconds(
                "import time; t = time.perf_counter(); import bsqpt.cli; "
                "print(time.perf_counter() - t)", inner=True) for _ in range(3)),
        }
        # The same session in-process through cli.main: the gap to the cold
        # time is interpreter start-up and imports. Outputs must match byte for byte.
        cold = self.session(0)
        warm = self.session(0, tempfile.mkdtemp(prefix="warm-", dir=self.dir))
        warm.write_inputs()
        root_logger = logging.getLogger()
        quiet = logging.NullHandler()
        root_logger.addHandler(quiet)  # keeps cli.main's basicConfig from logging to stderr
        try:
            for command in COMMANDS:
                with tr.span(f"cli.{command}.warm"):
                    code = cli.main(warm.argv(command))
                if code != 0:
                    raise CheckFailed(f"in-process bsqpt {command} exited {code}")
                with open(cold.output(command), "rb") as fa, open(warm.output(command), "rb") as fb:
                    if fa.read() != fb.read():
                        raise CheckFailed(f"{command}: in-process output differs from cold")
        finally:
            root_logger.removeHandler(quiet)

        out.update(self._probe_fileio(cold, tr))
        fp = _reference_filter(cold.p_true)
        grid = np.linspace(*HOMDIP_RANGE_FS, HOMDIP_STEPS)
        for _ in range(3):
            with tr.span("bsfilter.hom_dip"):
                bsfilter.hom_dip(fp, grid, TAU_C_FS, MU)
        return out

    def _child_seconds(self, code: str, inner: bool = False) -> float:
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S, check=True)
        return float(proc.stdout) if inner else time.perf_counter() - t0

    def _probe_fileio(self, session: Session, tr) -> dict[str, float]:
        """Parse every file of a session with ``fileio`` and write it back out.

        Returns the bytes each direction moved, from the file sizes.
        """
        io_dir = tempfile.mkdtemp(prefix="io-", dir=self.dir)
        f = session.path
        size = {"fileio.read.bytes": 0, "fileio.write.bytes": 0}

        def read(reader, path):
            with tr.span("fileio.read"):
                value = reader(path)
            size["fileio.read.bytes"] += os.path.getsize(path)
            return value

        def write(writer, name, *args):
            target = os.path.join(io_dir, name)
            with tr.span("fileio.write"):
                writer(target, *args)
            size["fileio.write.bytes"] += os.path.getsize(target)

        read(fileio.read_params, f("params.json"))
        for name in ("counts.csv", "noisy.csv"):
            write(fileio.write_counts, name, read(fileio.read_counts, f(name)))
        for name in ("chi_f.json", "chi_psd.json", "chi_s.json", "model.json", "out.json",
                     "rho.json"):
            basis, m = read(fileio.read_matrix, f(name))
            write(fileio.write_matrix, name, m, basis)
        with open(f("fit.json"), encoding="utf-8") as fh:
            write(fileio.write_fit_report, "fit.json", json.load(fh))
        return size

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.dir))
        except OSError:
            pass  # another run still uses it


WORKLOADS = {w.name: w for w in (PaperFit, TomoBatch, CliSession)}
