"""Command-line front end for the filter tomography pipeline.

Exit codes: 0 success, 2 input validation failure or a non-finite output,
3 I/O failure, 4 numerical non-convergence or, for ``fit``, no positive
overlap with the filter model (the output file is still written), or an
arithmetic error (``ArithmeticError``: overflow, division by zero or a
floating-point error) in any command, which prints one ``error:`` line and
no traceback and writes no output file. Any other exception is a bug in
bsqpt, not a bad input: :func:`main` lets it propagate, so the command
exits 1 with its traceback. Every command is deterministic given its flags.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import math
import re
import sys

import numpy as np

from . import fileio
from .bases import BASIS_KINDS
from .bsfilter import hom_dip, hom_visibility, kraus_pair
from .channel import ProcessMatrix, apply_process_matrix, transform_process_matrix
from .fileio import FileFormatError
from .fitting import FitConfig, fit, model_chi, model_fidelity
from .linalg import project_to_psd
from .tomography import build_input_set, reconstruct_process, simulate_counts

log = logging.getLogger("bsqpt")
MAX_STEPS = 10**6  # about 170 B of memory a step; checked before the grid is allocated


def _cmd_simulate(args: argparse.Namespace) -> int:
    if args.seed < 0:
        raise ValueError(f"seed (--seed) must be a non-negative integer, got {args.seed}")
    fp, _ = fileio.read_params(args.params)
    counts = simulate_counts(
        kraus_pair(fp),
        build_input_set(),
        total_scale=args.total_scale,
        noise=args.noise,
        seed=args.seed,
    )
    fileio.write_counts(args.counts_out, counts)
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    table = fileio.read_counts(args.counts)
    # Counts near the top of the float range overflow the linear maps. The
    # write refuses the NaN or infinity that leaves, naming the output, so
    # numpy need not warn, and no such matrix is projected.
    with np.errstate(over="ignore", invalid="ignore"):
        chi = reconstruct_process(table, build_input_set())
        if args.psd_project and np.isfinite(chi.m).all():
            chi = ProcessMatrix("S", project_to_psd(chi.m))
        chi = transform_process_matrix(chi, args.basis)
    fileio.write_matrix(args.out, chi.m, chi.basis)
    return 0


def _cmd_fit(args: argparse.Namespace) -> int:
    cfg = FitConfig(multistart=args.multistart, max_iterations=args.max_iter)
    chi = fileio.read_process_matrix(args.chi)
    result = fit(chi, cfg)
    fp = result.params
    fidelity = model_fidelity(fp, chi)
    payload = {
        **dataclasses.asdict(fp),
        "ratio_RT": fp.ratio_rt,
        "residual": result.residual,
        "fidelity": fidelity,
        "n_evaluations": result.n_evaluations,
        "converged": result.converged,
    }
    warnings = []
    # Scaled inside hypot, so no square of an entry underflows or overflows.
    meas_norm = math.hypot(*chi.m.view(np.float64).flat)
    if meas_norm > 0.0 and result.residual > 0.02 * meas_norm:
        warnings.append(
            "model mismatch: residual is "
            f"{result.residual / meas_norm:.1%} of the matrix norm"
        )
    if fidelity is None:
        warnings.append("fidelity undefined: a PSD-projected matrix has no positive trace")
    if not result.positive_overlap:
        warnings.append("no positive overlap with the filter model")
    elif not result.converged:
        warnings.append("the best start did not converge; best effort result")
    if warnings:
        payload["warning"] = "; ".join(warnings)
    fileio.write_fit_report(args.out, payload)
    if not result.converged:
        log.warning("fit did not converge" if result.positive_overlap
                    else "fit found no positive overlap with the filter model")
        return 4
    return 0


def _cmd_homdip(args: argparse.Namespace) -> int:
    fp, delay = fileio.read_params(args.params)
    if delay is None:
        raise FileFormatError(
            f"{args.params}: dip simulation needs the temporal form (tau_fs, tau_c_fs, mu)"
        )
    if not 2 <= args.steps <= MAX_STEPS:
        raise FileFormatError(f"--steps must be between 2 and {MAX_STEPS}, got {args.steps}")
    # The width is not finite when either end is not, or when it overflows.
    if not (np.isfinite(args.tau_max - args.tau_min) and args.tau_max > args.tau_min):
        raise FileFormatError("need finite tau_min < tau_max")
    grid = np.linspace(args.tau_min, args.tau_max, args.steps)
    _, tau_c_fs, mu = delay
    fileio.write_dip(args.out, hom_dip(fp, grid, tau_c_fs, mu), hom_visibility(fp.T, fp.R, mu))
    return 0


def _cmd_transform(args: argparse.Namespace) -> int:
    chi = fileio.read_process_matrix(args.chi)
    # As in reconstruct: the write refuses an output that overflowed.
    with np.errstate(over="ignore", invalid="ignore"):
        out = transform_process_matrix(chi, args.to)
    fileio.write_matrix(args.out, out.m, out.basis)
    return 0


def _cmd_choi(args: argparse.Namespace) -> int:
    fp, _ = fileio.read_params(args.params)
    chi = model_chi(fp, args.basis)
    fileio.write_matrix(args.out, chi.m, chi.basis)
    return 0


def _cmd_apply(args: argparse.Namespace) -> int:
    chi = fileio.read_process_matrix(args.chi)
    tag, rho = fileio.read_matrix(args.state)
    if tag != fileio.STATE_TAG or rho.shape != (4, 4):
        raise FileFormatError(f"{args.state}: expected a 4x4 state matrix tagged 'state'")
    out = apply_process_matrix(chi, rho)
    fileio.write_matrix(args.out, out, fileio.STATE_TAG)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bsqpt",
        description="Simulate, reconstruct and fit a two-qubit beamsplitter state filter.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write the coincidence count table of a filter")
    p.add_argument("--params", required=True)
    p.add_argument("--counts-out", required=True)
    p.add_argument("--noise", choices=["poisson"], default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--total-scale", type=float, default=1.0)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reconstruct", help="reconstruct a process matrix from counts")
    p.add_argument("--counts", required=True)
    p.add_argument("--basis", choices=list(BASIS_KINDS), default="S")
    p.add_argument("--out", required=True)
    p.add_argument("--psd-project", action="store_true")
    p.set_defaults(func=_cmd_reconstruct)

    p = sub.add_parser("fit", help="fit the decoherence model to a process matrix")
    p.add_argument("--chi", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--multistart", type=int, default=FitConfig.multistart)
    p.add_argument("--max-iter", type=int, default=FitConfig.max_iterations,
                   help="cap on the Newton steps of each start's polish, a guard against "
                        "one that never passes its decrement test")
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("homdip", help="write the coincidence dip curve over delay")
    p.add_argument("--params", required=True)
    p.add_argument("--tau-min", type=float, required=True)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--steps", type=int, required=True,
                   help=f"grid points over the delay range, 2 to {MAX_STEPS}")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_homdip)

    p = sub.add_parser("transform", help="re-express a process matrix in another basis")
    p.add_argument("--chi", required=True)
    p.add_argument("--to", choices=list(BASIS_KINDS), required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("choi", help="write the model process matrix for given parameters")
    p.add_argument("--params", required=True)
    p.add_argument("--basis", choices=list(BASIS_KINDS), default="S")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_choi)

    p = sub.add_parser("apply", help="apply a process matrix to a state")
    p.add_argument("--chi", required=True)
    p.add_argument("--state", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_apply)
    for p in sub.choices.values():  # argparse's own pattern reads "-1e2" and "-inf" as options
        p._negative_number_matcher = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)
    return parser


def main(argv: list[str] | None = None) -> int:
    # The package's own logger writes to this call's stderr; the root logger is left alone.
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(message)s"))
    level = log.level
    log.setLevel(logging.INFO)
    log.addHandler(handler)
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except ValueError as exc:  # FileFormatError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except ArithmeticError as exc:
        print(f"error: numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def entry_point() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
