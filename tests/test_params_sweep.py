"""Property sweeps of the commands' flags, each given as ``--flag=value`` or ``--flag value``.

For the commands that read a parameter file (simulate, choi and homdip),
each example writes a parameter file with generated keys, forms and finite
values, runs the command with generated flags under warnings-as-errors and
checks that it exits 0, 2, 3 or 4 with no traceback, and that whatever it
wrote holds only finite numbers. For fit, reconstruct, transform and apply,
each example draws the command's own flags, valid, invalid or (when
required) missing, whether its input files are sound, malformed or missing
(apply's state may also be a 16x16 matrix or one not tagged ``state``) and
whether its output path is a directory, and checks that a refusal names an
option or a file at fault and writes no output file.
"""

import functools
import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest

from bsqpt import BASIS_KINDS, FilterParams, build_input_set, fileio, kraus_pair
from bsqpt import reconstruct_process, simulate_counts, transform_process_matrix
from bsqpt.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# The keys of each form, the two accepted ones first; the others are refused whole.
SPLITTER = (("ratio_RT",), ("T", "R"), ("ratio_RT", "T"), ("R",), ())
ANGLES = (("theta1", "theta2"), ("theta1_rad", "theta2_rad"), ("theta1", "theta1_rad", "theta2"),
          ("theta2",))
DECOHERENCE = (("p",), ("tau_fs", "tau_c_fs", "mu"), ("p", "mu"), ("tau_fs", "tau_c_fs"), ())
FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Positive values near one, or anywhere up to the top of the float range.
POSITIVE = st.one_of(st.floats(0.01, 10.0), st.floats(0.0, 1.7e308, exclude_min=True))
# The values each key accepts on its own, across the finite range where it allows.
ACCEPTED = {
    "ratio_RT": POSITIVE, "T": POSITIVE, "R": st.one_of(st.just(0.0), POSITIVE),
    "theta1": FINITE, "theta2": FINITE, "theta1_rad": FINITE, "theta2_rad": FINITE,
    "p": st.floats(0.0, 0.5), "tau_fs": FINITE, "tau_c_fs": st.floats(1e-154, 1e154),
    "mu": st.floats(0.0, 1.0), "scale": POSITIVE,
}
# Anything else: any finite float, integers and values that are not numbers.
WILD = st.one_of(FINITE, st.integers(-10, 10**6), st.sampled_from(["0.5", None, True, [0.5]]))


@st.composite
def params(draw, command: str) -> dict:
    """A parameter file, in an accepted form with accepted values three times in four.

    ``homdip`` accepts only the temporal form of the decoherence.
    """
    wild = draw(st.integers(0, 3)) == 0
    accepted = (SPLITTER[:2], ANGLES[:2], DECOHERENCE[1:2] if command == "homdip" else
                DECOHERENCE[:2])
    keys = [key for form, ok in zip((SPLITTER, ANGLES, DECOHERENCE), accepted)
            for key in draw(st.sampled_from(form if wild else ok))]
    keys += ["scale"] * draw(st.booleans())
    return {key: draw(st.one_of(ACCEPTED[key], WILD) if wild else ACCEPTED[key]) for key in keys}


@st.composite
def given_as(draw, pairs: list) -> list[str]:
    """Each ``(flag, value)`` as ``--flag=value`` or as ``--flag value``, drawn flag by flag.

    A negative value in any float form must read as a value either way.
    """
    return [arg for flag, value in pairs
            for arg in draw(st.sampled_from([[f"{flag}={value}"], [flag, str(value)]]))]


def flags(command: str):
    """The command's own flags, in either form (:func:`given_as`)."""
    if command == "simulate":
        pairs = st.builds(lambda noise, seed, total: [*noise, ("--seed", seed),
                                                      ("--total-scale", repr(total))],
                          st.sampled_from([(), (("--noise", "poisson"),)]),
                          st.one_of(st.integers(0, 2**32), st.integers(-2**63, 2**64)),
                          st.one_of(st.floats(0.0, 1e6), FINITE))
    elif command == "choi":
        pairs = st.builds(lambda b: [("--basis", b)], st.sampled_from(BASIS_KINDS))
    else:
        pairs = st.builds(lambda lo, hi, n: [("--tau-min", repr(lo)), ("--tau-max", repr(hi)),
                                             ("--steps", n)],
                          st.one_of(st.floats(-1e3, 0.0), FINITE),
                          st.one_of(st.floats(0.0, 1e3), FINITE), st.integers(-2, 300))
    return pairs.flatmap(given_as)


def numbers(text: str, json_file: bool) -> list[float]:
    """Every number in an output file, NaN and infinities included."""
    if json_file:
        m = json.loads(text, parse_constant=float)
        return [v for part in ("re", "im") for row in m[part] for v in row]
    found = []
    for token in re.split(r"[,\s=]+", text):
        try:
            found.append(float(token))
        except ValueError:
            pass
    return found


@pytest.mark.parametrize("command", ["simulate", "choi", "homdip"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_parameter_file_commands_exit_cleanly(tmp_path_factory, command, data):
    folder = tmp_path_factory.mktemp(command)
    raw = data.draw(params(command))
    path = folder / "params.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    out = folder / ("counts.csv" if command == "simulate" else
                    "chi.json" if command == "choi" else "dip.csv")
    out_flag = "--counts-out" if command == "simulate" else "--out"
    argv = [command, f"--params={path}", f"{out_flag}={out}", *data.draw(flags(command))]
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse refusal, as the console script exits
            code = exc.code
    assert code in (0, 2, 3, 4), (argv, raw, err.getvalue())
    assert "Traceback" not in err.getvalue()
    # Every drawn flag has its value, so none may be read as an option.
    assert "expected one argument" not in err.getvalue(), argv
    if code == 0:
        assert out.exists()
    if out.exists():
        values = numbers(out.read_text(encoding="utf-8"), out.suffix == ".json")
        assert values and all(math.isfinite(v) for v in values), (argv, raw)


# The values of a count option: integers across the range, and words that
# argparse's int refuses or reads.
COUNTS = st.one_of(st.integers(-3, 6), st.integers(-2**70, 2**70),
                   st.sampled_from(["", "x", "1.5", "1e3", "-", "0x10", " 7", "3_0"]))
BASES = st.one_of(st.sampled_from(BASIS_KINDS), st.sampled_from(["s", "f", "X", "", "SF"]))


def counts_at_least_one(value) -> bool:
    """Whether argparse's ``int`` reads ``value`` as a count of at least 1."""
    try:
        return int(str(value)) >= 1
    except ValueError:
        return False


@functools.lru_cache(maxsize=None)
def record(seed: int):
    """A Poisson count table of the reference filter at 1e4 counts and its process matrix in F."""
    fp = FilterParams.from_ratio(0.76, theta1=1.288053, theta2=0.238761, p=0.325)
    inputs = build_input_set()
    counts = simulate_counts(kraus_pair(fp), inputs, total_scale=1e4, noise="poisson", seed=seed)
    return counts, transform_process_matrix(reconstruct_process(counts, inputs), "F")


# What each command reads from its --chi or --counts file.
SOURCE = {"fit": "--chi", "reconstruct": "--counts", "transform": "--chi", "apply": "--chi"}
# apply's --state files: the sound one first; each other is refused by name.
STATES = ("sound", "malformed", "missing", "16x16", "untagged")


@st.composite
def own_flags(draw, command: str) -> tuple:
    """The command's own flags: ``(flag, value)`` pairs, switches, and the flags at fault.

    A required flag may be left out, which puts it at fault too.
    """
    if command == "fit":
        pairs = [(flag, draw(COUNTS)) for flag in ("--multistart", "--max-iter")
                 if draw(st.booleans())]
        return pairs, [], [flag for flag, value in pairs if not counts_at_least_one(value)]
    if command == "transform":
        to = draw(st.one_of(BASES, st.none()))
        return ([] if to is None else [("--to", to)]), [], ["--to"] * (to not in BASIS_KINDS)
    if command == "apply":
        return [], [], []
    pairs = [("--basis", draw(BASES))] if draw(st.booleans()) else []
    switches = draw(st.sampled_from([[], ["--psd-project"], ["--psd-project=yes"]]))
    return pairs, switches, ([flag for flag, value in pairs if value not in BASIS_KINDS]
                             + ["--psd-project"] * (switches == ["--psd-project=yes"]))


def write_state(path, kind: str, chi) -> None:
    """An ``apply --state`` file of the given kind (:data:`STATES`); ``missing`` writes none."""
    if kind == "sound":
        fileio.write_matrix(path, np.eye(4) / 4, fileio.STATE_TAG)
    elif kind == "malformed":
        path.write_text("not a state\n", encoding="utf-8")
    elif kind == "16x16":
        fileio.write_matrix(path, chi.m, fileio.STATE_TAG)
    elif kind == "untagged":
        fileio.write_matrix(path, np.eye(4) / 4, "S")


@pytest.mark.parametrize("command", ["fit", "reconstruct", "transform", "apply"])
@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_matrix_commands_refuse_by_name(tmp_path_factory, command, data):
    folder = tmp_path_factory.mktemp(command)
    pairs, switches, at_fault = data.draw(own_flags(command))
    source = folder / ("counts.csv" if command == "reconstruct" else "chi.json")
    sound = data.draw(st.sampled_from(["sound"] * 4 + ["malformed", "missing"]))
    counts, chi = record(data.draw(st.integers(0, 3)))
    if sound == "sound" and command == "reconstruct":
        fileio.write_counts(source, counts)
    elif sound == "sound":
        fileio.write_matrix(source, chi.m, chi.basis)
    elif sound == "malformed":
        source.write_text("neither a matrix nor a count table\n", encoding="utf-8")
    files = [(SOURCE[command], source)]
    if command == "apply":
        state = folder / "state.json"
        kind = data.draw(st.sampled_from(STATES[:1] * 4 + STATES[1:]))
        write_state(state, kind, chi)
        files.append(("--state", state))
        if kind != "sound":
            at_fault.append(str(state))
    out = folder / "out.json"
    if data.draw(st.integers(0, 7)) == 0:
        out.mkdir()
        at_fault.append(str(out))
    if sound != "sound":
        at_fault.append(str(source))
    files.append(("--out", out))
    argv = [command, *data.draw(given_as(files + pairs)), *switches]
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:  # an argparse refusal, as the console script exits
            code = exc.code
    assert "Traceback" not in err.getvalue()
    if at_fault:
        assert code in (2, 3), (argv, err.getvalue())
        assert any(name in err.getvalue() for name in at_fault), (argv, err.getvalue())
        assert not out.is_file()
        return
    assert code in ((0, 4) if command == "fit" else (0,)), (argv, err.getvalue())
    text = out.read_text(encoding="utf-8")
    if command != "fit":
        assert all(math.isfinite(v) for v in numbers(text, True))
    elif code == 4:
        assert "did not converge" in json.loads(text)["warning"], argv
