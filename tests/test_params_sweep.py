"""Property sweep of the commands that read a parameter file: simulate, choi and homdip.

Each example writes a parameter file with generated keys, forms and finite
values, runs the command with generated flags under warnings-as-errors and
checks that it exits 0, 2, 3 or 4 with no traceback, and that whatever it
wrote holds only finite numbers.
"""

import io
import json
import math
import re
import warnings
from contextlib import redirect_stderr

import pytest

from bsqpt import BASIS_KINDS
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


def flags(command: str):
    """The command's own flags, each as ``--flag=value`` so a negative value is not an option."""
    if command == "simulate":
        return st.builds(lambda noise, seed, total: [*noise, f"--seed={seed}",
                                                     f"--total-scale={total!r}"],
                         st.sampled_from([(), ("--noise=poisson",)]),
                         st.one_of(st.integers(0, 2**32), st.integers(-2**63, 2**64)),
                         st.one_of(st.floats(0.0, 1e6), FINITE))
    if command == "choi":
        return st.builds(lambda b: [f"--basis={b}"], st.sampled_from(BASIS_KINDS))
    return st.builds(lambda lo, hi, n: [f"--tau-min={lo!r}", f"--tau-max={hi!r}", f"--steps={n}"],
                     st.one_of(st.floats(-1e3, 0.0), FINITE),
                     st.one_of(st.floats(0.0, 1e3), FINITE), st.integers(-2, 300))


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
    if code == 0:
        assert out.exists()
    if out.exists():
        values = numbers(out.read_text(encoding="utf-8"), out.suffix == ".json")
        assert values and all(math.isfinite(v) for v in values), (argv, raw)
