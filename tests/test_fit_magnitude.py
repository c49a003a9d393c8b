"""Property sweeps of every command that reads a matrix or count file, across the float range."""

import io
import json
import math
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest

from bsqpt import BASIS_KINDS, CountTable, build_input_set, fileio, model_chi, simulate_counts
from bsqpt.cli import main
from bsqpt.fitting import _OFF_BLOCK

from helpers import random_channel, random_density, random_filter, random_hermitian

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

KINDS = ("random", "model", "zero", "negative", "off_block")


def scaled(m: np.ndarray, top: float = 1.0) -> np.ndarray:
    """``m`` scaled so that its largest real or imaginary part is ``top``; zero stays zero."""
    parts = np.ascontiguousarray(m).view(np.float64)
    peak = np.max(np.abs(parts))
    return (parts / peak * top if peak else parts).view(complex)


def hermitian(kind: str, seed: int, basis: str, top: float, apart: int) -> np.ndarray:
    """A Hermitian matrix of ``kind`` whose largest real or imaginary part is ``top``.

    The ``equal`` kind has every entry equal, which a change of basis
    concentrates into one entry. The ``off_block`` kind is a filter model
    on the fit's 6x6 standard-basis block, ``2^-apart`` below a random part
    off the block; only in basis S is that block the filter's. The lower
    triangle is copied from the upper after scaling, so the matrix stays
    exactly Hermitian where scaling rounds into the subnormal range.
    """
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((16, 16), dtype=complex)
    if kind == "equal":
        m = np.ones((16, 16), dtype=complex)
    elif kind == "model":
        m = model_chi(random_filter(rng), basis).m
    elif kind == "off_block":
        off = scaled(random_hermitian(rng, 16) * _OFF_BLOCK)
        m = off + scaled(model_chi(random_filter(rng)).m, 2.0**-apart)
    else:
        m = random_hermitian(rng, 16)
        if kind == "negative":
            m = -np.eye(16) - m @ m
    m = scaled(m, top)
    upper = np.triu(m, 1)
    return upper + upper.conj().T + np.diag(m.diagonal().real)


# The examples pin the ends of the range: a largest entry that is subnormal,
# matrices whose residual, or whose Hermitian part, overflows, and filter
# blocks more than 2^512 below the rest of the matrix.
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
       basis=st.sampled_from(BASIS_KINDS), power=st.integers(-1074, 1023),
       apart=st.integers(0, 1074))
@example(kind="random", seed=0, basis="S", power=-1074, apart=0)
@example(kind="random", seed=0, basis="F", power=1023, apart=0)
@example(kind="negative", seed=0, basis="S", power=1023, apart=0)
@example(kind="model", seed=0, basis="B", power=1023, apart=0)
@example(kind="off_block", seed=0, basis="S", power=0, apart=520)
@example(kind="off_block", seed=0, basis="S", power=0, apart=1074)
def test_fit_exits_cleanly_at_any_magnitude(tmp_path_factory, kind, seed, basis, power, apart):
    folder = tmp_path_factory.mktemp("fit")
    chi, out = folder / "chi.json", folder / "fit.json"
    fileio.write_matrix(chi, hermitian(kind, seed, basis, 2.0**power, apart), basis)
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(["fit", "--chi", str(chi), "--out", str(out), "--multistart", "2",
                     "--max-iter", "100"])
    assert code in (0, 2, 4), err.getvalue()
    if code == 2:
        assert "not written, it would hold NaN or infinity" in err.getvalue()
        assert not out.exists()
    else:
        report = json.loads(out.read_text(), parse_constant=float)
        assert all(math.isfinite(v) for v in report.values() if isinstance(v, float))


# The largest count or matrix part of the sweeps below, up to 1.7e308.
TOPS = st.floats(min_value=2.0**-1074, max_value=1.7e308)
# The fit's matrix kinds and the all-equal matrix.
MATRIX_KINDS = (*KINDS, "equal")


def run_refusing(argv: list, out) -> None:
    """Run ``bsqpt`` with every warning an error: exit 0 and a finite file, or the refusal.

    Exit 2 must print ``error: <out>: not written, it would hold NaN or
    infinity`` and nothing else, and leave no file; exit 0 must print
    nothing and write only finite numbers.
    """
    err = io.StringIO()
    with warnings.catch_warnings(), redirect_stderr(err):
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    assert code in (0, 2), err.getvalue()
    if code == 2:
        assert err.getvalue() == f"error: {out}: not written, it would hold NaN or infinity\n"
        assert not out.exists()
    else:
        assert err.getvalue() == ""
        m = json.loads(out.read_text(), parse_constant=float)
        assert np.all(np.isfinite(m["re"])) and np.all(np.isfinite(m["im"]))


def count_table(kind: str, seed: int, top: float) -> CountTable:
    """A count table of ``kind`` whose largest count is ``top``.

    ``random`` draws every count, ``channel`` holds the expected rates of
    a random channel, and ``third`` puts ``top`` in every third cell and
    zero elsewhere.
    """
    rng = np.random.default_rng(seed)
    if kind == "third":
        counts = (np.arange(256) % 3 == 0).reshape(16, 16) * 1.0
    elif kind == "channel":
        counts = simulate_counts(random_channel(rng), build_input_set()).counts
    else:
        counts = rng.exponential(size=(16, 16))
    return CountTable(counts=counts / counts.max() * top)


# The examples pin count tables whose true process matrix overflows.
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(("random", "channel", "third")), seed=st.integers(0, 2**32 - 1),
       top=TOPS, basis=st.sampled_from(BASIS_KINDS), psd=st.booleans())
@example(kind="third", seed=0, top=1.7e308, basis="S", psd=False)
@example(kind="third", seed=0, top=1.7e308, basis="S", psd=True)
def test_reconstruct_exits_cleanly_at_any_magnitude(tmp_path_factory, kind, seed, top, basis,
                                                    psd):
    folder = tmp_path_factory.mktemp("reconstruct")
    counts, out = folder / "counts.csv", folder / "chi.json"
    fileio.write_counts(counts, count_table(kind, seed, top))
    run_refusing(["reconstruct", "--counts", counts, "--basis", basis, "--out", out,
                  *["--psd-project"] * psd], out)


# The example pins a matrix whose change of basis overflows.
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(MATRIX_KINDS), seed=st.integers(0, 2**32 - 1),
       basis=st.sampled_from(BASIS_KINDS), to=st.sampled_from(BASIS_KINDS), top=TOPS,
       apart=st.integers(0, 1074))
@example(kind="equal", seed=0, basis="S", to="F", top=1e308, apart=0)
def test_transform_exits_cleanly_at_any_magnitude(tmp_path_factory, kind, seed, basis, to, top,
                                                  apart):
    folder = tmp_path_factory.mktemp("transform")
    chi, out = folder / "chi.json", folder / "out.json"
    fileio.write_matrix(chi, hermitian(kind, seed, basis, top, apart), basis)
    run_refusing(["transform", "--chi", chi, "--to", to, "--out", out], out)


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(MATRIX_KINDS), seed=st.integers(0, 2**32 - 1),
       basis=st.sampled_from(BASIS_KINDS), top=TOPS, state_top=TOPS,
       apart=st.integers(0, 1074))
@example(kind="equal", seed=0, basis="S", top=1e308, state_top=1.7e308, apart=0)
def test_apply_exits_cleanly_at_any_magnitude(tmp_path_factory, kind, seed, basis, top,
                                              state_top, apart):
    folder = tmp_path_factory.mktemp("apply")
    chi, rho, out = folder / "chi.json", folder / "rho.json", folder / "out.json"
    fileio.write_matrix(chi, hermitian(kind, seed, basis, top, apart), basis)
    state = scaled(random_density(np.random.default_rng(seed)), state_top)
    fileio.write_matrix(rho, state, fileio.STATE_TAG)
    run_refusing(["apply", "--chi", chi, "--state", rho, "--out", out], out)
