"""Property sweep: ``bsqpt fit`` on Hermitian matrices anywhere in the float range."""

import io
import json
import math
import warnings
from contextlib import redirect_stderr

import numpy as np
import pytest

from bsqpt import BASIS_KINDS, fileio, model_chi
from bsqpt.cli import main

from helpers import random_filter, random_hermitian

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

KINDS = ("random", "model", "zero", "negative")


def hermitian(kind: str, seed: int, basis: str, power: int) -> np.ndarray:
    """A Hermitian matrix of ``kind`` whose largest real or imaginary part is ``2^power``.

    The lower triangle is copied from the upper after scaling, so the matrix
    stays exactly Hermitian where scaling rounds into the subnormal range.
    """
    rng = np.random.default_rng(seed)
    if kind == "zero":
        return np.zeros((16, 16), dtype=complex)
    if kind == "model":
        m = model_chi(random_filter(rng), basis).m
    else:
        m = random_hermitian(rng, 16)
        if kind == "negative":
            m = -np.eye(16) - m @ m
    parts = np.ascontiguousarray(m).view(np.float64)
    m = np.ldexp(parts / np.max(np.abs(parts)), power).view(complex)
    upper = np.triu(m, 1)
    return upper + upper.conj().T + np.diag(m.diagonal().real)


# The examples pin the ends of the range: a largest entry that is subnormal,
# and matrices whose residual, or whose Hermitian part, overflows.
@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(kind=st.sampled_from(KINDS), seed=st.integers(0, 2**32 - 1),
       basis=st.sampled_from(BASIS_KINDS), power=st.integers(-1074, 1023))
@example(kind="random", seed=0, basis="S", power=-1074)
@example(kind="random", seed=0, basis="F", power=1023)
@example(kind="negative", seed=0, basis="S", power=1023)
@example(kind="model", seed=0, basis="B", power=1023)
def test_fit_exits_cleanly_at_any_magnitude(tmp_path_factory, kind, seed, basis, power):
    folder = tmp_path_factory.mktemp("fit")
    chi, out = folder / "chi.json", folder / "fit.json"
    fileio.write_matrix(chi, hermitian(kind, seed, basis, power), basis)
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
