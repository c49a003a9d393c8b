"""The README pipeline's outputs against the goldens committed in ``tests/golden``.

Under the numpy version recorded in ``tests/golden/manifest.json``, which
wrote the goldens, every output must match its golden byte for byte. Under
another version, sums may round differently and numpy does not promise the
same Poisson stream (NEP 19): the Poisson count table must still match byte
for byte, or its outputs are skipped with a message; every other number
must lie within ``RTOL`` of its golden, relative to ``1 + |golden|``, and
all text around the numbers must match; a fit's evaluation count, whose
Newton iterations stop on the decrement and not on rounding, among them.
``scripts/regenerate_goldens.py`` rewrites the goldens. Under any numpy,
the pipeline run as ``python -m bsqpt.cli`` processes must write the bytes
that the in-process run writes.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import README_OUTPUTS, read_json, run_readme_pipeline

GOLDEN = Path(__file__).parent / "golden"
MANIFEST = read_json(GOLDEN / "manifest.json")
RTOL = 1e-8
# The Poisson count table and the outputs computed from it.
POISSON = {"noisy.csv": ("chi_noisy.json", "fit_noisy.json")}
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d*)?(?:[eE][-+]?\d+)?(?![\w.])")


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    directory = tmp_path_factory.mktemp("readme")
    run_readme_pipeline(directory)
    return directory


def assert_text_close(got: str, want: str) -> None:
    """The same text around the numbers, and each number within ``RTOL``."""
    assert NUMBER.split(got) == NUMBER.split(want)
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        assert abs(float(g) - float(w)) <= RTOL * (1.0 + abs(float(w))), (g, w)


def assert_json_close(got, want) -> None:
    if isinstance(want, dict):
        assert got.keys() == want.keys()
        for key in want:
            assert_json_close(got[key], want[key])
    elif isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert_json_close(g, w)
    elif isinstance(want, str):
        assert_text_close(got, want)
    elif isinstance(want, bool) or want is None:
        assert got is want
    else:
        assert abs(got - want) <= RTOL * (1.0 + abs(want)), (got, want)


def test_the_manifest_lists_every_output():
    assert MANIFEST["outputs"] == README_OUTPUTS
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(README_OUTPUTS + ["manifest.json"])


@pytest.mark.parametrize("name", README_OUTPUTS)
def test_output_matches_its_golden(outputs, name):
    got, want = (outputs / name).read_bytes(), (GOLDEN / name).read_bytes()
    if np.__version__ == MANIFEST["numpy"]:
        assert got == want
        return
    for table, derived in POISSON.items():
        if name == table or name in derived:
            if (outputs / table).read_bytes() != (GOLDEN / table).read_bytes():
                pytest.skip(f"numpy {np.__version__} draws another Poisson stream than numpy "
                            f"{MANIFEST['numpy']}, which wrote the goldens; {name} not compared")
            if name == table:
                return
    if name.endswith(".json"):
        assert_json_close(json.loads(got), json.loads(want))
    else:
        assert_text_close(got.decode("utf-8"), want.decode("utf-8"))


def test_console_processes_write_the_in_process_outputs(outputs, tmp_path):
    # Each command in its own interpreter, ended by entry_point's os._exit,
    # writes the bytes that cli.main writes in this process.
    def bsqpt(argv):
        return subprocess.run([sys.executable, "-m", "bsqpt.cli", *argv]).returncode

    run_readme_pipeline(tmp_path, bsqpt)
    for name in README_OUTPUTS:
        assert (tmp_path / name).read_bytes() == (outputs / name).read_bytes(), name
