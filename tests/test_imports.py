"""What each command loads: the package's exported names and its on-first-use modules."""

import importlib
import json
import os
import subprocess
import sys

import pytest

import bsqpt

from helpers import run_readme_pipeline

# Every name the package exports, by the module that defines it.
EXPORTS = {
    "bases": ("BASIS_KINDS", "OperatorBasis", "build_basis", "pauli_element", "standard_element"),
    "bsfilter": ("BSOptics", "FilterParams", "apply_pt_model", "decoherence_from_delay",
                 "hom_dip", "hom_visibility", "kraus_pair", "kraus_pair_from_optics", "u3"),
    "channel": ("KrausSet", "ProcessMatrix", "apply_kraus", "apply_process_matrix",
                "assemble_choi_from_map", "choi_from_kraus", "transform_process_matrix"),
    "fitting": ("FitConfig", "FitResult", "fit", "model_chi", "model_fidelity"),
    "linalg": ("bell_state", "dagger", "project_to_psd"),
    "tomography": ("CountTable", "InputStateSet", "build_input_set", "reconstruct_process",
                   "simulate_counts"),
}
LAZY = {"bsfilter", "tomography", "fitting"}
# The on-first-use modules each command loads.
LOADS = {
    "simulate": {"bsfilter", "tomography"},
    "reconstruct": {"tomography"},
    "fit": {"bsfilter", "fitting"},
    "homdip": {"bsfilter"},
    "transform": set(),
    "choi": {"bsfilter", "fitting"},
    "apply": set(),
}
# Prints the bsqpt modules loaded once the statement has run.
PROBE = ("import json, sys\n{}\n"
         "print(json.dumps(sorted(m[6:] for m in sys.modules if m.startswith('bsqpt.'))))\n")


def loaded(statement, *argv):
    """The on-first-use modules a fresh interpreter has loaded after ``statement``."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(statement), *argv],
                          capture_output=True, text=True, env={**os.environ})
    assert proc.returncode == 0, proc.stderr
    return LAZY & set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("statement", ["import bsqpt", "import bsqpt.cli"])
def test_import_loads_no_lazy_module(statement):
    assert loaded(statement) == set()


@pytest.mark.parametrize("module", sorted(LAZY))
def test_bare_import_reaches_each_module_as_an_attribute(module):
    assert module in loaded(f"import bsqpt\nbsqpt.{module}.__name__")


def test_each_readme_command_loads_only_what_it_runs(tmp_path):
    seen = {}

    def run(argv):
        seen.setdefault(argv[0], []).append(loaded(
            "from bsqpt.cli import main\ncode = main(sys.argv[1:])\nassert code == 0, code",
            *argv))
        return 0

    run_readme_pipeline(str(tmp_path), run)
    assert set(seen) == set(LOADS)
    for command, runs in seen.items():
        assert runs == [LOADS[command]] * len(runs), command


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exported_names_are_their_home_objects(module):
    home = importlib.import_module(f"bsqpt.{module}")
    for name in EXPORTS[module]:
        assert getattr(bsqpt, name) is getattr(home, name), name
        assert name in dir(bsqpt)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        getattr(bsqpt, "nope")
