"""Two-qubit process tomography of a beamsplitter state filter.

Simulates the coincidence-postselected action of a (possibly nonideal)
beamsplitter on photon-pair polarization states, reconstructs its 16x16
process matrix from simulated measurement records the same way the data
pipeline of a real experiment would, and fits a two-operator decoherence
model to the result.

``bases``, ``channel`` and ``linalg``, which every command needs, load with
the package. ``bsfilter``, ``tomography`` and ``fitting`` load on first use,
so each ``bsqpt`` command loads only the modules it runs; their names below
resolve through the module-level ``__getattr__`` (PEP 562).
"""

import importlib

from .bases import BASIS_KINDS, OperatorBasis, build_basis, pauli_element, standard_element
from .channel import (
    KrausSet,
    ProcessMatrix,
    apply_kraus,
    apply_process_matrix,
    assemble_choi_from_map,
    choi_from_kraus,
    transform_process_matrix,
)
from .linalg import (
    bell_state,
    dagger,
    project_to_psd,
)

_LAZY = {
    "bsfilter": ("BSOptics", "FilterParams", "apply_pt_model", "decoherence_from_delay",
                 "hom_dip", "hom_visibility", "kraus_pair", "kraus_pair_from_optics", "u3"),
    "fitting": ("FitConfig", "FitResult", "fit", "model_chi", "model_fidelity"),
    "tomography": ("CountTable", "InputStateSet", "build_input_set", "reconstruct_process",
                   "simulate_counts"),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:  # ``bsqpt.fitting`` after a bare ``import bsqpt``, as before
        return importlib.import_module(f".{name}", __name__)
    if name in _HOME:
        return getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_HOME})
