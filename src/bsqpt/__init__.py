"""Two-qubit process tomography of a beamsplitter state filter.

Simulates the coincidence-postselected action of a (possibly nonideal)
beamsplitter on photon-pair polarization states, reconstructs its 16x16
process matrix from simulated measurement records the same way the data
pipeline of a real experiment would, and fits a two-operator decoherence
model to the result.
"""

from .bases import BASIS_KINDS, OperatorBasis, build_basis, pauli_element, standard_element
from .bsfilter import (
    BSOptics,
    FilterParams,
    apply_pt_model,
    decoherence_from_delay,
    hom_dip,
    hom_visibility,
    kraus_pair,
    kraus_pair_from_optics,
    u3,
)
from .channel import (
    KrausSet,
    ProcessMatrix,
    apply_kraus,
    apply_process_matrix,
    assemble_choi_from_map,
    choi_from_kraus,
    kraus_from_process_matrix,
    transform_process_matrix,
)
from .fitting import FitConfig, FitResult, fit, model_chi, model_fidelity
from .linalg import (
    bell_state,
    dagger,
    fidelity,
    kron,
    partial_trace,
    project_to_psd,
)
from .tomography import (
    CountTable,
    InputStateSet,
    build_input_set,
    reconstruct_process,
    simulate_counts,
)

__version__ = "0.1.0"
