"""Quantum-information substrate: states, gates, channels, entanglement.

This package is the self-contained replacement for the quantum-information
parts of Qiskit that the paper's experiments rely on.  Everything is built
directly on NumPy/SciPy.
"""

from repro.quantum.bell import (
    bell_basis_states,
    bell_overlaps,
    bell_state,
    k_from_overlap,
    overlap_from_k,
    phi_k_density,
    phi_k_state,
    werner_state,
)
from repro.quantum.channels import (
    QuantumChannel,
    amplitude_damping_channel,
    dephasing_channel,
    depolarizing_channel,
    identity_channel,
    measure_and_prepare_channel,
)
from repro.quantum.entanglement import (
    SchmidtDecomposition,
    concurrence,
    entanglement_entropy,
    fully_entangled_fraction,
    is_separable_pure,
    maximal_overlap,
    maximal_overlap_pure,
    negativity,
    schmidt_coefficients,
    schmidt_decomposition,
    schmidt_rank,
)
from repro.quantum.measures import (
    hilbert_schmidt_distance,
    purity,
    state_fidelity,
    trace_distance,
    von_neumann_entropy,
)
from repro.quantum.operators import Operator
from repro.quantum.partial import partial_trace, partial_transpose
from repro.quantum.paulis import (
    PauliString,
    pauli_basis,
    pauli_decompose,
    pauli_matrix,
    pauli_reconstruct,
)
from repro.quantum.random import (
    haar_random_single_qubit_states,
    random_density_matrix,
    random_statevector,
    random_unitary,
)
from repro.quantum.states import DensityMatrix, Statevector

__all__ = [
    # states
    "Statevector",
    "DensityMatrix",
    # gates are exposed via repro.quantum.gates directly
    # bell / NME
    "bell_state",
    "bell_basis_states",
    "bell_overlaps",
    "phi_k_state",
    "phi_k_density",
    "overlap_from_k",
    "k_from_overlap",
    "werner_state",
    # channels
    "QuantumChannel",
    "identity_channel",
    "depolarizing_channel",
    "dephasing_channel",
    "amplitude_damping_channel",
    "measure_and_prepare_channel",
    # entanglement
    "SchmidtDecomposition",
    "schmidt_decomposition",
    "schmidt_coefficients",
    "schmidt_rank",
    "entanglement_entropy",
    "concurrence",
    "negativity",
    "fully_entangled_fraction",
    "maximal_overlap",
    "maximal_overlap_pure",
    "is_separable_pure",
    # measures
    "state_fidelity",
    "trace_distance",
    "hilbert_schmidt_distance",
    "purity",
    "von_neumann_entropy",
    # operators / paulis
    "Operator",
    "PauliString",
    "pauli_basis",
    "pauli_matrix",
    "pauli_decompose",
    "pauli_reconstruct",
    # partial operations
    "partial_trace",
    "partial_transpose",
    # random
    "random_unitary",
    "random_statevector",
    "random_density_matrix",
    "haar_random_single_qubit_states",
]
