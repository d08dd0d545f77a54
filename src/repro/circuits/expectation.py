"""Exact expectation values and the Pauli measurement-basis table.

The paper's experiments estimate ``⟨Z⟩`` of the wire-cut qubit;
:func:`exact_expectation` computes the exact reference values (statevector /
density-matrix simulation).  ``_BASIS_CHANGE`` lists the gates that rotate
each Pauli eigenbasis onto the computational basis.  The term executor
applies it in :func:`repro.cutting.multi_wire.measured_multi_cut_circuit` and
the instance layer per fragment; an uncut circuit is sampled as the zero-cut
case of :class:`repro.pipeline.CutPipeline`.
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.statevector_simulator import StatevectorSimulator
from repro.quantum.paulis import PauliString
from repro.quantum.states import Statevector

__all__ = ["exact_expectation"]

_BASIS_CHANGE: dict[str, list[tuple[str, tuple[float, ...]]]] = {
    "I": [],
    "Z": [],
    "X": [("h", ())],
    "Y": [("sdg", ()), ("h", ())],
}


def exact_expectation(
    circuit: QuantumCircuit,
    observable: np.ndarray | PauliString,
    initial_state: Statevector | np.ndarray | None = None,
) -> float:
    """Return the exact expectation value of ``observable`` after ``circuit``.

    For unitary circuits the statevector simulator is used; otherwise the
    branch-averaged density matrix is used.
    """
    matrix = observable.to_matrix() if isinstance(observable, PauliString) else np.asarray(observable, dtype=complex)
    if circuit.is_unitary_only():
        state = StatevectorSimulator().run(circuit, initial_state)
        return float(np.real(state.expectation_value(matrix)))
    result = DensityMatrixSimulator().run(circuit, initial_state)
    return float(np.real(result.expectation_value(matrix)))
