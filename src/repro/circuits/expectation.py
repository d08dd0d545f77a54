"""Expectation-value helpers bridging circuits, observables and counts.

The paper's experiments estimate ``⟨Z⟩`` of the wire-cut qubit; these helpers
compute exact reference values (statevector / density-matrix simulation) and
sampled estimates (diagonalise the observable with a basis-change circuit and
average parities over counts).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.shot_simulator import ShotSimulator
from repro.circuits.statevector_simulator import StatevectorSimulator
from repro.quantum.paulis import PauliString
from repro.quantum.states import Statevector
from repro.utils.rng import SeedLike

__all__ = [
    "exact_expectation",
    "sampled_pauli_expectation",
    "measurement_basis_change",
]

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


def measurement_basis_change(pauli: str, qubit: int, num_qubits: int, num_clbits: int) -> QuantumCircuit:
    """Return a circuit rotating the ``pauli`` eigenbasis of ``qubit`` to the Z basis."""
    if pauli not in _BASIS_CHANGE:
        raise SimulationError(f"unsupported Pauli label {pauli!r}")
    circuit = QuantumCircuit(num_qubits, num_clbits, name=f"meas_{pauli.lower()}")
    for gate_name, params in _BASIS_CHANGE[pauli]:
        circuit.gate(gate_name, qubit, params)
    return circuit


def sampled_pauli_expectation(
    circuit: QuantumCircuit,
    pauli_labels: str,
    shots: int,
    qubits: Sequence[int] | None = None,
    seed: SeedLike = None,
    initial_state: Statevector | np.ndarray | None = None,
) -> float:
    """Estimate a Pauli expectation value of the circuit output by sampling.

    Parameters
    ----------
    circuit:
        Circuit *without* the measurement of the observable (it is appended
        here after the appropriate basis change).
    pauli_labels:
        One Pauli label per entry of ``qubits`` (default: per circuit qubit).
    shots:
        Number of measurement shots.
    qubits:
        Which qubits carry the observable; defaults to all qubits.
    """
    qubits = list(range(circuit.num_qubits)) if qubits is None else list(qubits)
    if len(pauli_labels) != len(qubits):
        raise SimulationError(
            f"{len(pauli_labels)} Pauli labels given for {len(qubits)} qubits"
        )
    active = [(q, p) for q, p in zip(qubits, pauli_labels) if p != "I"]
    if not active:
        return 1.0
    # New classical bits for the observable measurement sit after existing ones.
    clbit_offset = circuit.num_clbits
    num_clbits = clbit_offset + len(active)
    measured = QuantumCircuit(circuit.num_qubits, num_clbits, name=f"{circuit.name}_meas")
    measured.compose(circuit, inplace=True)
    observable_clbits = []
    for position, (qubit, pauli) in enumerate(active):
        for gate_name, params in _BASIS_CHANGE[pauli]:
            measured.gate(gate_name, qubit, params)
        clbit = clbit_offset + position
        measured.measure(qubit, clbit)
        observable_clbits.append(clbit)
    counts: Counts = ShotSimulator().run(
        measured, shots=shots, seed=seed, initial_state=initial_state
    )
    return counts.expectation_z(observable_clbits)
