"""Full-space reference simulators: the arithmetic the axis-local kernels replace.

Every operator here is embedded into the full ``2^n × 2^n`` space with
:func:`~repro.utils.linalg.expand_operator` and applied with dense matmuls —
O(8^n) per gate on a density matrix, O(4^n) on a statevector.  The library
never runs this code: the simulators in :mod:`repro.circuits` contract each
gate against its target axes only (:mod:`repro.circuits.kernels`).  The test
suite and ``benchmarks/bench_kernels.py`` check them against these
references — to 1e-12 on arbitrary circuits, and bitwise on measurement,
reset and the benchmark's exact-arithmetic workloads.

:class:`DenseDensityMatrixSimulator`
    Branching density-matrix simulation of the full instruction set (gates
    with an optional gate-noise hook, mid-circuit measurement, classical
    conditioning, reset, initialise).  It reuses the branch bookkeeping of
    :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
    and replaces only the per-instruction arithmetic.
:class:`DenseStatevectorSimulator`
    Statevector simulation of measurement-free circuits (trailing
    measurements are ignored).
"""

from __future__ import annotations

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.instruction import BARRIER, GATE, MEASURE
from repro.exceptions import SimulationError
from repro.quantum.states import Statevector
from repro.utils.linalg import expand_operator

__all__ = [
    "DenseDensityMatrixSimulator",
    "DenseStatevectorSimulator",
    "projectors",
    "reset_kraus",
    "local_initialize_kraus",
]


def projectors(qubit: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the full-space computational-basis projectors ``(P₀, P₁)`` of one qubit."""
    p0 = expand_operator(np.diag([1.0, 0.0]).astype(complex), [qubit], num_qubits)
    p1 = expand_operator(np.diag([0.0, 1.0]).astype(complex), [qubit], num_qubits)
    return p0, p1


def reset_kraus(qubit: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the full-space reset Kraus pair ``K₀ = |0⟩⟨0|``, ``K₁ = |0⟩⟨1|``."""
    k0 = expand_operator(np.array([[1, 0], [0, 0]], dtype=complex), [qubit], num_qubits)
    k1 = expand_operator(np.array([[0, 1], [0, 0]], dtype=complex), [qubit], num_qubits)
    return k0, k1


def local_initialize_kraus(target: np.ndarray) -> list[np.ndarray]:
    """Return the local reset-to-state Kraus family ``|target⟩⟨j|``, one per basis state."""
    target = np.asarray(target, dtype=complex).ravel()
    dim = target.shape[0]
    operators = []
    for j in range(dim):
        kraus = np.zeros((dim, dim), dtype=complex)
        kraus[:, j] = target
        operators.append(kraus)
    return operators


class DenseDensityMatrixSimulator(DensityMatrixSimulator):
    """Branching density-matrix simulator applying full-space operators."""

    def _apply_gate(self, branches, instruction, num_qubits):
        qubits = list(instruction.qubits)
        kraus_local = None if self._gate_noise is None else self._gate_noise(instruction)
        unitary = expand_operator(instruction.matrix, qubits, num_qubits)
        unitary_dag = unitary.conj().T
        kraus_full = (
            None
            if kraus_local is None
            else [expand_operator(np.asarray(k, dtype=complex), qubits, num_qubits) for k in kraus_local]
        )
        updated = {}
        for clbits, matrix in branches.items():
            if instruction.condition is not None:
                clbit, value = instruction.condition
                if clbits[clbit] != value:
                    updated[clbits] = matrix
                    continue
            evolved = unitary @ matrix @ unitary_dag
            if kraus_full is not None:
                evolved = sum(k @ evolved @ k.conj().T for k in kraus_full)
            updated[clbits] = evolved
        return updated

    @staticmethod
    def _apply_measure(branches, instruction, num_qubits):
        qubit = instruction.qubits[0]
        clbit = instruction.clbits[0]
        p0, p1 = projectors(qubit, num_qubits)
        updated = {}
        for clbits, matrix in branches.items():
            for outcome, piece in enumerate((p0 @ matrix @ p0, p1 @ matrix @ p1)):
                if np.trace(piece).real <= 1e-16:
                    continue
                new_clbits = list(clbits)
                new_clbits[clbit] = outcome
                key = tuple(new_clbits)
                updated[key] = updated.get(key, 0) + piece
        return updated

    @staticmethod
    def _apply_reset(branches, instruction, num_qubits):
        k0, k1 = reset_kraus(instruction.qubits[0], num_qubits)
        return {
            clbits: k0 @ matrix @ k0.conj().T + k1 @ matrix @ k1.conj().T
            for clbits, matrix in branches.items()
        }

    @staticmethod
    def _apply_initialize(branches, instruction, num_qubits):
        qubits = list(instruction.qubits)
        kraus_full = [
            expand_operator(k, qubits, num_qubits)
            for k in local_initialize_kraus(instruction.matrix)
        ]
        return {
            clbits: sum(k @ matrix @ k.conj().T for k in kraus_full)
            for clbits, matrix in branches.items()
        }


class DenseStatevectorSimulator:
    """Statevector simulator applying each gate as a full-space matrix-vector product."""

    def run(
        self, circuit: QuantumCircuit, initial_state: Statevector | np.ndarray | None = None
    ) -> Statevector:
        num_qubits = circuit.num_qubits
        if initial_state is None:
            state = Statevector.zero_state(num_qubits).data
        else:
            state = np.asarray(getattr(initial_state, "data", initial_state), dtype=complex)
        for instruction in circuit.instructions:
            if instruction.kind in (BARRIER, MEASURE):
                continue
            if instruction.kind != GATE or instruction.is_conditional:
                raise SimulationError(
                    f"the reference statevector simulator cannot execute {instruction.kind!r}"
                )
            full = expand_operator(
                np.asarray(instruction.matrix, dtype=complex), list(instruction.qubits), num_qubits
            )
            state = full @ state
        return Statevector(state, validate=False)
