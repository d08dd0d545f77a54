"""Batched exact simulation of structurally identical circuits.

The QPD term circuits of a parameter sweep are *structurally* identical: for
a fixed (protocol, term) the instruction stream — gate positions, measured
qubits, classical conditions — is the same for every input state, and only
the numeric payload (the state-preparation unitary or ``initialize`` vector)
differs.  :class:`BatchedDensityMatrixSimulator` exploits this by stacking
all circuits of such a *structure group* into one ``(batch, dim, dim)``
density-matrix array and executing the shared instruction stream once, with
every linear-algebra step broadcast over the batch axis.

The per-slice arithmetic is kept operation-for-operation identical to
:class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`
(same operators, same trace and pruning thresholds; the axis-local kernels of
:mod:`repro.circuits.kernels` are shared functions that broadcast over an
optional batch axis), so the classical distributions produced for a batch of
size 1 match the serial simulator bitwise; this is what lets the vectorized
execution backend guarantee seed-identical results to the serial one.
"""

from __future__ import annotations

import time
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import BARRIER, GATE, INITIALIZE, MEASURE, RESET, Instruction
from repro.circuits.kernels import (
    apply_initialize,
    apply_reset,
    apply_unitary,
    prepare_operator,
    project_qubit,
    record_gate_application,
)

__all__ = ["BatchedDensityMatrixSimulator", "structure_signature"]

#: Branch probabilities at or below this value are dropped from the final
#: classical distribution (matches ``DensityMatrixSimulator.run``).
_PRUNE_FINAL = 1e-15
#: Measurement pieces whose probability is at or below this value across the
#: whole batch are not tracked (matches ``DensityMatrixSimulator._apply_measure``).
_PRUNE_MEASURE = 1e-16


def _active_instructions(circuit: QuantumCircuit) -> list[Instruction]:
    """Return the circuit's instructions with no-op barriers removed."""
    return [ins for ins in circuit.instructions if ins.kind != BARRIER]


def structure_signature(circuit: QuantumCircuit) -> tuple:
    """Return a hashable key identifying the circuit's batchable structure.

    Two circuits with equal signatures run the same instruction stream over
    the same registers and differ at most in gate unitaries and ``initialize``
    vectors — exactly the condition under which they can share one batched
    execution.
    """
    ops = tuple(
        (ins.kind, ins.qubits, ins.clbits, ins.condition, None if ins.matrix is None else ins.matrix.shape)
        for ins in _active_instructions(circuit)
    )
    return (circuit.num_qubits, circuit.num_clbits, ops)


def _all_equal(matrices: list[np.ndarray]) -> bool:
    first = matrices[0]
    return all(matrix is first or np.array_equal(matrix, first) for matrix in matrices[1:])


class BatchedDensityMatrixSimulator:
    """Exact branching density-matrix simulation of a batch of circuits.

    All circuits handed to :meth:`run_group` must share the same
    :func:`structure_signature`; callers group arbitrary circuit batches with
    that key (see :class:`~repro.circuits.backends.VectorizedBackend`).
    """

    def run_group(self, circuits: Sequence[QuantumCircuit]) -> list[dict[str, float]]:
        """Execute structurally identical ``circuits`` and return per-circuit
        exact classical-outcome distributions (bitstring → probability)."""
        if not circuits:
            return []
        signature = structure_signature(circuits[0])
        for circuit in circuits[1:]:
            if structure_signature(circuit) != signature:
                raise SimulationError(
                    "run_group requires structurally identical circuits; "
                    f"{circuit.name!r} does not match {circuits[0].name!r}"
                )
        batch = len(circuits)
        num_qubits = circuits[0].num_qubits
        num_clbits = circuits[0].num_clbits
        dim = 2**num_qubits

        rho = np.zeros((batch, dim, dim), dtype=complex)
        rho[:, 0, 0] = 1.0
        # Branch table: classical value (tuple of bits) -> (batch, dim, dim) stack.
        branches: dict[tuple[int, ...], np.ndarray] = {tuple([0] * num_clbits): rho}

        streams = [_active_instructions(circuit) for circuit in circuits]
        for position, template in enumerate(streams[0]):
            matrices = [stream[position].matrix for stream in streams]
            if template.kind == GATE:
                branches = self._apply_gate(branches, template, matrices, num_qubits)
            elif template.kind == MEASURE:
                branches = self._apply_measure(branches, template, num_qubits)
            elif template.kind == RESET:
                branches = self._apply_reset(branches, template, num_qubits)
            elif template.kind == INITIALIZE:
                branches = self._apply_initialize(branches, template, matrices, num_qubits)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unsupported instruction kind {template.kind!r}")

        return self._distributions(branches, batch)

    # -- instruction handlers ---------------------------------------------------

    @staticmethod
    def _apply_gate(
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        matrices: list[np.ndarray],
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(template.qubits)
        if _all_equal(matrices):
            operator = prepare_operator(matrices[0])
        else:
            operator = np.ascontiguousarray(matrices, dtype=complex)
        updated: dict[tuple[int, ...], np.ndarray] = {}
        applications = 0
        start = time.perf_counter()
        for clbits, stack in branches.items():
            if template.condition is not None:
                clbit, value = template.condition
                if clbits[clbit] != value:
                    updated[clbits] = stack
                    continue
            updated[clbits] = apply_unitary(stack, operator, qubits, num_qubits)
            applications += stack.shape[0]
        if applications:
            record_gate_application(len(qubits), time.perf_counter() - start, count=applications)
        return updated

    @staticmethod
    def _apply_measure(
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = template.qubits[0]
        clbit = template.clbits[0]
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, stack in branches.items():
            for outcome, piece in enumerate(project_qubit(stack, qubit, num_qubits)):
                traces = np.trace(piece, axis1=1, axis2=2).real
                dead = traces <= _PRUNE_MEASURE
                if np.all(dead):
                    # This branch is impossible for every circuit in the batch
                    # (e.g. a deterministic correction bit); skip it entirely.
                    continue
                if np.any(dead):
                    # Zero the slices the serial simulator would have dropped,
                    # so downstream merges see exactly its contributions.
                    piece[dead] = 0.0
                new_clbits = list(clbits)
                new_clbits[clbit] = outcome
                key = tuple(new_clbits)
                if key in updated:
                    updated[key] = updated[key] + piece
                else:
                    updated[key] = piece
        return updated

    @staticmethod
    def _apply_reset(
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = template.qubits[0]
        return {
            clbits: apply_reset(stack, qubit, num_qubits) for clbits, stack in branches.items()
        }

    @staticmethod
    def _apply_initialize(
        branches: dict[tuple[int, ...], np.ndarray],
        template: Instruction,
        matrices: list[np.ndarray],
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(template.qubits)
        targets = [np.asarray(matrix, dtype=complex).ravel() for matrix in matrices]
        # A shared target broadcasts; distinct targets stack along the batch
        # axis.  Either way the block arithmetic matches the serial kernel
        # slice for slice.
        payload = targets[0] if _all_equal(targets) else np.ascontiguousarray(targets)
        return {
            clbits: apply_initialize(stack, payload, qubits, num_qubits)
            for clbits, stack in branches.items()
        }

    # -- result assembly --------------------------------------------------------

    @staticmethod
    def _distributions(
        branches: dict[tuple[int, ...], np.ndarray], batch: int
    ) -> list[dict[str, float]]:
        ordered = sorted(branches.items(), key=lambda item: item[0])
        keys = ["".join(str(b) for b in clbits) for clbits, _ in ordered]
        # (num_branches, batch) probability matrix.
        probabilities = np.stack(
            [np.trace(stack, axis1=1, axis2=2).real for _, stack in ordered]
        )
        results: list[dict[str, float]] = []
        for element in range(batch):
            distribution = {
                key: float(probabilities[row, element])
                for row, key in enumerate(keys)
                if probabilities[row, element] > _PRUNE_FINAL
            }
            results.append(distribution)
        return results
