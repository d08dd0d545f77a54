"""Batched exact simulation of structurally identical circuits.

The QPD term circuits of a parameter sweep are *structurally* identical: for
a fixed (protocol, term) the instruction stream — gate positions, measured
qubits, classical conditions — is the same for every input state, and only
the numeric payload (the state-preparation unitary or ``initialize`` vector)
differs.  :class:`BatchedDensityMatrixSimulator` exploits this by stacking
all circuits of such a *structure group* into one ``(batch, dim, dim)``
density-matrix array and executing the shared instruction stream once, with
every linear-algebra step broadcast over the batch axis.

Deferred measurement
--------------------

Only measurements that really are mid-circuit split the state.  A
measurement is *deferred* when its qubit is never touched again, no other
measurement writes its classical bit, and every later instruction
conditioned on that bit is a gate.  A deferred measurement leaves the state
whole: each later gate conditioned on its bit becomes the same gate
controlled on the measured qubit (:func:`~repro.circuits.kernels.apply_controlled_unitary`),
and the outcome probabilities are read off the final diagonal.  Every other
measurement (qubit reset, re-measured or gated afterwards; bit rewritten;
bit read by a non-gate) still branches: the simulator keeps one
``(batch, dim, dim)`` stack per value of the *branching* bits, each stack
holding every deferred outcome as a diagonal block.  Which measurements
defer depends only on the structure, so the plan is built once per
:func:`structure_signature`.

The arithmetic stays operation-for-operation identical to
:class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`,
which branches on every measurement: a diagonal block of a stack holds
exactly the entries of the serial simulator's branch state; each outcome
probability is the sum of the masked full diagonal in index order (what
``np.trace`` of the projected piece sums); and the ``1e-16`` measurement
pruning and ``1e-15`` final pruning are replayed per outcome, at the point
of each measurement.  The classical distributions therefore match the serial
simulator bitwise, key order included, which is what lets every execution
backend guarantee seed-identical results.
"""

from __future__ import annotations

import time
from collections import Counter
from collections.abc import Sequence
from functools import lru_cache

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import BARRIER, GATE, INITIALIZE, MEASURE, RESET, Instruction
from repro.circuits.kernels import (
    apply_controlled_unitary,
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
#: Measurement pieces whose probability is at or below this value are not
#: tracked (matches ``DensityMatrixSimulator._apply_measure``).
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


@lru_cache(maxsize=512)
def _measurement_plan(signature: tuple) -> tuple[frozenset[int], dict[int, tuple[int, int]]]:
    """Return the deferred measurement positions and the deferred controls.

    The controls map the position of every gate conditioned on a deferred
    measurement's bit (after that measurement) to ``(qubit, value)``: the
    gate runs controlled on the measured qubit instead of on a branch.
    """
    _, _, ops = signature
    writes = Counter(clbits[0] for kind, _, clbits, _, _ in ops if kind == MEASURE)
    deferred: set[int] = set()
    controls: dict[int, tuple[int, int]] = {}
    for position, (kind, qubits, clbits, _, _) in enumerate(ops):
        if kind != MEASURE or writes[clbits[0]] > 1:
            continue
        qubit, clbit = qubits[0], clbits[0]
        later = list(enumerate(ops[position + 1 :], start=position + 1))
        # Signature ops are (kind, qubits, clbits, condition, matrix shape).
        readers = {at: op for at, op in later if op[3] is not None and op[3][0] == clbit}
        if any(qubit in op[1] for _, op in later) or any(op[0] != GATE for op in readers.values()):
            continue
        deferred.add(position)
        controls.update({at: (qubit, op[3][1]) for at, op in readers.items()})
    return frozenset(deferred), controls


def _all_equal(matrices: list[np.ndarray]) -> bool:
    first = matrices[0]
    return all(matrix is first or np.array_equal(matrix, first) for matrix in matrices[1:])


def _pattern_traces(stack: np.ndarray, qubits: Sequence[int], num_qubits: int) -> np.ndarray:
    """Return the ``(batch, 2^j)`` traces of each outcome block of ``qubits``.

    Column ``p`` is the probability of outcome pattern ``p`` (first qubit
    most significant): the diagonal with every other entry zeroed, summed in
    index order — bitwise what ``np.trace`` returns for the projected piece.
    """
    dim = stack.shape[-1]
    indices = np.arange(dim)
    patterns = np.zeros(dim, dtype=np.intp)
    for qubit in qubits:
        patterns = (patterns << 1) | ((indices >> (num_qubits - 1 - qubit)) & 1)
    masked = np.zeros((stack.shape[0], 2 ** len(qubits), dim), dtype=complex)
    masked[:, patterns, indices] = np.diagonal(stack, axis1=1, axis2=2)
    return masked.sum(axis=-1).real


def _zero_dead(
    stack: np.ndarray, alive: np.ndarray, qubits: Sequence[int], num_qubits: int
) -> np.ndarray:
    """Return ``stack`` with the outcome blocks that ``alive`` marks pruned zeroed.

    The serial simulator drops a pruned piece, so a later merge of two
    branches must not add its (tiny) entries.
    """
    dead = np.argwhere(~alive)
    if not len(dead):
        return stack
    stack = stack.copy()
    tensor = stack.reshape((stack.shape[0],) + (2,) * (2 * num_qubits))
    j = len(qubits)
    for element, pattern in dead:
        index: list = [element] + [slice(None)] * (2 * num_qubits)
        for position, qubit in enumerate(qubits):
            bit = (pattern >> (j - 1 - position)) & 1
            index[1 + qubit] = index[1 + num_qubits + qubit] = bit
        tensor[tuple(index)] = 0.0
    return stack


class BatchedDensityMatrixSimulator:
    """Exact density-matrix simulation of a batch of circuits, branching
    only on mid-circuit measurements.

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
        deferred_positions, controls = _measurement_plan(signature)
        batch = len(circuits)
        num_qubits = circuits[0].num_qubits
        num_clbits = circuits[0].num_clbits
        dim = 2**num_qubits

        rho = np.zeros((batch, dim, dim), dtype=complex)
        rho[:, 0, 0] = 1.0
        # Branch table: value of the branching clbits (deferred ones stay 0)
        # -> ((batch, dim, dim) stack, (batch, 2^j) mask of the live outcome
        # patterns of the j deferred measurements so far).
        branches: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {
            tuple([0] * num_clbits): (rho, np.ones((batch, 1), dtype=bool))
        }
        # (qubit, clbit) of every deferred measurement so far, in order.
        deferred: list[tuple[int, int]] = []

        streams = [_active_instructions(circuit) for circuit in circuits]
        for position, template in enumerate(streams[0]):
            matrices = [stream[position].matrix for stream in streams]
            if template.kind == GATE:
                branches = self._apply_gate(
                    branches, template, matrices, controls.get(position), num_qubits
                )
            elif template.kind == MEASURE and position in deferred_positions:
                deferred.append((template.qubits[0], template.clbits[0]))
                branches = self._defer_measure(
                    branches, [qubit for qubit, _ in deferred], num_qubits
                )
            elif template.kind == MEASURE:
                branches = self._apply_measure(
                    branches, template, [qubit for qubit, _ in deferred], num_qubits
                )
            elif template.kind == RESET:
                branches = {
                    clbits: (apply_reset(stack, template.qubits[0], num_qubits), alive)
                    for clbits, (stack, alive) in branches.items()
                }
            elif template.kind == INITIALIZE:
                branches = self._apply_initialize(branches, template, matrices, num_qubits)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unsupported instruction kind {template.kind!r}")

        return self._distributions(branches, deferred, batch, num_qubits)

    # -- instruction handlers ---------------------------------------------------

    @staticmethod
    def _apply_gate(
        branches: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]],
        template: Instruction,
        matrices: list[np.ndarray],
        control: tuple[int, int] | None,
        num_qubits: int,
    ) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
        qubits = list(template.qubits)
        if _all_equal(matrices):
            operator = prepare_operator(matrices[0])
        else:
            operator = np.ascontiguousarray(matrices, dtype=complex)
        updated: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        applications = 0
        start = time.perf_counter()
        for clbits, (stack, alive) in branches.items():
            if control is not None:
                stack = apply_controlled_unitary(stack, operator, qubits, *control, num_qubits)
            elif template.condition is not None and clbits[template.condition[0]] != template.condition[1]:
                updated[clbits] = (stack, alive)
                continue
            else:
                stack = apply_unitary(stack, operator, qubits, num_qubits)
            updated[clbits] = (stack, alive)
            applications += stack.shape[0]
        if applications:
            record_gate_application(len(qubits), time.perf_counter() - start, count=applications)
        return updated

    @staticmethod
    def _defer_measure(
        branches: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]],
        deferred_qubits: list[int],
        num_qubits: int,
    ) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
        """Split every live outcome pattern on ``deferred_qubits[-1]``, state untouched.

        A pattern lives on when its parent lived and its own block carries
        more than the measurement pruning threshold now, as in the serial
        simulator, which drops the projected piece otherwise.
        """
        return {
            clbits: (
                stack,
                np.repeat(alive, 2, axis=1)
                & (_pattern_traces(stack, deferred_qubits, num_qubits) > _PRUNE_MEASURE),
            )
            for clbits, (stack, alive) in branches.items()
        }

    @staticmethod
    def _apply_measure(
        branches: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]],
        template: Instruction,
        deferred_qubits: list[int],
        num_qubits: int,
    ) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
        qubit = template.qubits[0]
        clbit = template.clbits[0]
        updated: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]] = {}
        for clbits, (stack, alive) in branches.items():
            for outcome, piece in enumerate(project_qubit(stack, qubit, num_qubits)):
                traces = _pattern_traces(piece, deferred_qubits, num_qubits)
                piece_alive = alive & (traces > _PRUNE_MEASURE)
                if not piece_alive.any():
                    # This piece is impossible for every circuit in the batch;
                    # skip it entirely.
                    continue
                new_clbits = list(clbits)
                new_clbits[clbit] = outcome
                key = tuple(new_clbits)
                if key in updated:
                    # A rewritten clbit merges two branches; add only the
                    # pieces the serial simulator kept.
                    other, other_alive = updated[key]
                    updated[key] = (
                        _zero_dead(other, other_alive, deferred_qubits, num_qubits)
                        + _zero_dead(piece, piece_alive, deferred_qubits, num_qubits),
                        other_alive | piece_alive,
                    )
                else:
                    updated[key] = (piece, piece_alive)
        return updated

    @staticmethod
    def _apply_initialize(
        branches: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]],
        template: Instruction,
        matrices: list[np.ndarray],
        num_qubits: int,
    ) -> dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]]:
        qubits = list(template.qubits)
        targets = [np.asarray(matrix, dtype=complex).ravel() for matrix in matrices]
        # A shared target broadcasts; distinct targets stack along the batch
        # axis.  Either way the block arithmetic matches the serial kernel
        # slice for slice.
        payload = targets[0] if _all_equal(targets) else np.ascontiguousarray(targets)
        return {
            clbits: (apply_initialize(stack, payload, qubits, num_qubits), alive)
            for clbits, (stack, alive) in branches.items()
        }

    # -- result assembly --------------------------------------------------------

    @staticmethod
    def _distributions(
        branches: dict[tuple[int, ...], tuple[np.ndarray, np.ndarray]],
        deferred: list[tuple[int, int]],
        batch: int,
        num_qubits: int,
    ) -> list[dict[str, float]]:
        deferred_qubits = [qubit for qubit, _ in deferred]
        j = len(deferred)
        rows: list[tuple[tuple[int, ...], np.ndarray]] = []
        for clbits, (stack, alive) in branches.items():
            # (batch, 2^j) probabilities; pruned outcomes read as 0.
            probabilities = np.where(alive, _pattern_traces(stack, deferred_qubits, num_qubits), 0.0)
            for pattern in range(2**j):
                key = list(clbits)
                for position, (_, clbit) in enumerate(deferred):
                    key[clbit] = (pattern >> (j - 1 - position)) & 1
                rows.append((tuple(key), probabilities[:, pattern]))
        rows.sort(key=lambda row: row[0])
        keys = ["".join(str(b) for b in clbits) for clbits, _ in rows]
        results: list[dict[str, float]] = []
        for element in range(batch):
            distribution = {
                key: float(probabilities[element])
                for key, (_, probabilities) in zip(keys, rows)
                if probabilities[element] > _PRUNE_FINAL
            }
            results.append(distribution)
        return results
