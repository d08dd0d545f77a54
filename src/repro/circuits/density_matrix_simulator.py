"""Exact density-matrix simulation with classical branching.

This simulator executes the *full* instruction set — gates, mid-circuit
measurement, classically conditioned gates, reset and initialise — exactly.
It maintains one (sub-normalised) density matrix per classical-register
value reached so far, which keeps feed-forward exact: a conditioned gate is
applied only to the branches whose classical bits satisfy the condition.

The number of branches is up to ``2^{#measurements}``, terminal
measurements included: a measured 2-cut NME term circuit has 8 measurements
and up to 256 dense branches.  This simulator returns the branch states,
which :mod:`repro.circuits.expectation`,
:class:`~repro.circuits.shot_simulator.ShotSimulator` and the gate-noise
path of :class:`repro.devices.NoisyDeviceBackend` use.  The execution
backends only need outcome distributions and run
:class:`~repro.circuits.batched_simulator.BatchedDensityMatrixSimulator`,
which defers every measurement that is not really mid-circuit and matches
this simulator's distributions bitwise.

Simulation kernel
-----------------

Gates are applied with the axis-local kernels of
:mod:`repro.circuits.kernels`: the density matrix is viewed as a
rank-``2n`` tensor and each k-qubit gate touches only its target axes —
O(4^n · 2^k) per gate instead of the O(8^n) full-space sandwich.
Measurement, reset and initialise are axis-sliced block moves.  The test
suite checks this simulator against a full-space reference simulator
(``tests/reference/dense.py``).

Gate noise
----------

The simulator accepts an optional ``gate_noise`` hook: a callable receiving
each ``gate`` instruction and returning *local* Kraus operators (acting on
the instruction's qubits, in instruction order) to apply immediately after
the gate, or ``None`` for no noise.  Because a density matrix is evolved,
arbitrary CPTP noise — depolarising, amplitude damping, their compositions —
is exact, not sampled.  This is the mechanism behind
:class:`repro.devices.NoisyDeviceBackend`; the hook lives here so the
circuits layer stays ignorant of device modelling.  The Kraus operators are
applied locally, and their prepared tensor forms are memoised in the shared
operator LRU.
"""

from __future__ import annotations

import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.instruction import BARRIER, GATE, INITIALIZE, MEASURE, RESET
from repro.circuits.kernels import (
    apply_initialize,
    apply_kraus,
    apply_reset,
    apply_unitary,
    prepare_operator,
    project_qubit,
    record_gate_application,
)
from repro.quantum.states import DensityMatrix, Statevector

__all__ = ["DensityMatrixSimulator", "BranchedResult", "Branch", "GateNoiseHook"]


@dataclass(frozen=True)
class Branch:
    """One classical branch of an executed circuit.

    Attributes
    ----------
    clbits:
        The classical register value of this branch (bit 0 first).
    probability:
        The probability of ending in this branch.
    state:
        The *normalised* conditional quantum state of the branch; ``None``
        when the branch has zero probability.
    """

    clbits: tuple[int, ...]
    probability: float
    state: DensityMatrix | None

    @property
    def bitstring(self) -> str:
        """The branch's classical value as a bitstring (clbit 0 leftmost)."""
        return "".join(str(b) for b in self.clbits)


@dataclass(frozen=True)
class BranchedResult:
    """Exact result of a density-matrix simulation.

    Attributes
    ----------
    branches:
        All classical branches with non-zero probability.
    num_clbits:
        Width of the classical register.
    """

    branches: tuple[Branch, ...]
    num_clbits: int

    def classical_distribution(self) -> dict[str, float]:
        """Return the exact probability of each classical-register value."""
        distribution: dict[str, float] = {}
        for branch in self.branches:
            distribution[branch.bitstring] = distribution.get(branch.bitstring, 0.0) + branch.probability
        return distribution

    def average_state(self) -> DensityMatrix:
        """Return the ensemble-average density matrix over all branches."""
        total = None
        for branch in self.branches:
            if branch.state is None:
                continue
            contribution = branch.probability * branch.state.data
            total = contribution if total is None else total + contribution
        if total is None:
            raise SimulationError("no branch carries probability")
        return DensityMatrix(total, validate=False)

    def expectation_value(self, observable: np.ndarray) -> complex:
        """Return ``Tr[O ρ_avg]`` over the branch-averaged state."""
        return self.average_state().expectation_value(observable)

    def conditional_state(self, bitstring: str) -> DensityMatrix:
        """Return the normalised state conditioned on a classical outcome."""
        matches = [b for b in self.branches if b.bitstring == bitstring and b.state is not None]
        if not matches:
            raise SimulationError(f"no branch with classical value {bitstring!r}")
        weight = sum(b.probability for b in matches)
        total = sum(b.probability * b.state.data for b in matches)
        return DensityMatrix(total / weight, validate=False)


#: Signature of the optional gate-noise hook: instruction -> local Kraus
#: operators on the instruction's qubits, or None for a noiseless gate.
GateNoiseHook = Callable[..., "Sequence[np.ndarray] | None"]


class DensityMatrixSimulator:
    """Exact simulator supporting the full instruction set.

    Parameters
    ----------
    gate_noise:
        Optional hook called with every ``gate`` instruction; when it returns
        a sequence of Kraus operators (acting on the gate's qubits, in
        instruction order) the corresponding channel is applied right after
        the gate, on exactly the branches the gate acted on (classically
        conditioned gates stay noiseless on branches that skip them).
    """

    def __init__(self, gate_noise: GateNoiseHook | None = None):
        self._gate_noise = gate_noise

    def run(
        self,
        circuit: QuantumCircuit,
        initial_state: DensityMatrix | Statevector | np.ndarray | None = None,
    ) -> BranchedResult:
        """Execute ``circuit`` exactly and return all classical branches."""
        rho = self._initial_density(circuit, initial_state)
        num_qubits = circuit.num_qubits
        num_clbits = circuit.num_clbits
        # Branch table: classical value (tuple of bits) -> unnormalised density matrix.
        branches: dict[tuple[int, ...], np.ndarray] = {tuple([0] * num_clbits): rho}

        for instruction in circuit.instructions:
            if instruction.kind == BARRIER:
                continue
            if instruction.kind == GATE:
                branches = self._apply_gate(branches, instruction, num_qubits)
            elif instruction.kind == MEASURE:
                branches = self._apply_measure(branches, instruction, num_qubits)
            elif instruction.kind == RESET:
                branches = self._apply_reset(branches, instruction, num_qubits)
            elif instruction.kind == INITIALIZE:
                branches = self._apply_initialize(branches, instruction, num_qubits)
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unsupported instruction kind {instruction.kind!r}")

        result_branches = []
        for clbits, matrix in branches.items():
            probability = float(np.real(np.trace(matrix)))
            if probability <= 1e-15:
                continue
            state = DensityMatrix(matrix / probability, validate=False)
            result_branches.append(Branch(clbits=clbits, probability=probability, state=state))
        result_branches.sort(key=lambda b: b.clbits)
        return BranchedResult(branches=tuple(result_branches), num_clbits=num_clbits)

    # -- instruction handlers ---------------------------------------------------

    @staticmethod
    def _initial_density(
        circuit: QuantumCircuit,
        initial_state: DensityMatrix | Statevector | np.ndarray | None,
    ) -> np.ndarray:
        if initial_state is None:
            dim = 2**circuit.num_qubits
            rho = np.zeros((dim, dim), dtype=complex)
            rho[0, 0] = 1.0
            return rho
        if isinstance(initial_state, Statevector):
            rho = initial_state.to_density_matrix().data
        elif isinstance(initial_state, DensityMatrix):
            rho = initial_state.data.copy()
        else:
            array = np.asarray(initial_state, dtype=complex)
            rho = np.outer(array, array.conj()) if array.ndim == 1 else array.copy()
        if rho.shape != (2**circuit.num_qubits,) * 2:
            raise SimulationError(
                f"initial state dimension {rho.shape} does not match circuit "
                f"({circuit.num_qubits} qubits)"
            )
        return rho

    def _apply_gate(
        self,
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(instruction.qubits)
        kraus_local = None if self._gate_noise is None else self._gate_noise(instruction)
        prepared = prepare_operator(instruction.matrix)
        prepared_kraus = (
            None
            if kraus_local is None
            else [prepare_operator(np.asarray(k, dtype=complex)) for k in kraus_local]
        )

        updated: dict[tuple[int, ...], np.ndarray] = {}
        applications = 0
        start = time.perf_counter()
        for clbits, matrix in branches.items():
            if instruction.condition is not None:
                clbit, value = instruction.condition
                if clbits[clbit] != value:
                    updated[clbits] = matrix
                    continue
            evolved = apply_unitary(matrix, prepared, qubits, num_qubits)
            if prepared_kraus is not None:
                evolved = apply_kraus(evolved, prepared_kraus, qubits, num_qubits)
            updated[clbits] = evolved
            applications += 1
        if applications:
            record_gate_application(len(qubits), time.perf_counter() - start, count=applications)
        return updated

    @staticmethod
    def _apply_measure(
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = instruction.qubits[0]
        clbit = instruction.clbits[0]
        updated: dict[tuple[int, ...], np.ndarray] = {}
        for clbits, matrix in branches.items():
            for outcome, piece in enumerate(project_qubit(matrix, qubit, num_qubits)):
                if np.trace(piece).real <= 1e-16:
                    continue
                new_clbits = list(clbits)
                new_clbits[clbit] = outcome
                key = tuple(new_clbits)
                updated[key] = updated.get(key, 0) + piece
        return updated

    @staticmethod
    def _apply_reset(
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubit = instruction.qubits[0]
        return {
            clbits: apply_reset(matrix, qubit, num_qubits) for clbits, matrix in branches.items()
        }

    @staticmethod
    def _apply_initialize(
        branches: dict[tuple[int, ...], np.ndarray],
        instruction,
        num_qubits: int,
    ) -> dict[tuple[int, ...], np.ndarray]:
        qubits = list(instruction.qubits)
        target = np.asarray(instruction.matrix, dtype=complex).ravel()
        return {
            clbits: apply_initialize(matrix, target, qubits, num_qubits)
            for clbits, matrix in branches.items()
        }


def simulate_density_matrix(
    circuit: QuantumCircuit,
    initial_state: DensityMatrix | Statevector | np.ndarray | None = None,
) -> BranchedResult:
    """Convenience wrapper: run :class:`DensityMatrixSimulator` on ``circuit``."""
    return DensityMatrixSimulator().run(circuit, initial_state)
