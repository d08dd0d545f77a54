"""Shared hypothesis strategies for quantum objects."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.circuits.circuit import QuantumCircuit

__all__ = [
    "k_values",
    "overlaps",
    "angles",
    "single_qubit_statevectors",
    "two_qubit_statevectors",
    "single_qubit_density_matrices",
    "BRANCHING_CASES",
    "feed_forward_batches",
]

#: Resource-state parameters k (bounded away from pathological magnitudes).
k_values = st.floats(min_value=0.0, max_value=5.0, allow_nan=False, allow_infinity=False)

#: Entanglement levels f(Φ_k).
overlaps = st.floats(min_value=0.5, max_value=1.0, allow_nan=False, allow_infinity=False)

#: Rotation angles.
angles = st.floats(min_value=-2 * np.pi, max_value=2 * np.pi, allow_nan=False, allow_infinity=False)


def _complex_vector(dim: int):
    component = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False, allow_infinity=False)
    return st.tuples(*([component] * (2 * dim))).map(
        lambda parts: np.array(
            [parts[2 * i] + 1j * parts[2 * i + 1] for i in range(dim)], dtype=complex
        )
    )


def _normalised(vector: np.ndarray) -> np.ndarray:
    norm = np.linalg.norm(vector)
    if norm < 1e-6:
        base = np.zeros_like(vector)
        base[0] = 1.0
        return base
    return vector / norm


#: Normalised single-qubit pure states.
single_qubit_statevectors = _complex_vector(2).map(_normalised)

#: Normalised two-qubit pure states.
two_qubit_statevectors = _complex_vector(4).map(_normalised)


def _vector_to_density(vector: np.ndarray) -> np.ndarray:
    return np.outer(vector, vector.conj())


#: Single-qubit density matrices as mixtures of two random pure states.
single_qubit_density_matrices = st.tuples(
    single_qubit_statevectors,
    single_qubit_statevectors,
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
).map(lambda parts: parts[2] * _vector_to_density(parts[0]) + (1 - parts[2]) * _vector_to_density(parts[1]))


#: The mid-circuit measurement patterns that must keep classical branching
#: (a deferred measurement would change their outcome distribution):
#:
#: ``gate_reuse`` / ``reset_reuse`` / ``remeasure``
#:     the measured qubit is gated, reset or measured again;
#: ``clbit_rewritten``
#:     a second measurement overwrites the clbit;
#: ``condition_then_rewrite``
#:     a gate is conditioned on the clbit, which is rewritten later;
#: ``c_if_on_measured``
#:     the conditioned gate targets the measured qubit itself;
#: ``partial_register``
#:     only some qubits are measured and some clbits are never written.
BRANCHING_CASES = (
    "gate_reuse",
    "reset_reuse",
    "remeasure",
    "clbit_rewritten",
    "condition_then_rewrite",
    "c_if_on_measured",
    "partial_register",
)


def _apply_case(circuit: QuantumCircuit, case: str, qubit: int, other: int, angle) -> None:
    """Append the measurement motif ``case`` on ``qubit`` into clbit 0."""
    circuit.measure(qubit, 0)
    if case == "gate_reuse":
        circuit.ry(angle(), qubit)
    elif case == "reset_reuse":
        circuit.reset(qubit).ry(angle(), qubit)
    elif case == "remeasure":
        circuit.h(qubit).measure(qubit, 1)
    elif case == "clbit_rewritten":
        circuit.ry(angle(), other).measure(other, 0)
    elif case == "condition_then_rewrite":
        circuit.gate("ry", other, (angle(),), condition=(0, 1))
        circuit.measure(other, 0)
    elif case == "c_if_on_measured":
        circuit.x(qubit, condition=(0, 1))
        circuit.ry(angle(), qubit)
    # "partial_register": the final measurement below leaves qubits unread.


@st.composite
def feed_forward_batches(draw, case: str | None = None, max_qubits: int = 4, max_batch: int = 3):
    """Structurally identical circuits (differing only in rotation angles)
    built around one :data:`BRANCHING_CASES` motif.

    Each circuit entangles its qubits, runs the motif (on clbits 0 and 1),
    then a random tail of rotations, CX gates, measurements, conditioned
    rotations and teleport-style corrections, and finally measures a random
    subset of the qubits into clbits ``2…``.  A correction measures a qubit
    into a clbit of its own and rotates another qubit conditioned on it; the
    measured qubit is never used again, so that measurement is deferrable.
    Clbit ``num_qubits + 2`` is never written.
    """
    case = draw(st.sampled_from(BRANCHING_CASES)) if case is None else case
    num_qubits = draw(st.integers(min_value=2, max_value=max_qubits))
    spare = num_qubits + 2
    qubit, other = draw(st.permutations(range(num_qubits)))[:2]
    retired: set[int] = set()
    tail = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        kind = draw(st.sampled_from(("ry", "cx", "measure", "conditional", "correction")))
        live = [q for q in range(num_qubits) if q not in retired]
        target, partner = draw(st.permutations(live))[:2] if len(live) > 1 else (live[0], None)
        if kind == "cx" and partner is not None:
            tail.append(("cx", partner, target))
        elif kind == "measure":
            tail.append(("measure", target, draw(st.integers(0, spare - 1))))
        elif kind == "conditional":
            condition = (draw(st.integers(0, spare)), draw(st.integers(0, 1)))
            tail.append(("conditional", target, condition))
        elif kind == "correction" and partner is not None:
            clbit = spare + 1 + len(retired)
            tail.append(("measure", target, clbit))
            tail.append(("conditional", partner, (clbit, draw(st.integers(0, 1)))))
            retired.add(target)
        else:
            tail.append(("ry", target, None))
    live = [q for q in range(num_qubits) if q not in retired]
    final = draw(st.lists(st.sampled_from(live), unique=True, max_size=len(live)))
    if case == "partial_register":
        final = final[: num_qubits - 1]

    def angle():
        return draw(st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False))

    circuits = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_batch))):
        circuit = QuantumCircuit(num_qubits, spare + 1 + len(retired), name=f"feed_forward_{case}")
        for q in range(num_qubits):
            circuit.ry(angle(), q)
        for q in range(num_qubits - 1):
            circuit.cx(q, q + 1)
        _apply_case(circuit, case, qubit, other, angle)
        for kind, first, second in tail:
            if kind == "cx":
                circuit.cx(first, second)
            elif kind == "measure":
                circuit.measure(first, second)
            elif kind == "conditional":
                circuit.gate("ry", first, (angle(),), condition=second)
            else:
                circuit.ry(angle(), first)
        for position, q in enumerate(final):
            circuit.measure(q, 2 + position)
        circuits.append(circuit)
    return circuits
