"""Seeded inputs of the four workloads.

A circuit is described as a list of ``(name, qubits, params)`` gates so the
same description feeds both the program (:func:`build_circuit`) and the
benchmark's own statevector (:func:`checks.statevector_expectation`).  All
randomness comes from ``numpy.random.default_rng`` streams derived from the
workload seed; the program receives only the generated circuits and seeds.
"""

from __future__ import annotations

import math

import numpy as np

Ops = list[tuple[str, tuple[int, ...], tuple[float, ...]]]

#: NME overlaps ``f(Φ_k)`` cycled over the estimates of ``nme_ghz4_2cut``.
NME_OVERLAPS = (0.6, 0.75, 0.9)

#: The observables estimated on every fresh ``chain_3cut_instances`` circuit.
CHAIN_OBSERVABLES = ("ZZZZI", "ZZIZZ", "IZZZZ", "IIZZI")

#: Slice positions of the 3-cut chain plan (after instructions 4, 7 and 10).
CHAIN_POSITIONS = (4, 7, 10)

#: Stream key of warm-up inputs, apart from every estimate's key.
WARM_UP = 2**32 - 1


def stream(seed: int, *key: int) -> np.random.Generator:
    """Return the generator of one input stream of a workload seed."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def program_seed(seed: int, *key: int) -> int:
    """Return the integer seed handed to the program for one estimate."""
    return int(np.random.SeedSequence([int(seed), *map(int, key)]).generate_state(1)[0])


def ghz_ops(num_qubits: int, angles: list[float] | None = None) -> Ops:
    """GHZ preparation with an optional ``ry`` before every link and at the end.

    The rotations keep the chain shape (every wire ends right after its
    last link), so the planner cuts it exactly like the plain GHZ circuit.
    """
    ops: Ops = [("h", (0,), ())]
    for qubit in range(num_qubits - 1):
        if angles is not None:
            ops.append(("ry", (qubit,), (angles[qubit],)))
        ops.append(("cx", (qubit, qubit + 1), ()))
    if angles is not None:
        ops.append(("ry", (num_qubits - 1,), (angles[num_qubits - 1],)))
    return ops


def random_ghz_ops(rng: np.random.Generator, num_qubits: int) -> Ops:
    """A GHZ-shaped circuit with fresh ``ry`` angles drawn from ``rng``."""
    return ghz_ops(num_qubits, [float(a) for a in rng.uniform(0.0, 2.0 * math.pi, num_qubits)])


def balanced_ghz_ops(rng: np.random.Generator, num_qubits: int, spread: float = 0.25) -> Ops:
    """A GHZ-shaped circuit with fresh ``ry`` angles within ``spread`` of π/2.

    Angles near π/2 keep every QPD term's mean near 0, where its variance is
    largest and nearly constant, so the shots an adaptive run needs to reach
    its target error barely vary from one circuit to the next.
    """
    low, high = math.pi / 2.0 - spread, math.pi / 2.0 + spread
    return ghz_ops(num_qubits, [float(a) for a in rng.uniform(low, high, num_qubits)])


def chain_ops(rng: np.random.Generator, num_qubits: int = 5) -> Ops:
    """The chain workload: ``h``, then ``rz``–``cx``–``rx`` per link, fresh angles."""
    ops: Ops = [("h", (0,), ())]
    for qubit in range(num_qubits - 1):
        ops.append(("rz", (qubit,), (float(rng.uniform(0.0, 2.0 * math.pi)),)))
        ops.append(("cx", (qubit, qubit + 1), ()))
        ops.append(("rx", (qubit + 1,), (float(rng.uniform(0.0, 2.0 * math.pi)),)))
    return ops


def build_circuit(num_qubits: int, ops: Ops, name: str):
    """Build the program's ``QuantumCircuit`` for a gate list."""
    from repro.circuits.circuit import QuantumCircuit

    circuit = QuantumCircuit(num_qubits, name=name)
    for gate, qubits, params in ops:
        circuit.gate(gate, qubits, params)
    return circuit
