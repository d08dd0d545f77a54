"""Shared cut workloads for the distributed and adaptive test suites.

The distributed suite repeatedly needs the raw ingredients of an adaptive
estimation — the measured term-circuit batch, the selected classical bits
and the QPD coefficients — without going through the full pipeline.  This
module builds them once, the same way ``estimate_multi_cut_expectation``
does.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cutting import CutLocation, NMEWireCut
from repro.cutting.multi_wire import build_multi_cut_circuits, measured_multi_cut_circuit
from repro.experiments import ghz_circuit
from repro.quantum.paulis import PauliString


@dataclass(frozen=True)
class CutWorkload:
    """The executable ingredients of one single-cut adaptive estimation."""

    measured_circuits: list
    selected_clbits: list
    coefficients: list
    labels: list


def ghz_cut_workload(num_qubits: int = 3, overlap: float = 0.8) -> CutWorkload:
    """Build the measured batch of a GHZ(n) circuit cut once at qubit 1.

    Returns the exact batch ``estimate_multi_cut_expectation`` would
    execute, so engine-level distributed tests exercise the real term
    structure (sign bits, unmeasured identity terms and all).
    """
    circuit = ghz_circuit(num_qubits)
    location = CutLocation(qubit=1, position=2)
    protocol = NMEWireCut.from_overlap(overlap)
    pauli = PauliString("Z" * num_qubits)
    term_circuits = build_multi_cut_circuits(circuit, [location], [protocol])
    measured = [measured_multi_cut_circuit(term, pauli) for term in term_circuits]
    return CutWorkload(
        measured_circuits=[circuit for circuit, _ in measured],
        selected_clbits=[selected for _, selected in measured],
        coefficients=[term.coefficient for term in term_circuits],
        labels=[term.label for term in term_circuits],
    )
