"""Unit tests for exact expectation values and sampled uncut estimates.

An uncut circuit is sampled as the zero-cut case of the pipeline, which
measures it through the term executor's observable measurement.
"""

import numpy as np
import pytest

from repro.exceptions import CuttingError, GateError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.multi_wire import MultiCutTermCircuit, measured_multi_cut_circuit
from repro.pipeline import CutPipeline
from repro.quantum.paulis import PauliString


class TestExactExpectation:
    def test_unitary_circuit(self):
        circuit = QuantumCircuit(1)
        circuit.ry(1.1, 0)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert exact_expectation(circuit, z) == pytest.approx(np.cos(1.1))

    def test_accepts_pauli_string(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        assert exact_expectation(circuit, PauliString("ZZ")) == pytest.approx(1.0)
        assert exact_expectation(circuit, PauliString("XX")) == pytest.approx(1.0)
        assert exact_expectation(circuit, PauliString("ZI")) == pytest.approx(0.0)

    def test_non_unitary_circuit_uses_density_path(self):
        circuit = QuantumCircuit(1, 1)
        circuit.h(0).measure(0, 0)
        z = np.diag([1.0, -1.0]).astype(complex)
        assert exact_expectation(circuit, z) == pytest.approx(0.0)


def _basis_change_ops(label: str) -> dict[str, int]:
    """Gates the term executor appends to measure ``label`` on an uncut qubit."""
    circuit = QuantumCircuit(1)
    term = MultiCutTermCircuit(
        circuit=circuit,
        coefficient=1.0,
        term_indices=(),
        qubit_map={0: 0},
        sign_clbits=(),
        labels=(),
    )
    measured, selected = measured_multi_cut_circuit(term, PauliString(label))
    assert selected == [0]
    ops = measured.count_ops()
    assert ops.pop("measure") == 1
    return ops


class TestBasisChange:
    def test_z_basis_is_empty(self):
        assert _basis_change_ops("Z") == {}

    def test_x_basis_is_h(self):
        assert _basis_change_ops("X") == {"h": 1}

    def test_y_basis(self):
        assert _basis_change_ops("Y") == {"sdg": 1, "h": 1}

    def test_unknown_basis(self):
        with pytest.raises(GateError):
            PauliString("Q")


def _sampled(circuit: QuantumCircuit, observable: str, shots: int, seed: int) -> float:
    """Sample ``observable`` on the uncut circuit: the pipeline's zero-cut plan."""
    result = CutPipeline(max_fragment_width=circuit.num_qubits).run(
        circuit, observable, shots, seed=seed
    )
    assert result.plan.num_cuts == 0
    return result.value


class TestSampledExpectation:
    def test_z_observable(self):
        circuit = QuantumCircuit(1)
        circuit.ry(0.9, 0)
        value = _sampled(circuit, "Z", shots=40_000, seed=0)
        assert value == pytest.approx(np.cos(0.9), abs=0.02)

    def test_x_observable(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        value = _sampled(circuit, "X", shots=5000, seed=1)
        assert value == pytest.approx(1.0)

    def test_y_observable(self):
        circuit = QuantumCircuit(1)
        circuit.h(0).s(0)
        value = _sampled(circuit, "Y", shots=5000, seed=2)
        assert value == pytest.approx(1.0)

    def test_two_qubit_parity(self):
        circuit = QuantumCircuit(2)
        circuit.h(0).cx(0, 1)
        value = _sampled(circuit, "ZZ", shots=3000, seed=3)
        assert value == pytest.approx(1.0)

    def test_identity_observable(self):
        circuit = QuantumCircuit(1)
        assert _sampled(circuit, "I", shots=10, seed=0) == 1.0

    def test_subset_of_qubits(self):
        circuit = QuantumCircuit(2)
        circuit.x(1)
        value = _sampled(circuit, "IZ", shots=1000, seed=4)
        assert value == pytest.approx(-1.0)

    def test_label_count_mismatch(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        with pytest.raises(CuttingError):
            _sampled(circuit, "ZZZ", shots=10, seed=0)

    def test_matches_exact_within_statistics(self):
        circuit = QuantumCircuit(2)
        circuit.ry(0.6, 0).cx(0, 1).rz(0.3, 1)
        exact = exact_expectation(circuit, PauliString("ZZ"))
        sampled = _sampled(circuit, "ZZ", shots=40_000, seed=5)
        assert sampled == pytest.approx(exact, abs=0.02)
