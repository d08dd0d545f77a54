"""Unit tests for gate cutting (ZZ rotations and CZ)."""

import numpy as np
import pytest

from repro.exceptions import CuttingError
from repro.circuits.backends import resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.gate_cutting import (
    CZGateCut,
    ZZGateCut,
    build_gate_cut_circuits,
    estimate_gate_cut_expectation,
)
from repro.cutting.multi_wire import exact_probabilities_plus, execute_term_circuits
from repro.qpd.superop import apply_superoperator
from repro.quantum.paulis import PauliString
from repro.quantum.random import random_density_matrix
from tests.reference.dense import DenseStatevectorSimulator


class TestZZGateCut:
    @pytest.mark.parametrize("theta", [0.0, 0.2, np.pi / 4, np.pi / 2, 1.3])
    def test_reconstructs_target_channel(self, theta):
        protocol = ZZGateCut(theta)
        target = protocol.target_unitary()
        total = sum(t.coefficient * t.superoperator() for t in protocol.terms)
        rho = random_density_matrix(2, seed=1).data
        assert np.allclose(
            apply_superoperator(total, rho), target @ rho @ target.conj().T, atol=1e-9
        )

    @pytest.mark.parametrize("theta", [0.0, 0.3, np.pi / 4, 1.0])
    def test_kappa_formula(self, theta):
        protocol = ZZGateCut(theta)
        assert protocol.kappa == pytest.approx(protocol.theoretical_overhead())
        assert protocol.theoretical_overhead() == pytest.approx(1 + 2 * abs(np.sin(2 * theta)))

    def test_theta_zero_is_trivial(self):
        protocol = ZZGateCut(0.0)
        assert protocol.kappa == pytest.approx(1.0)

    def test_coefficients_sum_to_one(self):
        protocol = ZZGateCut(0.9)
        assert sum(t.coefficient for t in protocol.terms) == pytest.approx(1.0)

    def test_cross_terms_have_sign_bits(self):
        protocol = ZZGateCut(np.pi / 4)
        cross = [t for t in protocol.terms if t.num_gadget_clbits == 1]
        assert len(cross) == 4
        assert all(t.sign_clbits == (0,) for t in cross)


class TestCZGateCut:
    def test_reconstructs_cz_channel(self):
        protocol = CZGateCut()
        cz = np.diag([1, 1, 1, -1]).astype(complex)
        total = sum(t.coefficient * t.superoperator() for t in protocol.terms)
        rho = random_density_matrix(2, seed=2).data
        assert np.allclose(apply_superoperator(total, rho), cz @ rho @ cz, atol=1e-9)

    def test_kappa_is_three(self):
        assert CZGateCut().kappa == pytest.approx(3.0)

    def test_six_terms(self):
        assert len(CZGateCut().terms) == 6


class TestGateCutCircuits:
    def _circuit(self) -> QuantumCircuit:
        circuit = QuantumCircuit(2, 0, name="two_qubit")
        circuit.ry(0.6, 0)
        circuit.ry(1.1, 1)
        circuit.cz(0, 1)
        circuit.h(0)
        return circuit

    def test_one_circuit_per_term(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        assert len(circuits) == 6

    def test_gate_replaced(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        for term_circuit in circuits:
            assert "cz" not in term_circuit.circuit.count_ops()

    def test_qubit_count_unchanged(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        assert all(c.circuit.num_qubits == 2 for c in circuits)

    def test_index_out_of_range(self):
        with pytest.raises(CuttingError):
            build_gate_cut_circuits(self._circuit(), 10, CZGateCut())

    def test_requires_two_qubit_gate(self):
        with pytest.raises(CuttingError):
            build_gate_cut_circuits(self._circuit(), 0, CZGateCut())

    def test_exact_estimate_matches_uncut(self):
        circuit = self._circuit()
        exact = exact_expectation(circuit, PauliString("ZZ"))
        result = estimate_gate_cut_expectation(
            circuit, 2, CZGateCut(), "ZZ", shots=60_000, seed=0
        )
        assert result.exact_value == pytest.approx(exact)
        assert result.value == pytest.approx(exact, abs=0.06)

    def test_rzz_gate_cut(self):
        theta = 0.8
        circuit = QuantumCircuit(2, 0)
        circuit.h(0).h(1).rzz(theta, 0, 1)
        exact = exact_expectation(circuit, PauliString("XX"))
        # rzz(θ) = exp(-iθ/2 Z⊗Z), so the matching protocol is ZZGateCut(-θ/2).
        result = estimate_gate_cut_expectation(
            circuit, 2, ZZGateCut(-theta / 2), "XX", shots=60_000, seed=1
        )
        assert result.value == pytest.approx(exact, abs=0.06)

    def test_observable_mismatch(self):
        with pytest.raises(CuttingError):
            estimate_gate_cut_expectation(self._circuit(), 2, CZGateCut(), "ZZZ", shots=10)

    def test_single_letter_observable_is_qubit_zero(self):
        # As for wire cuts, a single letter is the observable on qubit 0.
        short = estimate_gate_cut_expectation(self._circuit(), 2, CZGateCut(), "Z", 2000, seed=4)
        full = estimate_gate_cut_expectation(self._circuit(), 2, CZGateCut(), "ZI", 2000, seed=4)
        assert short == full

    def test_term_circuit_records(self):
        circuits = build_gate_cut_circuits(self._circuit(), 2, CZGateCut())
        protocol_terms = CZGateCut().terms
        for index, (term_circuit, term) in enumerate(zip(circuits, protocol_terms)):
            assert term_circuit.term_indices == (index,)
            assert term_circuit.labels == (term.label,)
            assert term_circuit.coefficient == term.coefficient
            assert term_circuit.qubit_map == {0: 0, 1: 1}

    def test_shot_accounting(self):
        result = estimate_gate_cut_expectation(
            self._circuit(), 2, CZGateCut(), "ZZ", shots=500, seed=2
        )
        assert sum(result.shots_per_term) == 500
        assert result.kappa == pytest.approx(3.0)


def _prepared(two_qubit_gate) -> QuantumCircuit:
    """Rotations, the gate to cut (instruction 2), then more rotations."""
    circuit = QuantumCircuit(2, 0, name="gate_cut_workload")
    circuit.ry(0.7, 0).rx(1.2, 1)
    two_qubit_gate(circuit)
    circuit.ry(0.4, 0).rz(0.9, 1).h(1)
    return circuit


_GATE_CUTS = [
    pytest.param(lambda c: c.cz(0, 1), CZGateCut(), id="cz"),
    # rzz(θ) = exp(-iθ/2 Z⊗Z), so the matching protocol is ZZGateCut(-θ/2).
    pytest.param(lambda c: c.rzz(0.8, 0, 1), ZZGateCut(-0.4), id="zz(0.8)"),
    pytest.param(lambda c: c.rzz(-2.1, 0, 1), ZZGateCut(1.05), id="zz(-2.1)"),
]


class TestGateCutReconstruction:
    """The gate cut, run through the wire cut's term executor, is exact."""

    @pytest.mark.parametrize("two_qubit_gate, protocol", _GATE_CUTS)
    @pytest.mark.parametrize("observable", ["XI", "IY", "ZI", "XX", "YZ", "ZZ", "XY"])
    def test_exact_reconstruction_matches_dense_uncut_value(
        self, two_qubit_gate, protocol, observable
    ):
        circuit = _prepared(two_qubit_gate)
        pauli = PauliString(observable)
        uncut = DenseStatevectorSimulator().run(circuit).expectation_value(pauli.to_matrix())
        term_circuits = build_gate_cut_circuits(circuit, 2, protocol)
        probabilities_plus = exact_probabilities_plus(
            term_circuits, [pauli] * len(term_circuits), resolve_backend("serial")
        )
        reconstructed = sum(
            term.coefficient * (2.0 * p_plus - 1.0)
            for term, p_plus in zip(term_circuits, probabilities_plus)
        )
        assert reconstructed == pytest.approx(float(np.real(uncut)), abs=1e-12)

    @pytest.mark.parametrize("two_qubit_gate, protocol", _GATE_CUTS)
    def test_serial_and_vectorized_bitwise_equal(self, two_qubit_gate, protocol):
        term_circuits = build_gate_cut_circuits(_prepared(two_qubit_gate), 2, protocol)
        outcomes = {}
        for backend in ("serial", "vectorized"):
            estimates, shots_per_term = execute_term_circuits(
                term_circuits, PauliString("XZ"), 3000, seed=11, backend=backend
            )
            outcomes[backend] = ([e.mean for e in estimates], shots_per_term)
        assert outcomes["serial"] == outcomes["vectorized"]
