"""Unit tests for building the per-term circuits of one cut wire.

One cut is the one-location case of :func:`build_multi_cut_circuits`; these
cases pin its structure (registers, remapping, sign bits, coefficients).
"""

import numpy as np
import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import build_sampling_model
from repro.cutting.multi_wire import build_multi_cut_circuits
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from tests.reference.dense import DenseDensityMatrixSimulator


def _two_qubit_circuit() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 0, name="workload")
    circuit.ry(0.4, 0)
    circuit.cx(0, 1)
    circuit.rz(0.7, 1)
    return circuit


def _build(circuit, location, protocol):
    return build_multi_cut_circuits(circuit, [location], [protocol])


class TestValidation:
    def test_qubit_out_of_range(self):
        with pytest.raises(CuttingError):
            _build(_two_qubit_circuit(), CutLocation(5, 1), HaradaWireCut())

    def test_position_out_of_range(self):
        with pytest.raises(CuttingError):
            _build(_two_qubit_circuit(), CutLocation(0, 10), HaradaWireCut())

    def test_cut_at_circuit_end_allowed(self):
        circuit = _two_qubit_circuit()
        results = _build(circuit, CutLocation(1, len(circuit)), HaradaWireCut())
        assert len(results) == 3


def _measured_then_reset_circuit() -> QuantumCircuit:
    """Wire 0 is measured mid-circuit, reset and reused after the cut positions."""
    circuit = QuantumCircuit(2, 1, name="measure_reset")
    circuit.ry(0.7, 0)
    circuit.cx(0, 1)
    circuit.ry(0.3, 1)
    circuit.measure(0, 0)
    circuit.reset(0)
    circuit.ry(1.1, 0)
    circuit.cx(0, 1)
    return circuit


def _uncut_zz(circuit: QuantumCircuit) -> float:
    """⟨Z₀Z₁⟩ at the end of ``circuit`` from the full-space reference simulator."""
    measured = QuantumCircuit(circuit.num_qubits, circuit.num_clbits + 2)
    measured.compose(circuit, inplace=True)
    measured.measure(0, circuit.num_clbits).measure(1, circuit.num_clbits + 1)
    distribution = DenseDensityMatrixSimulator().run(measured).classical_distribution()
    value = 0.0
    for bitstring, probability in distribution.items():
        parity = int(bitstring[circuit.num_clbits]) ^ int(bitstring[circuit.num_clbits + 1])
        value += probability * (1 - 2 * parity)
    return value


class TestMeasurementAndResetAfterCut:
    """A cut wire may be measured and reset after the cut; reconstruction stays exact."""

    @pytest.mark.parametrize("position", [1, 2, 3])
    @pytest.mark.parametrize(
        "protocol",
        [HaradaWireCut(), PengWireCut(), TeleportationWireCut(), NMEWireCut(0.5)],
        ids=["harada", "peng", "teleportation", "nme"],
    )
    def test_exact_reconstruction_matches_uncut(self, protocol, position):
        circuit = _measured_then_reset_circuit()
        model = build_sampling_model(circuit, CutLocation(0, position), protocol, "ZZ")
        uncut = _uncut_zz(circuit)
        assert not np.isclose(uncut, 0.0)
        assert model.exact_cut_value() == pytest.approx(uncut, abs=1e-12)


class TestStructure:
    def test_one_circuit_per_term(self):
        for protocol in (HaradaWireCut(), PengWireCut(), NMEWireCut(0.5), TeleportationWireCut()):
            results = _build(_two_qubit_circuit(), CutLocation(0, 1), protocol)
            assert len(results) == len(protocol.terms)
            assert [r.term_indices for r in results] == [(i,) for i in range(len(protocol.terms))]
            assert [r.label for r in results] == [t.label for t in protocol.terms]

    def test_register_sizes_harada(self):
        results = _build(_two_qubit_circuit(), CutLocation(0, 1), HaradaWireCut())
        for term_circuit in results:
            # 2 original + 1 receiver qubit; 1 gadget clbit.
            assert term_circuit.circuit.num_qubits == 3
            assert term_circuit.circuit.num_clbits == 1

    def test_register_sizes_nme(self):
        results = _build(_two_qubit_circuit(), CutLocation(0, 1), NMEWireCut(0.5))
        teleport_terms = results[:2]
        for term_circuit in teleport_terms:
            # 2 original + 1 receiver + 1 ancilla; 2 gadget clbits.
            assert term_circuit.circuit.num_qubits == 4
            assert term_circuit.circuit.num_clbits == 2
            assert term_circuit.entangled_pairs == 1
        flip_term = results[2]
        assert flip_term.circuit.num_qubits == 3
        assert flip_term.circuit.num_clbits == 1
        assert flip_term.entangled_pairs == 0

    def test_qubit_map_redirects_cut_wire(self):
        results = _build(_two_qubit_circuit(), CutLocation(0, 1), HaradaWireCut())
        for term_circuit in results:
            assert term_circuit.qubit_map[0] == 2  # receiver qubit
            assert term_circuit.qubit_map[1] == 1

    def test_receiver_fragment_remapped(self):
        circuit = _two_qubit_circuit()
        results = _build(circuit, CutLocation(0, 1), HaradaWireCut())
        # The cx(0, 1) after the cut must now act on (receiver, 1) = (2, 1).
        for term_circuit in results:
            cx_instructions = [i for i in term_circuit.circuit.instructions if i.name == "cx"]
            assert cx_instructions[-1].qubits == (2, 1)

    def test_sender_fragment_unchanged(self):
        circuit = _two_qubit_circuit()
        results = _build(circuit, CutLocation(0, 1), HaradaWireCut())
        for term_circuit in results:
            first = term_circuit.circuit.instructions[0]
            assert first.name == "ry" and first.qubits == (0,)

    def test_sign_clbits_absolute_indices(self):
        circuit = QuantumCircuit(1, 2, name="with_clbits")
        circuit.h(0)
        protocol = PengWireCut()
        results = _build(circuit, CutLocation(0, 1), protocol)
        # Gadget clbits start after the circuit's own 2 clbits.
        x_term = next(
            r for r in results if protocol.terms[r.term_indices[0]].metadata["observable"] == "X"
        )
        assert x_term.circuit.num_clbits == 3
        assert x_term.sign_clbits == (2,)

    def test_coefficient_passthrough(self):
        results = _build(_two_qubit_circuit(), CutLocation(0, 1), NMEWireCut(0.5))
        a, b = NMEWireCut(0.5).coefficients_ab
        assert results[0].coefficient == pytest.approx(a)
        assert results[2].coefficient == pytest.approx(-b)

    def test_original_circuit_untouched(self):
        circuit = _two_qubit_circuit()
        before = list(circuit.instructions)
        _build(circuit, CutLocation(0, 1), HaradaWireCut())
        assert circuit.instructions == before
        assert circuit.num_qubits == 2
        assert circuit.num_clbits == 0
