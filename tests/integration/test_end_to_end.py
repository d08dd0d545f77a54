"""End-to-end integration tests cutting wires inside realistic circuits."""

import pytest

from repro.circuits import QuantumCircuit, exact_expectation
from repro.cutting import (
    CutLocation,
    CZGateCut,
    HaradaWireCut,
    NMEWireCut,
    PengWireCut,
    TeleportationWireCut,
    build_sampling_model,
    estimate_gate_cut_expectation,
    estimate_multi_cut_expectation,
)
from repro.experiments import ghz_circuit, random_layered_circuit
from repro.quantum import PauliString


def _exact_through_cut(circuit, location, protocol, observable):
    """The one-cut estimator's infinite-shot value."""
    return build_sampling_model(circuit, location, protocol, observable).exact_cut_value()


class TestGHZDistribution:
    """Cutting the middle wire of a GHZ circuit (the distributed-devices example)."""

    @pytest.fixture(scope="class")
    def circuit(self):
        return ghz_circuit(4)

    @pytest.mark.parametrize(
        "protocol",
        [HaradaWireCut(), PengWireCut(), NMEWireCut(0.5), TeleportationWireCut()],
        ids=lambda p: p.name,
    )
    def test_exact_parity_reconstruction(self, circuit, protocol):
        observable = PauliString("ZZZZ")
        value = _exact_through_cut(circuit, CutLocation(1, 2), protocol, observable)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_finite_shot_estimate(self, circuit):
        observable = PauliString("ZZZZ")
        result = estimate_multi_cut_expectation(
            circuit, [CutLocation(1, 2)], [NMEWireCut.from_overlap(0.9)], observable, shots=8000, seed=0
        )
        assert result.value == pytest.approx(1.0, abs=0.1)

    def test_xxxx_stabilizer(self, circuit):
        observable = PauliString("XXXX")
        value = _exact_through_cut(circuit, CutLocation(1, 2), NMEWireCut(0.6), observable)
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_non_stabilizer_observable(self, circuit):
        observable = PauliString("ZIII")
        value = _exact_through_cut(circuit, CutLocation(1, 2), HaradaWireCut(), observable)
        assert value == pytest.approx(0.0, abs=1e-9)


class TestRandomCircuits:
    """Cuts inside random layered circuits reproduce exact expectation values."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_exact_reconstruction_random_observable_positions(self, seed):
        circuit = random_layered_circuit(3, 2, seed=seed)
        observable = PauliString("ZZZ")
        exact = exact_expectation(circuit, observable)
        # Cut the middle qubit's wire after the first layer (4 single-qubit
        # gates + 1 entangler = 5 instructions per layer for 3 qubits).
        location = CutLocation(qubit=1, position=4)
        for protocol in (HaradaWireCut(), NMEWireCut(0.7)):
            value = _exact_through_cut(circuit, location, protocol, observable)
            assert value == pytest.approx(exact, abs=1e-9)

    def test_finite_shot_accuracy_tracks_kappa(self):
        circuit = random_layered_circuit(3, 2, seed=7)
        observable = PauliString("ZZZ")
        location = CutLocation(qubit=0, position=4)
        harada = estimate_multi_cut_expectation(
            circuit, [location], [HaradaWireCut()], observable, shots=20_000, seed=11
        )
        teleport = estimate_multi_cut_expectation(
            circuit, [location], [TeleportationWireCut()], observable, shots=20_000, seed=11
        )
        assert harada.error < 0.15
        assert teleport.error < 0.1


class TestMixedCutting:
    """Wire cuts, multi-wire cuts and gate cuts agree on the same circuit."""

    def test_gate_cut_and_wire_cut_agree(self):
        circuit = QuantumCircuit(2, 0)
        circuit.ry(0.9, 0).ry(0.4, 1).cz(0, 1).h(1)
        observable = PauliString("ZZ")
        exact = exact_expectation(circuit, observable)
        gate_result = estimate_gate_cut_expectation(
            circuit, 2, CZGateCut(), observable, shots=50_000, seed=3
        )
        wire_result = estimate_multi_cut_expectation(
            circuit, [CutLocation(0, 3)], [HaradaWireCut()], observable, shots=50_000, seed=3
        )
        assert gate_result.value == pytest.approx(exact, abs=0.07)
        assert wire_result.value == pytest.approx(exact, abs=0.07)

    def test_double_cut_ghz(self):
        # ⟨ZZI⟩ is a stabiliser of the GHZ state (value 1); ⟨ZZZ⟩ vanishes.
        circuit = ghz_circuit(3)
        for observable, expected in ((PauliString("ZZI"), 1.0), (PauliString("ZZZ"), 0.0)):
            result = estimate_multi_cut_expectation(
                circuit,
                [CutLocation(0, 2), CutLocation(1, 3)],
                [TeleportationWireCut(), TeleportationWireCut()],
                observable,
                shots=10_000,
                seed=5,
            )
            assert result.exact_value == pytest.approx(expected, abs=1e-9)
            assert result.value == pytest.approx(expected, abs=0.08)
            assert result.kappa == pytest.approx(1.0)

    def test_cut_circuit_with_existing_classical_bits(self):
        # A circuit that already uses classical bits keeps them separate from
        # the gadget's bits.
        circuit = QuantumCircuit(2, 1)
        circuit.ry(0.5, 0).cx(0, 1)
        observable = PauliString("IZ")
        exact = exact_expectation(circuit, observable)
        value = _exact_through_cut(circuit, CutLocation(0, 1), NMEWireCut(0.8), observable)
        assert value == pytest.approx(exact, abs=1e-9)
