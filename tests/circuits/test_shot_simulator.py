"""Unit tests for the shot simulator (exact distribution, multinomial shots)."""

import numpy as np
import pytest

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.shot_simulator import ShotSimulator
from repro.quantum.random import random_statevector
from tests.reference.dense import DenseDensityMatrixSimulator


def _bell_measured() -> QuantumCircuit:
    circuit = QuantumCircuit(2, 2)
    circuit.h(0).cx(0, 1).measure(0, 0).measure(1, 1)
    return circuit


def _deterministic() -> QuantumCircuit:
    circuit = QuantumCircuit(1, 1)
    circuit.x(0).measure(0, 0)
    return circuit


def _feedforward() -> QuantumCircuit:
    # Measure a |1> qubit and conditionally flip the second: always "11".
    circuit = QuantumCircuit(2, 2)
    circuit.x(0).measure(0, 0)
    circuit.x(1, condition=(0, 1))
    circuit.measure(1, 1)
    return circuit


def _reset() -> QuantumCircuit:
    circuit = QuantumCircuit(1, 1)
    circuit.h(0).reset(0).measure(0, 0)
    return circuit


def _initialize() -> QuantumCircuit:
    circuit = QuantumCircuit(1, 1)
    circuit.h(0)
    circuit.initialize(np.array([0, 1]), 0)
    circuit.measure(0, 0)
    return circuit


def _teleportation() -> QuantumCircuit:
    """Mid-circuit Bell measurement with feed-forward, receiver measured last."""
    from repro.teleport import teleportation_circuit

    base = teleportation_circuit(message_state=random_statevector(1, seed=7), resource=1.0)
    circuit = QuantumCircuit(3, 3)
    circuit.compose(base, inplace=True)
    circuit.measure(2, 2)
    return circuit


def _branching() -> QuantumCircuit:
    """Random outcomes driving a conditioned gate, a reset and a re-initialised qubit."""
    circuit = QuantumCircuit(3, 3)
    circuit.ry(1.1, 0).h(1).measure(0, 0)
    circuit.x(2, condition=(0, 1))
    circuit.reset(1)
    circuit.initialize(np.array([0.6, 0.8j]), 1)
    circuit.measure(1, 1).measure(2, 2)
    return circuit


class TestShotSimulatorExact:
    def test_deterministic_circuit(self):
        circuit = QuantumCircuit(1, 1)
        circuit.x(0).measure(0, 0)
        counts = ShotSimulator().run(circuit, 100, seed=0)
        assert dict(counts) == {"1": 100}

    def test_bell_correlations(self):
        counts = ShotSimulator().run(_bell_measured(), 2000, seed=1)
        assert set(counts.keys()) <= {"00", "11"}
        assert abs(counts["00"] - 1000) < 150

    def test_reproducible_with_seed(self):
        a = ShotSimulator().run(_bell_measured(), 500, seed=3)
        b = ShotSimulator().run(_bell_measured(), 500, seed=3)
        assert a == b

    def test_zero_shots(self):
        counts = ShotSimulator().run(_bell_measured(), 0, seed=0)
        assert counts.shots == 0

    def test_negative_shots(self):
        with pytest.raises(ValueError):
            ShotSimulator().run(_bell_measured(), -5)

    def test_requires_clbits(self):
        with pytest.raises(SimulationError):
            ShotSimulator().run(QuantumCircuit(1), 10)

    def test_total_shots_preserved(self):
        counts = ShotSimulator().run(_bell_measured(), 1234, seed=9)
        assert counts.shots == 1234

    def test_partial_measurement(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).cx(0, 1).measure(1, 0)
        counts = ShotSimulator().run(circuit, 4000, seed=2)
        assert abs(counts["0"] - 2000) < 200

    def test_initial_state(self):
        state = random_statevector(1, seed=5)
        circuit = QuantumCircuit(1, 1)
        circuit.measure(0, 0)
        counts = ShotSimulator().run(circuit, 20_000, seed=6, initial_state=state)
        expected_p1 = abs(state.data[1]) ** 2
        assert counts["1"] / counts.shots == pytest.approx(expected_p1, abs=0.02)

    @pytest.mark.parametrize(
        "build",
        [
            _deterministic,
            _bell_measured,
            _feedforward,
            _reset,
            _initialize,
            _teleportation,
            _branching,
        ],
        ids=lambda build: build.__name__.lstrip("_"),
    )
    def test_matches_reference(self, build):
        """Sampled frequencies match the full-space reference distribution.

        Covers mid-circuit measurement, feed-forward, reset and initialise:
        every outcome's frequency lies within five binomial standard
        deviations of its reference probability, and no outcome outside the
        reference support is ever drawn.
        """
        circuit = build()
        shots = 4000
        reference = DenseDensityMatrixSimulator().run(circuit).classical_distribution()
        counts = ShotSimulator().run(circuit, shots, seed=11)
        assert counts.shots == shots
        assert set(counts) <= {key for key, p in reference.items() if p > 1e-12}
        for key, probability in reference.items():
            radius = 5.0 * np.sqrt(probability * (1.0 - probability) / shots) + 1e-12
            assert abs(counts.get(key, 0) / shots - probability) <= radius, key
