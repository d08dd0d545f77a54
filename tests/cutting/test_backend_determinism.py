"""Cross-backend determinism of estimation through one cut wire.

The backend contract (see :mod:`repro.circuits.backends`) promises that the
same seed produces the *same* :class:`CutExpectationResult` from every
backend.  These tests pin that guarantee end-to-end through
:func:`estimate_multi_cut_expectation` with one cut location and the
sampling-model builders.
"""

import numpy as np
import pytest

from repro.circuits import DistributionCache, ProcessPoolBackend, VectorizedBackend
from repro.circuits.circuit import QuantumCircuit
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import build_sampling_model, build_sampling_models
from repro.cutting.multi_wire import estimate_multi_cut_expectation
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.quantum.random import random_statevector

# Fork-heavy suite (process-pool backends): keep on one xdist worker
# under ``pytest -n auto --dist loadgroup``.
pytestmark = pytest.mark.xdist_group("forkheavy")

PROTOCOLS = [HaradaWireCut(), PengWireCut(), NMEWireCut(0.5), TeleportationWireCut()]


def _state_circuit(seed: int) -> QuantumCircuit:
    state = random_statevector(1, seed=seed)
    circuit = QuantumCircuit(1, 0)
    circuit.initialize(state.data, 0)
    return circuit


def _assert_identical(a, b):
    assert a.value == b.value
    assert a.standard_error == b.standard_error
    assert a.total_shots == b.total_shots
    assert a.shots_per_term == b.shots_per_term
    assert a.protocol_name == b.protocol_name
    for term_a, term_b in zip(a.term_estimates, b.term_estimates):
        assert term_a.mean == term_b.mean
        assert term_a.shots == term_b.shots


class TestSerialVectorizedIdentical:
    @pytest.mark.parametrize("protocol", PROTOCOLS, ids=lambda p: p.name)
    def test_estimate_identical(self, protocol):
        circuit = _state_circuit(17)
        location = CutLocation(0, len(circuit))
        serial = estimate_multi_cut_expectation(
            circuit, [location], [protocol], "Z", shots=1500, seed=42, backend="serial"
        )
        vectorized = estimate_multi_cut_expectation(
            circuit,
            [location],
            [protocol],
            "Z",
            shots=1500,
            seed=42,
            backend=VectorizedBackend(cache=DistributionCache()),
        )
        _assert_identical(serial, vectorized)

    @pytest.mark.parametrize("observable", ["X", "Y", "Z"])
    def test_observables_identical(self, observable):
        circuit = _state_circuit(23)
        location = CutLocation(0, len(circuit))
        serial = estimate_multi_cut_expectation(
            circuit, [location], [NMEWireCut(0.8)], observable, shots=900, seed=5, backend="serial"
        )
        vectorized = estimate_multi_cut_expectation(
            circuit,
            [location],
            [NMEWireCut(0.8)],
            observable,
            shots=900,
            seed=5,
            backend=VectorizedBackend(cache=DistributionCache()),
        )
        _assert_identical(serial, vectorized)

    def test_budget_smaller_than_terms_identical(self):
        """Tiny budgets (< number of QPD terms) survive the round trip too."""
        circuit = _state_circuit(29)
        location = CutLocation(0, len(circuit))
        for shots in (1, 2):
            serial = estimate_multi_cut_expectation(
                circuit, [location], [PengWireCut()], "Z", shots=shots, seed=8, backend="serial"
            )
            vectorized = estimate_multi_cut_expectation(
                circuit,
                [location],
                [PengWireCut()],
                "Z",
                shots=shots,
                seed=8,
                backend=VectorizedBackend(cache=DistributionCache()),
            )
            assert sum(serial.shots_per_term) == shots
            _assert_identical(serial, vectorized)

    def test_sampling_models_identical(self):
        circuits = [_state_circuit(seed) for seed in range(6)]
        locations = [CutLocation(0, len(c)) for c in circuits]
        serial = build_sampling_models(circuits, locations, NMEWireCut(0.6), "Z", backend="serial")
        vectorized = build_sampling_models(
            circuits,
            locations,
            NMEWireCut(0.6),
            "Z",
            backend=VectorizedBackend(cache=DistributionCache()),
        )
        for model_s, model_v in zip(serial, vectorized):
            assert model_s.exact_value == model_v.exact_value
            for term_s, term_v in zip(model_s.terms, model_v.terms):
                assert term_s.probability_plus == term_v.probability_plus


@pytest.mark.integration
class TestProcessPoolAgreement:
    """Process-pool execution agrees with the in-process backends."""

    @pytest.mark.slow
    def test_run_batch_agrees_with_serial(self):
        circuit = _state_circuit(31)
        location = CutLocation(0, len(circuit))
        pool = estimate_multi_cut_expectation(
            circuit,
            [location],
            [HaradaWireCut()],
            "Z",
            shots=600,
            seed=13,
            backend=ProcessPoolBackend(max_workers=2, chunk_size=1),
        )
        serial = estimate_multi_cut_expectation(
            circuit, [location], [HaradaWireCut()], "Z", shots=600, seed=13, backend="serial"
        )
        # The per-circuit stream contract makes even the pool exact, but the
        # required guarantee is statistical agreement within the error bars.
        _assert_identical(pool, serial)
        assert abs(pool.value - pool.exact_value) < 5 * max(pool.standard_error, 0.05)

    def test_sampling_models_statistical_agreement(self):
        circuits = [_state_circuit(seed) for seed in (41, 43)]
        locations = [CutLocation(0, len(c)) for c in circuits]
        pool_models = build_sampling_models(
            circuits,
            locations,
            NMEWireCut(0.9),
            "Z",
            backend=ProcessPoolBackend(max_workers=2, chunk_size=4),
        )
        for model in pool_models:
            estimate = model.estimate(40_000, seed=3)
            assert estimate.value == pytest.approx(model.exact_value, abs=0.05)

    def test_estimate_sweep_matches_pointwise_statistics(self):
        circuit = _state_circuit(47)
        model = build_sampling_model(
            circuit, CutLocation(0, len(circuit)), HaradaWireCut(), "Z", backend="vectorized"
        )
        values, errors = model.estimate_sweep((500, 2000, 50_000), seed=9)
        assert values.shape == (3,) and errors.shape == (3,)
        assert values[-1] == pytest.approx(model.exact_value, abs=0.1)
        assert np.all(errors >= 0)
