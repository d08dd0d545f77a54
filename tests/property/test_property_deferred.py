"""Property checks of deferred-measurement simulation against branching.

:class:`~repro.circuits.batched_simulator.BatchedDensityMatrixSimulator`
branches only on measurements that really are mid-circuit and reads every
other outcome off the final diagonal.  On circuits built around each case
where branching must stay (:data:`strategies.BRANCHING_CASES`), mixed with
deferrable measurements and conditioned rotations, its distributions equal
:class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`,
which branches on every measurement, bitwise and in the same key order, and
the full-space reference to 1e-12.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import SerialBackend, VectorizedBackend
from repro.circuits.backends import DistributionCache
from repro.circuits.batched_simulator import (
    BatchedDensityMatrixSimulator,
    _measurement_plan,
    structure_signature,
)
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from tests.property.strategies import BRANCHING_CASES, feed_forward_batches
from tests.reference.dense import DenseDensityMatrixSimulator

SETTINGS = settings(max_examples=40, deadline=None)


def _assert_matches_branching(circuits, distributions):
    for circuit, got in zip(circuits, distributions):
        expected = DensityMatrixSimulator().run(circuit).classical_distribution()
        assert list(got.items()) == list(expected.items())  # bitwise, key order included
        reference = DenseDensityMatrixSimulator().run(circuit).classical_distribution()
        for key in set(got) | set(reference):
            assert abs(got.get(key, 0.0) - reference.get(key, 0.0)) <= 1e-12, key


class TestDeferredMeasurement:
    @SETTINGS
    @given(circuits=feed_forward_batches())
    def test_batched_matches_branching_bitwise(self, circuits):
        _assert_matches_branching(circuits, BatchedDensityMatrixSimulator().run_group(circuits))

    @settings(max_examples=15, deadline=None)
    @given(circuits=feed_forward_batches())
    def test_serial_and_vectorized_backends_match_branching(self, circuits):
        _assert_matches_branching(circuits, SerialBackend().exact_distributions(circuits))
        vectorized = VectorizedBackend(cache=DistributionCache()).exact_distributions(circuits)
        _assert_matches_branching(circuits, vectorized)

    @pytest.mark.parametrize("case", [c for c in BRANCHING_CASES if c != "partial_register"])
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_case_keeps_its_measurement_branching(self, case, data):
        circuits = data.draw(feed_forward_batches(case=case))
        circuit = circuits[0]
        # The motif's measurement follows one ry per qubit and the CX ladder.
        position = 2 * circuit.num_qubits - 1
        assert circuit.instructions[position].kind == "measure"
        deferred, _ = _measurement_plan(structure_signature(circuit))
        assert position not in deferred
        _assert_matches_branching(circuits, BatchedDensityMatrixSimulator().run_group(circuits))
