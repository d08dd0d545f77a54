"""Property-based checks of the axis-local simulators against the full-space reference.

The simulators of :mod:`repro.circuits` must be indistinguishable from the
full-space reference simulators of ``tests/reference/dense.py`` on arbitrary
circuits: final states and exact distributions agree to 1e-12.  Every
execution backend returns bitwise-identical distributions and sampled counts
for the same seed (the repo-wide determinism contract).
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import ProcessPoolBackend, SerialBackend, VectorizedBackend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.statevector_simulator import StatevectorSimulator
from repro.devices import NoiseModel, NoisyDeviceBackend
from tests.reference.dense import DenseDensityMatrixSimulator, DenseStatevectorSimulator

SETTINGS = settings(max_examples=25, deadline=None)

_SINGLE_GATES = ("h", "x", "y", "z", "s", "t", "sx")


@st.composite
def mixed_circuits(draw, max_qubits: int = 3, max_ops: int = 10):
    """Random circuits over the full instruction set (gates, measure, reset,
    initialize, classical conditioning)."""
    num_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
    num_clbits = num_qubits
    circuit = QuantumCircuit(num_qubits, num_clbits)
    measured = False
    num_ops = draw(st.integers(min_value=1, max_value=max_ops))
    for _ in range(num_ops):
        kind = draw(
            st.sampled_from(
                ("single", "rotation", "cx", "measure", "reset", "initialize", "conditional")
            )
        )
        qubit = draw(st.integers(0, num_qubits - 1))
        if kind == "single":
            circuit.gate(draw(st.sampled_from(_SINGLE_GATES)), (qubit,))
        elif kind == "rotation":
            angle = draw(
                st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False, allow_infinity=False)
            )
            circuit.gate(draw(st.sampled_from(("rx", "ry", "rz"))), (qubit,), (angle,))
        elif kind == "cx":
            if num_qubits < 2:
                continue
            target = draw(st.integers(0, num_qubits - 1))
            if target == qubit:
                continue
            circuit.cx(qubit, target)
        elif kind == "measure":
            circuit.measure(qubit, qubit)
            measured = True
        elif kind == "reset":
            circuit.reset(qubit)
        elif kind == "initialize":
            amplitudes = np.array(
                [
                    draw(st.floats(min_value=-1, max_value=1, allow_nan=False)) + 0.5j,
                    draw(st.floats(min_value=-1, max_value=1, allow_nan=False)) - 0.25j,
                ]
            )
            circuit.initialize(amplitudes / np.linalg.norm(amplitudes), qubit)
        else:  # conditional
            if not measured:
                continue
            circuit.x(qubit, condition=(draw(st.integers(0, num_clbits - 1)), draw(st.integers(0, 1))))
    circuit.measure_all()
    return circuit


@st.composite
def unitary_circuits(draw, max_qubits: int = 4, max_gates: int = 10):
    """Random measurement-free circuits for the statevector simulator."""
    num_qubits = draw(st.integers(min_value=1, max_value=max_qubits))
    circuit = QuantumCircuit(num_qubits, 0)
    for _ in range(draw(st.integers(min_value=1, max_value=max_gates))):
        kind = draw(st.sampled_from(("single", "rotation", "cx")))
        qubit = draw(st.integers(0, num_qubits - 1))
        if kind == "single":
            circuit.gate(draw(st.sampled_from(_SINGLE_GATES)), (qubit,))
        elif kind == "rotation":
            angle = draw(
                st.floats(min_value=-np.pi, max_value=np.pi, allow_nan=False, allow_infinity=False)
            )
            circuit.gate(draw(st.sampled_from(("rx", "ry", "rz"))), (qubit,), (angle,))
        else:
            if num_qubits < 2:
                continue
            target = draw(st.integers(0, num_qubits - 1))
            if target == qubit:
                continue
            circuit.cx(qubit, target)
    return circuit


def _distributions_close(left: dict[str, float], right: dict[str, float], atol: float) -> None:
    keys = set(left) | set(right)
    for key in keys:
        assert abs(left.get(key, 0.0) - right.get(key, 0.0)) <= atol, key


class TestKernelEquivalence:
    @SETTINGS
    @given(circuit=mixed_circuits())
    def test_density_matrix_distributions_agree(self, circuit):
        """The simulator and the reference give the same exact distribution to 1e-12."""
        got = DensityMatrixSimulator().run(circuit)
        expected = DenseDensityMatrixSimulator().run(circuit)
        _distributions_close(
            got.classical_distribution(), expected.classical_distribution(), atol=1e-12
        )
        # The branch-averaged quantum states agree too.
        np.testing.assert_allclose(
            got.average_state().data, expected.average_state().data, atol=1e-12
        )

    @SETTINGS
    @given(circuit=unitary_circuits())
    def test_statevector_states_agree(self, circuit):
        got = StatevectorSimulator().run(circuit).data
        expected = DenseStatevectorSimulator().run(circuit).data
        np.testing.assert_allclose(got, expected, atol=1e-12)

    @SETTINGS
    @given(
        circuit=mixed_circuits(),
        p1=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        p2=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
    )
    def test_gate_noise_distributions_agree(self, circuit, p1, p2):
        """The local-Kraus noise path matches the expanded reference."""
        noise = NoiseModel(depolarizing_1q=p1, depolarizing_2q=p2)
        hook = noise.gate_noise_hook
        got = DensityMatrixSimulator(gate_noise=hook).run(circuit)
        expected = DenseDensityMatrixSimulator(gate_noise=hook).run(circuit)
        _distributions_close(
            got.classical_distribution(), expected.classical_distribution(), atol=1e-12
        )


class TestCrossBackendBitwise:
    """Every backend is bitwise identical per seed."""

    @SETTINGS
    @given(
        circuit=mixed_circuits(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_distributions_and_counts_bitwise_across_backends(self, circuit, seed):
        circuits = [circuit, circuit.copy()]
        shots = [64, 128]
        backends = [
            SerialBackend(),
            VectorizedBackend(cache=None),
            # chunk_size keeps the pool on its in-process path: worker
            # processes are exercised (slowly) by tests/circuits/test_backends
            # and the kernel benchmark; the arithmetic is chunk-invariant.
            ProcessPoolBackend(chunk_size=len(circuits)),
        ]
        reference_distributions = None
        reference_counts = None
        for backend in backends:
            distributions = backend.exact_distributions(circuits)
            counts = backend.run_batch(circuits, shots, seed=seed)
            if reference_distributions is None:
                reference_distributions = distributions
                reference_counts = counts
                continue
            for got, expected in zip(distributions, reference_distributions):
                assert got == expected  # bitwise: dict equality on floats
            for got, expected in zip(counts, reference_counts):
                assert dict(got) == dict(expected)

    @SETTINGS
    @given(
        circuit=mixed_circuits(),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_noisy_backend_bitwise_across_inner_backends(self, circuit, seed):
        noise = NoiseModel(depolarizing_1q=0.02, depolarizing_2q=0.05, readout_p01=0.01)
        circuits = [circuit]
        shots = [96]
        results = []
        for inner in ("serial", "vectorized"):
            backend = NoisyDeviceBackend(noise, inner=inner)
            backend.cache.clear()
            results.append(
                (
                    backend.exact_distributions(circuits),
                    [dict(c) for c in backend.run_batch(circuits, shots, seed=seed)],
                )
            )
        assert results[0] == results[1]
