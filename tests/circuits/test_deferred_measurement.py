"""Deferred measurement in the batched simulator: the plan, exactness, cost.

A measurement whose qubit is never touched again, whose clbit no other
measurement writes, and whose clbit only later gates read is deferred: the
state is not split, conditioned gates become gates controlled on the
measured qubit, and the outcome is read off the final diagonal.
"""

import json
import os
import pathlib
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro.circuits import (
    BatchedDensityMatrixSimulator,
    DensityMatrixSimulator,
    DistributionCache,
    QuantumCircuit,
    VectorizedBackend,
    structure_signature,
)
from repro.circuits.batched_simulator import _measurement_plan
from repro.circuits.instruction import RESET, Instruction
from repro.cutting import measured_multi_cut_circuit
from repro.pipeline import CutPipeline
from repro.quantum.paulis import PauliString
from repro.telemetry.metrics import REGISTRY


def _plan(circuit: QuantumCircuit):
    return _measurement_plan(structure_signature(circuit))


def _teleport(theta: float) -> QuantumCircuit:
    circuit = QuantumCircuit(3, 3, name="teleport")
    circuit.ry(theta, 0).h(1).cx(1, 2).cx(0, 1).h(0)
    circuit.measure(0, 0).measure(1, 1)
    circuit.x(2, condition=(1, 1)).z(2, condition=(0, 1))
    circuit.measure(2, 2)
    return circuit


class TestMeasurementPlan:
    def test_teleportation_defers_every_measurement(self):
        deferred, controls = _plan(_teleport(0.4))
        assert deferred == {5, 6, 9}
        # Both corrections run controlled on the measured qubits.
        assert controls == {7: (1, 1), 8: (0, 1)}

    @pytest.mark.parametrize(
        "append_after",
        [
            lambda c: c.ry(0.3, 0),  # the qubit is gated again
            lambda c: c.reset(0),  # ... reset
            lambda c: c.measure(0, 1),  # ... measured again
            lambda c: c.x(0, condition=(0, 1)),  # the c_if targets the measured qubit
            lambda c: c.measure(1, 0),  # the clbit is rewritten
        ],
        ids=["gate", "reset", "remeasure", "c_if_on_measured", "clbit_rewritten"],
    )
    def test_mid_circuit_measurements_branch(self, append_after):
        circuit = QuantumCircuit(2, 2)
        circuit.h(0).cx(0, 1).measure(0, 0)
        append_after(circuit)
        assert 2 not in _plan(circuit)[0]

    def test_condition_on_a_non_gate_branches(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).measure(0, 0)
        circuit.append(Instruction(RESET, "reset", (1,), condition=(0, 1)))
        assert _plan(circuit) == (frozenset(), {})

    def test_condition_before_the_measurement_reads_the_initial_bit(self):
        circuit = QuantumCircuit(2, 2)
        circuit.x(1, condition=(0, 0)).h(0).measure(0, 0).measure(1, 1)
        deferred, controls = _plan(circuit)
        assert deferred == {2, 3}
        assert controls == {}
        expected = DensityMatrixSimulator().run(circuit).classical_distribution()
        assert BatchedDensityMatrixSimulator().run_group([circuit]) == [expected]


def test_pruned_outcome_blocks_are_left_out_of_merged_branches():
    """A deferred outcome the branching simulator drops adds nothing to a merge.

    Clbit 0 is written twice, so those measurements branch and merge; the
    q2 outcome 1 of the c0 = 0 piece carries 5e-17 ≤ 1e-16 and is dropped by
    the branching simulator before the merge.  Added in, it would move the
    merged probability by one ulp.
    """
    delta = 5e-17
    amplitudes = np.zeros(4, dtype=complex)  # |q0 q2⟩
    amplitudes[0b01] = np.sqrt(delta)
    amplitudes[0b11] = np.sqrt(0.2)
    amplitudes[0b00] = np.sqrt(0.3)
    amplitudes[0b10] = np.sqrt(1 - 0.5 - delta)
    circuit = QuantumCircuit(3, 3)
    circuit.initialize(amplitudes / np.linalg.norm(amplitudes), [0, 2])
    circuit.measure(2, 2).measure(0, 0).measure(1, 0)
    assert _plan(circuit)[0] == {1}
    expected = DensityMatrixSimulator().run(circuit).classical_distribution()
    (got,) = BatchedDensityMatrixSimulator().run_group([circuit])
    assert list(got.items()) == list(expected.items())


def test_nme_term_circuit_applies_each_gate_once():
    """A measured 2-cut NME term circuit costs one application per gate.

    Branching applied every later gate once per classical branch; deferred
    measurement applies it once, conditioned corrections included.
    """
    circuit = QuantumCircuit(4, 0)
    circuit.h(0).ry(0.7, 1).cx(0, 1).ry(1.1, 2).cx(1, 2).cx(2, 3)
    pipeline = CutPipeline(max_fragment_width=2, entanglement_overlap=0.75)
    decomposition = pipeline.decompose(pipeline.plan(circuit))
    assert decomposition.plan_result.plan.num_cuts == 2
    measured = [
        measured_multi_cut_circuit(term, PauliString("ZZZZ"))[0]
        for term in decomposition.term_circuits
    ]
    term = max(measured, key=lambda c: sum(i.condition is not None for i in c.instructions))
    assert sum(i.kind == "measure" for i in term.instructions) == 8
    gates = sum(i.kind == "gate" for i in term.instructions)

    counter = REGISTRY.get("repro_kernel_gate_applications_total")
    before = sum(value for _, value in counter.samples())
    VectorizedBackend(cache=DistributionCache()).exact_distributions([term])
    assert sum(value for _, value in counter.samples()) - before == gates


_GHZ6_SCRIPT = textwrap.dedent(
    """
    import json, resource
    limit = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    from repro.circuits.backends import DistributionCache, SerialBackend, VectorizedBackend
    from repro.cutting import measured_multi_cut_circuit
    from repro.experiments import ghz_circuit
    from repro.pipeline import CutPipeline
    from repro.quantum.paulis import PauliString

    pipeline = CutPipeline(max_fragment_width=2)
    decomposition = pipeline.decompose(pipeline.plan(ghz_circuit(6)))
    measured = [
        measured_multi_cut_circuit(term, PauliString("ZZZZZZ"))[0]
        for term in decomposition.term_circuits
    ]
    widest = max(
        measured, key=lambda c: (c.num_qubits, sum(i.kind == "measure" for i in c.instructions))
    )
    totals = [
        sum(backend.exact_distributions([widest])[0].values())
        for backend in (SerialBackend(), VectorizedBackend(cache=DistributionCache()))
    ]
    print(json.dumps({"num_qubits": widest.num_qubits, "totals": totals}))
    """
)


def test_widest_ghz6_term_circuit_fits_in_one_gigabyte():
    """The 4-cut GHZ(6) term circuits simulate under a 1 GB address-space cap.

    Its widest measured term circuit has 10 qubits and 10 measurements:
    branching on all of them holds up to 1024 dense 1024×1024 matrices.
    """
    src = pathlib.Path(__file__).resolve().parents[2] / "src"
    # One BLAS thread: per-thread buffers would otherwise count against the cap.
    env = {
        **os.environ,
        "PYTHONPATH": str(src),
        "OPENBLAS_NUM_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    completed = subprocess.run(
        [sys.executable, "-c", _GHZ6_SCRIPT], capture_output=True, text=True, env=env, timeout=300
    )
    assert completed.returncode == 0, completed.stderr[-2000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["num_qubits"] == 10
    for total in result["totals"]:
        assert abs(total - 1.0) <= 1e-12
