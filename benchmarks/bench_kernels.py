"""Benchmark: axis-local simulation kernels vs the full-space reference.

Run with ``pytest benchmarks/bench_kernels.py -q -s``.

Two paired workloads time identical circuits on the library simulators (the
axis-local contraction kernels of :mod:`repro.circuits.kernels`) and on the
full-space reference simulators of ``tests/reference/dense.py`` (which
expand every operator to ``2^n × 2^n``):

* a **density-matrix chain** — H/CX/T ladder with terminal measurements —
  through :class:`~repro.circuits.density_matrix_simulator.DensityMatrixSimulator`;
* a **statevector chain** — H/RZ/CX ladder — through
  :class:`~repro.circuits.statevector_simulator.StatevectorSimulator`.

Asserted invariants (deterministic under the pinned seeds):

* the median of per-pair speedups — each repeat times the library and the
  reference arm back to back, so a slow spell of the host hits both — gives
  the library simulators **≥ 5×** over the reference on the density-matrix
  workload and **≥ 10×** on the statevector workload;
* the exact classical distribution of the density-matrix workload and the
  final statevector are **bitwise identical** to the reference (the
  workload's gate entries make the contraction arithmetic exact, and
  measurement/reset kernels are bitwise by construction);
* a backend grid — serial / vectorized / process-pool / the distributed
  ``execute_unit`` path — returns **bitwise-identical** exact distributions
  and sampled counts for the same seed, equal to the reference distribution
  and to counts sampled from it;
* the prepared-operator LRU served repeat gate applications (hits observed).

``BENCH_kernels.json`` is written through the shared ``bench_artifact``
writer (``REPRO_BENCH_OUT`` overrides the directory).  The default smoke
configuration (9-qubit density matrix, 12-qubit statevector) keeps CI to
tens of seconds; set ``REPRO_BENCH_FULL=1`` for the headline scales
(12-qubit density matrix, 14-qubit statevector — several minutes, dominated
by the reference arm).
"""

import os
import statistics
import time

import numpy as np

from repro.circuits.backends import (
    DistributionCache,
    ProcessPoolBackend,
    SerialBackend,
    VectorizedBackend,
)
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.circuits.kernels import clear_prepared_cache, prepared_cache_info
from repro.circuits.statevector_simulator import StatevectorSimulator
from repro.distributed import WorkUnit, execute_unit
from repro.utils.rng import spawn_seed_sequences
from tests.reference.dense import DenseDensityMatrixSimulator, DenseStatevectorSimulator

#: Speedup floors (median per-pair ratio, reference over library simulator).
SPEEDUP_FLOOR_DM = 5.0
SPEEDUP_FLOOR_SV = 10.0
#: Seed of every sampled arm (the grid asserts bitwise identity under it).
SEED = 777
#: Shots per circuit in the backend grid.
SHOTS = 512
#: Scale of the cross-backend identity grid (kept small: identity is
#: scale-independent).
GRID_QUBITS = 6


def density_chain(num_qubits: int) -> QuantumCircuit:
    """H/CX/T ladder with the end qubits measured.

    The gate entries (0, ±1, 1/√2, e^{iπ/4}) keep the axis-local contraction
    bitwise identical to the full-space sandwich on this workload, which is
    what lets the benchmark assert exact distribution identity with the
    reference.
    """
    circuit = QuantumCircuit(num_qubits, 2, name=f"dm-chain{num_qubits}")
    circuit.h(0)
    for qubit in range(num_qubits - 1):
        circuit.cx(qubit, qubit + 1)
    for qubit in range(0, num_qubits, 3):
        circuit.t(qubit)
    circuit.h(num_qubits - 1)
    circuit.measure(0, 0)
    circuit.measure(num_qubits - 1, 1)
    return circuit


def statevector_chain(num_qubits: int, links: int) -> QuantumCircuit:
    """H/RZ/CX ladder over the first ``links`` wires of the register."""
    circuit = QuantumCircuit(num_qubits, 0, name=f"sv-chain{num_qubits}")
    circuit.h(0)
    for qubit in range(links):
        circuit.rz(0.3 + 0.1 * qubit, qubit)
        circuit.cx(qubit, qubit + 1)
    return circuit


def _configuration(full: bool) -> dict:
    if full:
        return {"mode": "full", "dm_qubits": 12, "sv_qubits": 14, "sv_links": 5, "repeats": 1}
    return {"mode": "smoke", "dm_qubits": 9, "sv_qubits": 12, "sv_links": 5, "repeats": 7}


def _timed(run) -> tuple[float, object]:
    """Return (wall seconds, result) of one run."""
    start = time.perf_counter()
    result = run()
    return time.perf_counter() - start, result


def _paired_timings(library, reference, repeats: int) -> dict:
    """Time the library and reference arms interleaved, ``repeats`` pairs.

    Each repeat runs both arms back to back (alternating which goes first),
    so a slow spell of the host hits both sides of a pair; the speedup is
    the median of the per-pair ratios.
    """
    library_samples, reference_samples, ratios = [], [], []
    for repeat in range(repeats):
        if repeat % 2 == 0:
            library_seconds, library_result = _timed(library)
            reference_seconds, reference_result = _timed(reference)
        else:
            reference_seconds, reference_result = _timed(reference)
            library_seconds, library_result = _timed(library)
        library_samples.append(library_seconds)
        reference_samples.append(reference_seconds)
        ratios.append(reference_seconds / library_seconds)
    return {
        "library_seconds": statistics.median(library_samples),
        "reference_seconds": statistics.median(reference_samples),
        "speedup": statistics.median(ratios),
        "library_result": library_result,
        "reference_result": reference_result,
    }


def _grid_results(circuits, shots):
    """Exact distributions + sampled counts from every in-process backend."""
    backends = {
        "serial": SerialBackend(),
        "vectorized": VectorizedBackend(cache=DistributionCache()),
        "process-pool": ProcessPoolBackend(),
    }
    results = {}
    for name, backend in backends.items():
        distributions = backend.exact_distributions(circuits)
        counts = [dict(c) for c in backend.run_batch(circuits, shots, seed=SEED)]
        results[name] = (distributions, counts)
    return results


def _reference_results(circuits, shots):
    """The reference distributions, sampled with the backends' per-circuit streams."""
    distributions = [
        DenseDensityMatrixSimulator().run(circuit).classical_distribution() for circuit in circuits
    ]
    counts = [
        dict(
            Counts.from_probabilities(
                distribution, shots=count, num_clbits=circuit.num_clbits,
                seed=np.random.default_rng(child),
            )
        )
        for circuit, distribution, count, child in zip(
            circuits, distributions, shots, spawn_seed_sequences(SEED, len(circuits))
        )
    ]
    return distributions, counts


def test_kernel_speedup_and_bitwise_identity(bench_artifact):
    """The library simulators beat the reference ≥5×/≥10× with bitwise-identical results."""
    full = os.environ.get("REPRO_BENCH_FULL", "") == "1"
    config = _configuration(full)
    repeats = config["repeats"]

    # -- density-matrix arm -------------------------------------------------------
    dm_circuit = density_chain(config["dm_qubits"])
    clear_prepared_cache()
    dm = _paired_timings(
        lambda: DensityMatrixSimulator().run(dm_circuit),
        lambda: DenseDensityMatrixSimulator().run(dm_circuit),
        repeats,
    )
    cache_info = prepared_cache_info()
    einsum_dm_seconds, dense_dm_seconds = dm["library_seconds"], dm["reference_seconds"]
    dm_speedup = dm["speedup"]
    einsum_distribution = dm["library_result"].classical_distribution()
    dense_distribution = dm["reference_result"].classical_distribution()
    assert einsum_distribution == dense_distribution, (
        "density-matrix distribution differs from the reference"
    )
    assert dm_speedup >= SPEEDUP_FLOOR_DM, (
        f"einsum {einsum_dm_seconds:.3f}s vs dense {dense_dm_seconds:.3f}s: "
        f"{dm_speedup:.1f}x < {SPEEDUP_FLOOR_DM}x on {config['dm_qubits']}-qubit density matrix"
    )
    # Repeated gates (CX appears once per link) were served from the LRU.
    assert cache_info["hits"] > 0, cache_info

    # -- statevector arm ----------------------------------------------------------
    sv_circuit = statevector_chain(config["sv_qubits"], config["sv_links"])
    sv = _paired_timings(
        lambda: StatevectorSimulator().run(sv_circuit),
        lambda: DenseStatevectorSimulator().run(sv_circuit),
        repeats,
    )
    einsum_sv_seconds, dense_sv_seconds = sv["library_seconds"], sv["reference_seconds"]
    sv_speedup = sv["speedup"]
    assert np.array_equal(sv["library_result"].data, sv["reference_result"].data), (
        "statevector differs from the reference"
    )
    assert sv_speedup >= SPEEDUP_FLOOR_SV, (
        f"einsum {einsum_sv_seconds:.3f}s vs dense {dense_sv_seconds:.3f}s: "
        f"{sv_speedup:.1f}x < {SPEEDUP_FLOOR_SV}x on {config['sv_qubits']}-qubit statevector"
    )

    # -- backend grid: bitwise identity across backends and with the reference ----
    grid_circuit = density_chain(GRID_QUBITS)
    grid_circuits = [grid_circuit, grid_circuit.copy()]
    grid_shots = [SHOTS, SHOTS // 2]
    reference = _reference_results(grid_circuits, grid_shots)
    for backend_name, got in _grid_results(grid_circuits, grid_shots).items():
        assert got == reference, f"{backend_name} diverged from the reference"

    # Distributed seam: execute_unit (what every pool worker runs) agrees
    # with the in-process grid and the reference for the same round seed.
    unit = WorkUnit(round_index=0, term_index=0, shots=SHOTS, seed=np.random.SeedSequence(SEED))
    selected = [[0, 1], [0, 1]]
    distributed_mean = execute_unit(
        VectorizedBackend(cache=DistributionCache()), grid_circuits, selected, unit
    ).mean
    reference_counts = Counts(reference[1][0], num_clbits=grid_circuit.num_clbits)
    assert distributed_mean == reference_counts.expectation_z([0, 1])

    record = {
        "config": config,
        "density_matrix": {
            "qubits": config["dm_qubits"],
            "median_seconds": round(einsum_dm_seconds, 6),
            "reference_median_seconds": round(dense_dm_seconds, 6),
            "speedup": round(dm_speedup, 2),
            "floor": SPEEDUP_FLOOR_DM,
            "distribution_bitwise_identical": True,
        },
        "statevector": {
            "qubits": config["sv_qubits"],
            "median_seconds": round(einsum_sv_seconds, 6),
            "reference_median_seconds": round(dense_sv_seconds, 6),
            "speedup": round(sv_speedup, 2),
            "floor": SPEEDUP_FLOOR_SV,
            "state_bitwise_identical": True,
        },
        "backend_grid": {
            "qubits": GRID_QUBITS,
            "backends": ["serial", "vectorized", "process-pool", "distributed-unit"],
            "reference": "tests/reference/dense.py",
            "bitwise_identical": True,
            "distributed_mean": distributed_mean,
        },
        "prepared_operator_cache": cache_info,
    }
    path = bench_artifact("BENCH_kernels.json", record)
    print(
        f"\nkernels [{config['mode']}]: "
        f"DM {config['dm_qubits']}q {dm_speedup:.1f}x (floor {SPEEDUP_FLOOR_DM}x), "
        f"SV {config['sv_qubits']}q {sv_speedup:.1f}x (floor {SPEEDUP_FLOOR_SV}x), "
        f"bitwise identity OK -> {path}"
    )
