"""Execution backends: batched evaluation of circuit collections.

Every consumer of finite-shot results (the cut executor, the experiment
harnesses, the CLI) routes through a :class:`SimulatorBackend`, which turns a
*batch* of measured circuits into per-circuit :class:`~repro.circuits.counts.Counts`
(or exact outcome distributions).  Centralising execution behind this seam is
what lets a parameter sweep evaluate thousands of QPD term circuits without
the caller knowing — or caring — how they are scheduled.

Available backends
------------------

=====================  ======================================================
``SerialBackend``      One exact simulation per circuit, in submission order
                       (:class:`~repro.circuits.batched_simulator.BatchedDensityMatrixSimulator`
                       on a batch of one, no cache), sampled like every
                       other backend; the baseline they agree with bitwise.
``VectorizedBackend``  Groups structurally identical circuits, executes each
                       group as one ``(batch, dim, dim)`` NumPy computation
                       (:class:`~repro.circuits.batched_simulator.BatchedDensityMatrixSimulator`),
                       samples each term's full shot budget with a single
                       multinomial draw over its exact outcome distribution,
                       and memoises distributions in an LRU cache so sweeps
                       never re-simulate identical term circuits.
``ProcessPoolBackend`` Chunks the batch across worker processes, each running
                       the vectorized path; for wide multi-group sweeps on
                       multi-core machines.
=====================  ======================================================

Two further implementations live in :mod:`repro.devices` and slot into the
same seam: :class:`~repro.devices.NoisyDeviceBackend` (any backend above plus
a per-device noise model) and :class:`~repro.devices.DeviceFleet` (shot-wise
distribution of every circuit across several noisy devices).  Pass their
*instances* wherever a backend is accepted — :func:`resolve_backend` forwards
any object implementing the protocol.

Determinism contract
--------------------

``run_batch(circuits, shots, seed)`` derives one independent child stream per
circuit from ``seed`` (:func:`~repro.utils.rng.spawn_seed_sequences`) and
samples circuit ``i`` exclusively from stream ``i``.  Consequently the same
seed yields the *same* :class:`~repro.circuits.counts.Counts` list from every
backend, regardless of grouping, chunking or worker count — cross-backend
agreement is a hard guarantee, not a statistical one.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from collections.abc import Sequence
from concurrent.futures import ProcessPoolExecutor
from typing import Protocol, runtime_checkable

import numpy as np

from repro.exceptions import SimulationError
from repro.telemetry.metrics import REGISTRY
from repro.circuits.batched_simulator import BatchedDensityMatrixSimulator, structure_signature
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.utils.rng import SeedLike, spawn_seed_sequences

__all__ = [
    "SimulatorBackend",
    "SerialBackend",
    "VectorizedBackend",
    "ProcessPoolBackend",
    "DistributionCache",
    "default_distribution_cache",
    "circuit_fingerprint",
    "resolve_backend",
    "BACKEND_NAMES",
]

#: Backend names accepted by :func:`resolve_backend` (and the CLI ``--backend`` flag).
BACKEND_NAMES = ("serial", "vectorized", "process-pool")

#: Process-wide cache hit/miss counters (additive observability — every
#: in-process :class:`DistributionCache` reports here regardless of which
#: backend owns it, so sweeps see uniform accounting on ``GET /metrics``).
_CACHE_HITS = REGISTRY.counter(
    "repro_distribution_cache_hits_total",
    "Exact-distribution cache hits across all in-process caches.",
)
_CACHE_MISSES = REGISTRY.counter(
    "repro_distribution_cache_misses_total",
    "Exact-distribution cache misses across all in-process caches.",
)


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Return a content hash identifying a circuit's exact physical action.

    Two circuits with the same fingerprint produce the same classical-outcome
    distribution: the hash covers register sizes and, per instruction, the
    kind, targets, condition and the full numeric payload (gate unitary or
    ``initialize`` vector).  Cosmetic attributes (circuit/gate names) are
    excluded so that identically-acting circuits hit the same cache entry.
    """
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{circuit.num_qubits}|{circuit.num_clbits}".encode())
    for instruction in circuit.instructions:
        if instruction.kind == "barrier":
            continue
        digest.update(
            f"|{instruction.kind};{instruction.qubits};{instruction.clbits};"
            f"{instruction.condition}".encode()
        )
        if instruction.matrix is not None:
            matrix = np.ascontiguousarray(instruction.matrix, dtype=complex)
            digest.update(str(matrix.shape).encode())
            digest.update(matrix.tobytes())
    return digest.hexdigest()


class DistributionCache:
    """LRU cache of exact per-circuit outcome distributions.

    Keys are :func:`circuit_fingerprint` hashes of *measured* term circuits
    (the observable's basis change and measurement are part of the circuit,
    so the key effectively covers the (term circuit, observable) pair); values
    are bitstring → probability dictionaries.  Parameter sweeps that revisit
    a term circuit — repeated estimates at growing shot budgets, repeated CLI
    invocations in one process — skip the simulation entirely on a hit.
    """

    def __init__(self, maxsize: int = 4096):
        if maxsize < 0:
            raise ValueError(f"maxsize must be non-negative, got {maxsize}")
        self.maxsize = int(maxsize)
        self._entries: OrderedDict[str, dict[str, float]] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict[str, float] | None:
        """Return the cached distribution for ``key`` (marking it recently used)."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            _CACHE_MISSES.inc()
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        _CACHE_HITS.inc()
        return entry

    def put(self, key: str, distribution: dict[str, float]) -> None:
        """Insert a distribution, evicting the least recently used entry when full."""
        if self.maxsize == 0:
            return
        self._entries[key] = distribution
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters.

        Only the *instance* counters reset; the process-wide metrics
        counters on :data:`repro.telemetry.metrics.REGISTRY` are cumulative,
        so sweep accounting survives cache resets and backend reuse.
        """
        self._entries.clear()
        self.hits = 0
        self.misses = 0


#: Process-wide cache shared by every :class:`VectorizedBackend` that does not
#: bring its own.
default_distribution_cache = DistributionCache()


@runtime_checkable
class SimulatorBackend(Protocol):
    """Protocol every execution backend implements."""

    name: str

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: Sequence[int],
        seed: SeedLike = None,
    ) -> list[Counts]:
        """Sample ``shots[i]`` outcomes of ``circuits[i]`` for every ``i``."""
        ...

    def exact_distributions(
        self, circuits: Sequence[QuantumCircuit]
    ) -> list[dict[str, float]]:
        """Return the exact classical-outcome distribution of every circuit."""
        ...


def _check_batch(circuits: Sequence[QuantumCircuit], shots: Sequence[int]) -> None:
    if len(circuits) != len(shots):
        raise SimulationError(
            f"got {len(circuits)} circuits but {len(shots)} shot counts"
        )
    for count in shots:
        if count < 0:
            raise ValueError(f"shots must be non-negative, got {count}")


def _sample_distribution(
    distribution: dict[str, float],
    shots: int,
    num_clbits: int,
    seed: np.random.SeedSequence,
) -> Counts:
    """Draw a circuit's full shot budget with one multinomial over its distribution."""
    if shots == 0:
        return Counts({}, num_clbits=num_clbits)
    return Counts.from_probabilities(
        distribution, shots=shots, num_clbits=num_clbits, seed=np.random.default_rng(seed)
    )


def _sample_batch(
    backend: "SimulatorBackend",
    circuits: Sequence[QuantumCircuit],
    shots: Sequence[int],
    children: Sequence[np.random.SeedSequence],
) -> list[Counts]:
    """Sample every circuit from its own stream, simulating only sampled ones.

    Circuits allocated zero shots return empty counts without paying for a
    distribution (mirroring the serial backend, which never simulates them).
    """
    active = [index for index, count in enumerate(shots) if count > 0]
    distributions = dict(
        zip(active, backend.exact_distributions([circuits[index] for index in active]))
    )
    return [
        _sample_distribution(distributions[index], int(count), circuit.num_clbits, child)
        if index in distributions
        else Counts({}, num_clbits=circuit.num_clbits)
        for index, (circuit, count, child) in enumerate(zip(circuits, shots, children))
    ]


class SerialBackend:
    """Baseline backend: one uncached exact simulation per circuit, in order.

    Each circuit runs as a batch of one through the simulator the vectorized
    backend batches, and is sampled by the same routine from the same child
    stream, so serial and vectorized results agree by construction.
    """

    name = "serial"

    def __init__(self):
        self._simulator = BatchedDensityMatrixSimulator()

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: Sequence[int],
        seed: SeedLike = None,
    ) -> list[Counts]:
        _check_batch(circuits, shots)
        children = spawn_seed_sequences(seed, len(circuits))
        return _sample_batch(self, circuits, shots, children)

    def exact_distributions(
        self, circuits: Sequence[QuantumCircuit]
    ) -> list[dict[str, float]]:
        return [self._simulator.run_group([circuit])[0] for circuit in circuits]


class VectorizedBackend:
    """Batched backend: group, simulate as one NumPy batch, cache, sample.

    Structurally identical circuits (same instruction stream, differing only
    in numeric payloads — the shape of every QPD parameter sweep) are stacked
    into a single ``(batch, dim, dim)`` density-matrix computation.  Exact
    distributions are memoised in a :class:`DistributionCache`, and each
    circuit's shots are then drawn with a single multinomial over its exact
    distribution using the circuit's own child stream.
    """

    name = "vectorized"

    def __init__(self, cache: DistributionCache | None = None):
        self.cache = default_distribution_cache if cache is None else cache
        self._simulator = BatchedDensityMatrixSimulator()

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: Sequence[int],
        seed: SeedLike = None,
    ) -> list[Counts]:
        _check_batch(circuits, shots)
        children = spawn_seed_sequences(seed, len(circuits))
        return _sample_batch(self, circuits, shots, children)

    def exact_distributions(
        self, circuits: Sequence[QuantumCircuit]
    ) -> list[dict[str, float]]:
        results: list[dict[str, float] | None] = [None] * len(circuits)
        # Cache lookup; identical circuits inside the batch simulate only once.
        pending_by_key: dict[str, list[int]] = {}
        for index, circuit in enumerate(circuits):
            key = circuit_fingerprint(circuit)
            cached = self.cache.get(key)
            if cached is not None:
                results[index] = cached
            else:
                pending_by_key.setdefault(key, []).append(index)

        # Group the remaining unique circuits by batchable structure.
        groups: dict[tuple, list[str]] = {}
        for key, indices in pending_by_key.items():
            signature = structure_signature(circuits[indices[0]])
            groups.setdefault(signature, []).append(key)

        for keys in groups.values():
            group_circuits = [circuits[pending_by_key[key][0]] for key in keys]
            distributions = self._simulator.run_group(group_circuits)
            for key, distribution in zip(keys, distributions):
                self.cache.put(key, distribution)
                for index in pending_by_key[key]:
                    results[index] = distribution
        return results  # type: ignore[return-value]


def _pool_worker_distributions(
    circuits: list[QuantumCircuit],
) -> tuple[list[dict[str, float]], dict]:
    """Worker entry point: exact distributions of one chunk (fresh local cache).

    Returns the distributions and the registry counter increments they made.
    """
    backend = VectorizedBackend(cache=DistributionCache())
    return REGISTRY.call_counting(backend.exact_distributions, circuits)


def _pool_worker_run(
    payload: tuple[list[QuantumCircuit], list[int], list[np.random.SeedSequence]],
) -> tuple[list[Counts], dict]:
    """Worker entry point: sample one chunk with pre-spawned per-circuit streams.

    Returns the counts and the registry counter increments they made.
    """
    circuits, shots, children = payload
    backend = VectorizedBackend(cache=DistributionCache())
    return REGISTRY.call_counting(_sample_batch, backend, circuits, shots, children)


def _merge_chunks(chunk_results: list[tuple[list, dict]]) -> list:
    """Concatenate worker chunk results and fold their counters into this registry."""
    results: list = []
    for chunk_result, increments in chunk_results:
        REGISTRY.add_counter_samples(increments)
        results.extend(chunk_result)
    return results


class ProcessPoolBackend:
    """Multi-process backend: chunk the batch across worker processes.

    Each worker runs the vectorized path on its chunk.  Because per-circuit
    sample streams are spawned in the parent and shipped with the chunk, the
    results are identical to the other backends for the same seed, whatever
    the chunking or worker count.  Worth it for wide sweeps whose batch
    splits into many structure groups; for small batches the fork/pickle
    overhead dominates and :class:`VectorizedBackend` is the better choice.

    The backend owns a persistent :class:`DistributionCache` used whenever a
    batch is small enough to run in-process (the single-chunk fast path), so
    repeated sweep points reuse distributions *and* the ``cache.hits`` /
    ``cache.misses`` accounting survives across calls — previously every
    call built a throwaway cache and the stats were lost.  Multi-chunk
    batches use worker-local caches (worker processes cannot share the
    parent's); each worker returns the registry counter increments of its
    chunk (gate applications, cache hits and misses) with the chunk's
    results, and they are added to this process's registry, so
    ``GET /metrics`` and the benchmark see the workers' work.
    """

    name = "process-pool"

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ValueError(f"max_workers must be positive, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be positive, got {chunk_size}")
        self.max_workers = max_workers
        self.chunk_size = chunk_size
        #: Persistent cache of the in-process (single-chunk) path; stats
        #: accumulate across sweep points instead of resetting per call.
        self.cache = DistributionCache()

    def _chunks(self, total: int) -> list[range]:
        if total == 0:
            return []
        import os

        workers = self.max_workers or min(8, os.cpu_count() or 1)
        size = self.chunk_size or max(1, -(-total // workers))
        return [range(start, min(start + size, total)) for start in range(0, total, size)]

    def run_batch(
        self,
        circuits: Sequence[QuantumCircuit],
        shots: Sequence[int],
        seed: SeedLike = None,
    ) -> list[Counts]:
        _check_batch(circuits, shots)
        children = spawn_seed_sequences(seed, len(circuits))
        chunks = self._chunks(len(circuits))
        if len(chunks) <= 1:
            # Run the single chunk in-process, with the streams already
            # spawned above — the generator passed as `seed` has been
            # consumed, so re-deriving children from it would break the
            # cross-backend determinism contract.
            return _sample_batch(
                VectorizedBackend(cache=self.cache),
                list(circuits),
                [int(s) for s in shots],
                children,
            )
        payloads = [
            (
                [circuits[i] for i in chunk],
                [int(shots[i]) for i in chunk],
                [children[i] for i in chunk],
            )
            for chunk in chunks
        ]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            return _merge_chunks(list(pool.map(_pool_worker_run, payloads)))

    def exact_distributions(
        self, circuits: Sequence[QuantumCircuit]
    ) -> list[dict[str, float]]:
        chunks = self._chunks(len(circuits))
        if len(chunks) <= 1:
            return VectorizedBackend(cache=self.cache).exact_distributions(circuits)
        payloads = [[circuits[i] for i in chunk] for chunk in chunks]
        with ProcessPoolExecutor(max_workers=self.max_workers) as pool:
            return _merge_chunks(list(pool.map(_pool_worker_distributions, payloads)))


def resolve_backend(backend: SimulatorBackend | str | None) -> SimulatorBackend:
    """Return a backend instance for a name, an instance, or ``None`` (default).

    ``None`` resolves to :class:`SerialBackend`, preserving the pre-backend
    behaviour of the executor.  Instances (including
    :class:`~repro.devices.NoisyDeviceBackend` and
    :class:`~repro.devices.DeviceFleet`) pass through unchanged.
    """
    if backend is None:
        return SerialBackend()
    if not isinstance(backend, str):
        return backend
    name = backend.lower().replace("_", "-")
    if name == "serial":
        return SerialBackend()
    if name == "vectorized":
        return VectorizedBackend()
    if name == "process-pool":
        return ProcessPoolBackend()
    raise SimulationError(
        f"unknown backend {backend!r}; expected one of {BACKEND_NAMES}"
    )
