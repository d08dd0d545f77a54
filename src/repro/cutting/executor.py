"""Executing a single cut: sampling the QPD terms and recombining expectation values.

This is the single-cut runtime that turns a
:class:`~repro.cutting.base.WireCutProtocol` plus a circuit into an
expectation-value estimate, following the procedure of Section IV of the
paper.  It is the one-cut special case of the general machinery: multi-cut
estimation (tensor-product term sets, several fragments) lives in
:mod:`repro.cutting.multi_wire` and is orchestrated by
:class:`repro.pipeline.CutPipeline`; the fast sweep path below
(:class:`CutSamplingModel`) remains the engine of the Figure-6 harness.

The procedure per estimate:

1. build one circuit per QPD term (:mod:`repro.cutting.cutter`),
2. split the total shot budget across the terms proportionally to the
   coefficient magnitudes (other allocation strategies are available for the
   ablation benchmarks),
3. run each term circuit on the shot simulator, measuring the observable on
   the receiver side (plus any term-internal sign bits),
4. recombine the per-term means with the signed coefficients (Eq. 12).

Two execution paths are provided:

* :func:`estimate_cut_expectation` — the general path; every call samples the
  term circuits afresh through a
  :class:`~repro.circuits.backends.SimulatorBackend` (``backend=`` selects
  serial, vectorized or process-pool execution).
* :class:`CutSamplingModel` (via :func:`build_sampling_model`, or
  :func:`build_sampling_models` for whole workloads at once) — a fast path
  for parameter sweeps: the exact per-term outcome distributions are computed
  once and each subsequent estimate only needs binomial draws.  This is what
  the Figure-6 harness uses to evaluate 1000 input states × 6 entanglement
  levels × many shot budgets in seconds; it is statistically identical to the
  general path because each shot is an i.i.d. draw from the same exact
  distribution.

Multi-cut plans get the same exact-distribution fast path through the
instance-dedup layer (:mod:`repro.cutting.instances`): the unique
(fragment, basis-config) subcircuit instances are simulated once, each
product term's ``p₊`` is chained from the shared fragment tensors, and
:func:`sampling_models_from_instances` bridges an evaluated table into the
:class:`TermSamplingModel` machinery below.

Both paths offer two execution modes: ``static`` (the whole budget
allocated up front — the paper's procedure, unchanged bitwise) and
``adaptive`` (the round-structured engine of :mod:`repro.qpd.adaptive`,
stopping at a target standard error).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.backends import SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import _BASIS_CHANGE, exact_expectation
from repro.cutting.base import WireCutProtocol
from repro.cutting.cutter import CutLocation, CutTermCircuit, build_cut_circuits
from repro.qpd.adaptive import (
    DEFAULT_MAX_ROUNDS,
    AdaptiveConfig,
    AdaptiveResult,
    RoundRecord,
    run_adaptive_rounds,
)
from repro.qpd.allocation import allocate_shots
from repro.qpd.estimator import QPDEstimate, TermEstimate, combine_term_estimates, combine_term_means
from repro.quantum.paulis import PauliString
from repro.quantum.states import Statevector
from repro.utils.rng import SeedLike, as_generator

#: Execution modes accepted by the estimation entry points.
ESTIMATION_MODES = ("static", "adaptive")

__all__ = [
    "BackendRoundExecutor",
    "CutExpectationResult",
    "ESTIMATION_MODES",
    "estimate_cut_expectation",
    "build_sampling_model",
    "build_sampling_models",
    "CutSamplingModel",
    "TermSamplingModel",
    "cut_expectation_value",
    "exact_cut_expectation",
    "sampling_models_from_instances",
]


@dataclass(frozen=True)
class CutExpectationResult:
    """Result of estimating an observable through a wire cut.

    Attributes
    ----------
    value:
        The recombined expectation-value estimate.
    standard_error:
        Propagated standard error.
    total_shots:
        Shots actually spent (across all term circuits).
    kappa:
        Sampling-overhead factor of the protocol used.
    shots_per_term:
        Shots assigned to each term.
    term_estimates:
        Per-term empirical summaries.
    protocol_name:
        Name of the wire-cut protocol.
    exact_value:
        The exact (uncut) expectation value, when it was computed alongside
        the estimate; ``None`` otherwise.
    mode:
        ``"static"`` (one up-front allocation) or ``"adaptive"`` (the
        round-structured engine of :mod:`repro.qpd.adaptive`).
    converged:
        Adaptive mode only: whether the pooled standard error reached the
        target before the budget ran out (``None`` in static mode).
    rounds:
        Adaptive mode only: the executed round records.
    """

    value: float
    standard_error: float
    total_shots: int
    kappa: float
    shots_per_term: tuple[int, ...]
    term_estimates: tuple[TermEstimate, ...]
    protocol_name: str
    exact_value: float | None = None
    mode: str = "static"
    converged: bool | None = None
    rounds: tuple[RoundRecord, ...] = ()

    @property
    def error(self) -> float | None:
        """Absolute deviation from the exact value (Eq. 28), when available."""
        if self.exact_value is None:
            return None
        return abs(self.value - self.exact_value)

    @classmethod
    def from_adaptive(
        cls,
        adaptive: AdaptiveResult,
        protocol_name: str,
        exact_value: float | None,
    ) -> "CutExpectationResult":
        """Freeze an engine result into the shared result type.

        The single mapping used by every adaptive entry point (general
        executor, sampling-model fast path, multi-cut estimator).
        """
        estimate = adaptive.estimate
        return cls(
            value=estimate.value,
            standard_error=estimate.standard_error,
            total_shots=estimate.total_shots,
            kappa=estimate.kappa,
            shots_per_term=tuple(t.shots for t in estimate.term_estimates),
            term_estimates=estimate.term_estimates,
            protocol_name=protocol_name,
            exact_value=exact_value,
            mode="adaptive",
            converged=adaptive.converged,
            rounds=adaptive.rounds,
        )


# ---------------------------------------------------------------------------
# Observables
# ---------------------------------------------------------------------------


def _as_pauli(observable: str | PauliString, num_qubits: int) -> PauliString:
    """Normalise the observable argument to a PauliString over the logical qubits."""
    if isinstance(observable, PauliString):
        pauli = observable
    else:
        pauli = PauliString(observable)
    if pauli.num_qubits == 1 and num_qubits > 1:
        # A single-letter observable refers to qubit 0, identity elsewhere.
        pauli = PauliString(pauli.labels + "I" * (num_qubits - 1), pauli.phase)
    if pauli.num_qubits != num_qubits:
        raise CuttingError(
            f"observable acts on {pauli.num_qubits} qubits, circuit has {num_qubits}"
        )
    if pauli.phase != 1:
        raise CuttingError("observables with non-unit phase are not supported")
    return pauli


def _measured_term_circuit(
    term_circuit: CutTermCircuit, pauli: PauliString
) -> tuple[QuantumCircuit, tuple[int, ...]]:
    """Append observable basis changes and measurements to a term circuit.

    Returns the measured circuit and the classical bits holding the
    observable outcomes.
    """
    base = term_circuit.circuit
    active = [
        (term_circuit.qubit_map[logical], label)
        for logical, label in enumerate(pauli.labels)
        if label != "I"
    ]
    measured = QuantumCircuit(
        base.num_qubits, base.num_clbits + len(active), name=f"{base.name}_meas"
    )
    measured.compose(base, inplace=True)
    observable_clbits = []
    for offset, (physical_qubit, label) in enumerate(active):
        for gate_name, params in _BASIS_CHANGE[label]:
            measured.gate(gate_name, physical_qubit, params)
        clbit = base.num_clbits + offset
        measured.measure(physical_qubit, clbit)
        observable_clbits.append(clbit)
    return measured, tuple(observable_clbits)


# ---------------------------------------------------------------------------
# General (backend) path
# ---------------------------------------------------------------------------


def estimate_cut_expectation(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    shots: int = 1000,
    allocation: str = "proportional",
    seed: SeedLike = None,
    compute_exact: bool = True,
    backend: SimulatorBackend | str | None = None,
    mode: str = "static",
    target_error: float | None = None,
    rounds: int = DEFAULT_MAX_ROUNDS,
    planner: str | None = None,
    execution: str = "inprocess",
    workers: int | None = None,
) -> CutExpectationResult:
    """Estimate ``⟨O⟩`` of ``circuit`` with the wire at ``location`` cut by ``protocol``.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit; it is not modified.
    location:
        Where to cut (qubit and instruction position).
    protocol:
        The wire-cut protocol providing the QPD.
    observable:
        Pauli observable over the circuit's logical qubits (a single letter
        refers to qubit 0).
    shots:
        Total shot budget across all term circuits.  In adaptive mode this
        is the hard ``max_shots`` ceiling; fewer shots are spent when the
        target error is reached early.
    allocation:
        Shot-allocation strategy (``proportional``, ``multinomial``, ``uniform``).
    seed:
        Seed or generator for all sampling.  Static mode consumes it
        exactly as before this parameterisation (bitwise-identical
        results); adaptive mode derives one child stream per round.
    compute_exact:
        Also compute the exact uncut value for error reporting.
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.  All backends yield identical results for the same seed.
    mode:
        ``"static"`` (one up-front allocation, the default) or
        ``"adaptive"`` (round-structured execution with early stopping).
    target_error:
        Adaptive mode's stopping threshold on the pooled standard error
        (required when ``mode="adaptive"``).
    rounds:
        Adaptive mode's round limit.
    planner:
        Adaptive mode's per-round :class:`~repro.qpd.allocation.ShotPlanner`
        name (``"neyman"`` by default).
    execution:
        Adaptive mode's round execution: ``"inprocess"`` (default) or
        ``"distributed"`` (rounds fan out over the multi-process
        work-stealing pool of :mod:`repro.distributed`; bitwise identical
        to in-process for the same seed).
    workers:
        Distributed execution's worker-process count.
    """
    if mode not in ESTIMATION_MODES:
        raise CuttingError(f"unknown mode {mode!r}; expected one of {ESTIMATION_MODES}")
    if execution != "inprocess" and mode != "adaptive":
        raise CuttingError("distributed execution requires mode='adaptive'")
    pauli = _as_pauli(observable, circuit.num_qubits)
    decomposition = protocol.decomposition()
    term_circuits = build_cut_circuits(circuit, location, protocol)
    exec_backend = resolve_backend(backend)
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, observable_clbits = _measured_term_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(list(observable_clbits) + list(term_circuit.sign_clbits))
    exact_value = (
        exact_expectation(circuit, pauli.to_matrix()) if compute_exact else None
    )

    if mode == "adaptive":
        if target_error is None:
            raise CuttingError("adaptive mode requires target_error")
        config = AdaptiveConfig(
            target_error=target_error, max_shots=int(shots), max_rounds=rounds, planner=planner
        )
        adaptive = run_adaptive_rounds(
            [term.coefficient for term in term_circuits],
            _backend_round_executor(exec_backend, measured_circuits, selected_clbits),
            config,
            seed=seed,
            labels=[term.term.label for term in term_circuits],
            execution=execution,
            workers=workers,
        )
        return CutExpectationResult.from_adaptive(adaptive, protocol.name, exact_value)

    rng = as_generator(seed)
    shots_per_term = allocate_shots(decomposition.probabilities, shots, strategy=allocation, seed=rng)
    counts_per_term = exec_backend.run_batch(
        measured_circuits, [int(s) for s in shots_per_term], seed=rng
    )
    term_estimates: list[TermEstimate] = []
    for term_circuit, term_shots, counts, selected in zip(
        term_circuits, shots_per_term, counts_per_term, selected_clbits
    ):
        if term_shots == 0:
            mean = 0.0
        elif selected:
            mean = counts.expectation_z(selected)
        else:
            mean = 1.0
        term_estimates.append(
            TermEstimate(
                coefficient=term_circuit.coefficient,
                mean=mean,
                shots=int(term_shots),
                label=term_circuit.term.label,
            )
        )

    estimate: QPDEstimate = combine_term_estimates(term_estimates)
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(int(s) for s in shots_per_term),
        term_estimates=estimate.term_estimates,
        protocol_name=protocol.name,
        exact_value=exact_value,
    )


class BackendRoundExecutor:
    """The adaptive engine's round hook over a simulator backend.

    Each round submits the full measured-circuit batch with the round's
    per-term shot counts (zero-shot terms keep the per-circuit seed streams
    aligned) and reduces the counts to per-term signed means.  Terms with
    no measured bits are deterministic +1 and never pay simulator shots.

    The executor also implements the engine's distribution hook:
    :meth:`distribute` lifts it into a
    :class:`~repro.distributed.DistributedRoundExecutor` over the same
    batch and backend, which produces bitwise-identical rounds through the
    multi-process work-stealing pool.
    """

    def __init__(
        self,
        exec_backend: SimulatorBackend,
        measured_circuits: list[QuantumCircuit],
        selected_clbits: list[list[int]],
    ) -> None:
        self.backend = exec_backend
        self.measured_circuits = list(measured_circuits)
        self.selected_clbits = [list(bits) for bits in selected_clbits]

    def __call__(self, index, round_shots, seed_sequence):
        """Run one round's batch and reduce counts to per-term signed means."""
        submitted = [
            int(count) if selected else 0
            for count, selected in zip(round_shots, self.selected_clbits)
        ]
        counts_per_term = self.backend.run_batch(
            self.measured_circuits, submitted, seed=seed_sequence
        )
        means = []
        for counts, selected, count in zip(counts_per_term, self.selected_clbits, round_shots):
            if count == 0:
                means.append(0.0)
            elif selected:
                means.append(counts.expectation_z(selected))
            else:
                means.append(1.0)
        return means

    def distribute(self, workers: int | None = None, **options):
        """Return the distributed round executor over the same batch and backend.

        Parameters
        ----------
        workers:
            Worker-process count (the distributed default when ``None``).
        options:
            Forwarded to
            :class:`~repro.distributed.DistributedRoundExecutor` (steal
            policy, pool mode, simulated latencies, ...).
        """
        from repro.distributed import DistributedRoundExecutor

        return DistributedRoundExecutor(
            self.measured_circuits,
            self.selected_clbits,
            backend=self.backend,
            workers=workers,
            **options,
        )


def _backend_round_executor(
    exec_backend: SimulatorBackend,
    measured_circuits: list[QuantumCircuit],
    selected_clbits: list[list[int]],
) -> BackendRoundExecutor:
    """Return the adaptive engine's round hook over a simulator backend."""
    return BackendRoundExecutor(exec_backend, measured_circuits, selected_clbits)


# ---------------------------------------------------------------------------
# Fast sweep path: precomputed exact per-term distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TermSamplingModel:
    """Exact sampling model of one term circuit.

    Attributes
    ----------
    coefficient:
        QPD coefficient of the term.
    probability_plus:
        Exact probability that one shot of the term circuit yields a signed
        outcome of +1 (observable parity × sign-bit parity).
    label:
        Term label.
    consumes_entangled_pair:
        Resource accounting flag.
    """

    coefficient: float
    probability_plus: float
    label: str
    consumes_entangled_pair: bool = False

    @property
    def exact_mean(self) -> float:
        """The term's exact expectation ``2 p₊ − 1``."""
        return 2.0 * self.probability_plus - 1.0

    def sample_mean(self, shots: int, rng: np.random.Generator) -> float:
        """Return the empirical mean of ``shots`` i.i.d. ±1 outcomes."""
        if shots <= 0:
            return 0.0
        successes = rng.binomial(shots, self.probability_plus)
        return 2.0 * successes / shots - 1.0


@dataclass(frozen=True)
class CutSamplingModel:
    """Exact per-term outcome distributions for fast repeated estimation.

    Built once per (circuit, protocol, observable) combination; estimates for
    any shot budget are then produced with binomial draws only.
    """

    terms: tuple[TermSamplingModel, ...]
    exact_value: float
    protocol_name: str

    @property
    def kappa(self) -> float:
        """Sampling-overhead factor of the underlying protocol."""
        return float(sum(abs(t.coefficient) for t in self.terms))

    @property
    def probabilities(self) -> np.ndarray:
        """Coefficient-proportional sampling distribution over terms."""
        magnitudes = np.array([abs(t.coefficient) for t in self.terms])
        return magnitudes / magnitudes.sum()

    def exact_cut_value(self) -> float:
        """The exact value reconstructed through the decomposition (should equal ``exact_value``)."""
        return float(sum(t.coefficient * t.exact_mean for t in self.terms))

    def estimate(
        self,
        shots: int,
        allocation: str = "proportional",
        seed: SeedLike = None,
    ) -> CutExpectationResult:
        """Produce one finite-shot estimate with the given total budget."""
        rng = as_generator(seed)
        shots_per_term = allocate_shots(self.probabilities, shots, strategy=allocation, seed=rng)
        term_estimates = []
        for model, term_shots in zip(self.terms, shots_per_term):
            mean = model.sample_mean(int(term_shots), rng)
            term_estimates.append(
                TermEstimate(
                    coefficient=model.coefficient,
                    mean=mean,
                    shots=int(term_shots),
                    label=model.label,
                )
            )
        estimate = combine_term_estimates(term_estimates)
        return CutExpectationResult(
            value=estimate.value,
            standard_error=estimate.standard_error,
            total_shots=estimate.total_shots,
            kappa=estimate.kappa,
            shots_per_term=tuple(int(s) for s in shots_per_term),
            term_estimates=estimate.term_estimates,
            protocol_name=self.protocol_name,
            exact_value=self.exact_value,
        )

    def estimate_adaptive(
        self,
        config: AdaptiveConfig,
        seed: SeedLike = None,
    ) -> CutExpectationResult:
        """Produce one adaptive estimate through the streaming round engine.

        The engine plans each round with the configured
        :class:`~repro.qpd.allocation.ShotPlanner`, draws the round's
        outcomes as binomial samples from the exact per-term distributions
        (statistically identical to re-running the simulator), merges the
        running statistics and stops as soon as the pooled standard error
        reaches ``config.target_error`` — or ``config.max_shots`` /
        ``config.max_rounds`` is exhausted.

        Parameters
        ----------
        config:
            The adaptive-engine configuration.
        seed:
            Master seed; round ``r`` draws from the ``r``-th spawned child
            stream.

        Returns
        -------
        CutExpectationResult
            The recombined estimate with ``mode="adaptive"``, the round
            records and the convergence flag attached.
        """
        p_plus = np.array([t.probability_plus for t in self.terms])

        def execute_round(index, round_shots, seed_sequence):
            """Draw one round's outcomes as binomials from the exact distributions."""
            rng = np.random.default_rng(seed_sequence)
            return [
                2.0 * rng.binomial(int(count), probability) / count - 1.0 if count > 0 else 0.0
                for probability, count in zip(p_plus, round_shots)
            ]

        adaptive: AdaptiveResult = run_adaptive_rounds(
            [t.coefficient for t in self.terms],
            execute_round,
            config,
            seed=seed,
            labels=[t.label for t in self.terms],
        )
        return CutExpectationResult.from_adaptive(adaptive, self.protocol_name, self.exact_value)

    def estimate_sweep(
        self,
        shot_grid: Sequence[int],
        allocation: str = "proportional",
        seed: SeedLike = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Estimate once per budget in ``shot_grid`` with vectorised draws.

        Every (budget, term) cell draws its binomial successes in one batched
        NumPy call and the recombination runs through
        :func:`~repro.qpd.estimator.combine_term_means`, so sweeping a shot
        grid costs a handful of array operations instead of
        ``len(shot_grid) × num_terms`` Python-level samples.

        Returns
        -------
        tuple[numpy.ndarray, numpy.ndarray]
            ``(values, standard_errors)`` arrays of length ``len(shot_grid)``.
        """
        rng = as_generator(seed)
        coefficients = np.array([t.coefficient for t in self.terms])
        p_plus = np.array([t.probability_plus for t in self.terms])
        shots_matrix = np.stack(
            [allocate_shots(self.probabilities, int(s), strategy=allocation, seed=rng) for s in shot_grid]
        )
        successes = rng.binomial(shots_matrix, p_plus)
        with np.errstate(divide="ignore", invalid="ignore"):
            means = np.where(
                shots_matrix > 0, 2.0 * successes / np.maximum(shots_matrix, 1) - 1.0, 0.0
            )
        return combine_term_means(coefficients, means, shots_matrix)

    def expected_pairs(self, shots: int, allocation: str = "proportional") -> float:
        """Expected number of entangled pairs consumed by a ``shots``-shot estimate."""
        shots_per_term = allocate_shots(self.probabilities, shots, strategy=allocation)
        return float(
            sum(
                int(n)
                for model, n in zip(self.terms, shots_per_term)
                if model.consumes_entangled_pair
            )
        )


def _probability_plus(distribution: dict[str, float], selected: list[int]) -> float:
    """Exact probability of a +1 signed outcome (even parity of the selected bits)."""
    probability_plus = 0.0
    for bitstring, probability in distribution.items():
        parity = sum(int(bitstring[c]) for c in selected) % 2
        if parity == 0:
            probability_plus += probability
    return float(min(max(probability_plus, 0.0), 1.0))


def build_sampling_models(
    circuits: Sequence[QuantumCircuit],
    locations: CutLocation | Sequence[CutLocation],
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    backend: SimulatorBackend | str | None = None,
) -> list[CutSamplingModel]:
    """Build one :class:`CutSamplingModel` per input circuit in a single batch.

    All term circuits of all inputs are submitted to the execution backend as
    one batch, so with the vectorized backend an entire workload (e.g. the
    1000 input states of Figure 6) is simulated as a handful of stacked NumPy
    computations rather than thousands of individual runs.

    Parameters
    ----------
    circuits:
        The (uncut) circuits to model.
    locations:
        One cut location shared by all circuits, or one per circuit.
    protocol:
        The wire-cut protocol providing the QPD.
    observable:
        Pauli observable (as in :func:`estimate_cut_expectation`).
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.
    """
    if isinstance(locations, CutLocation):
        locations = [locations] * len(circuits)
    if len(locations) != len(circuits):
        raise CuttingError(
            f"got {len(circuits)} circuits but {len(locations)} cut locations"
        )
    exec_backend = resolve_backend(backend)

    measured_circuits: list[QuantumCircuit] = []
    term_metadata: list[list[tuple[CutTermCircuit, list[int]]]] = []
    paulis = []
    for circuit, location in zip(circuits, locations):
        pauli = _as_pauli(observable, circuit.num_qubits)
        paulis.append(pauli)
        per_circuit = []
        for term_circuit in build_cut_circuits(circuit, location, protocol):
            measured, observable_clbits = _measured_term_circuit(term_circuit, pauli)
            measured_circuits.append(measured)
            per_circuit.append(
                (term_circuit, list(observable_clbits) + list(term_circuit.sign_clbits))
            )
        term_metadata.append(per_circuit)

    distributions = exec_backend.exact_distributions(measured_circuits)

    models: list[CutSamplingModel] = []
    cursor = 0
    for circuit, pauli, per_circuit in zip(circuits, paulis, term_metadata):
        terms = []
        for term_circuit, selected in per_circuit:
            terms.append(
                TermSamplingModel(
                    coefficient=term_circuit.coefficient,
                    probability_plus=_probability_plus(distributions[cursor], selected),
                    label=term_circuit.term.label,
                    consumes_entangled_pair=term_circuit.term.consumes_entangled_pair,
                )
            )
            cursor += 1
        exact_value = exact_expectation(circuit, pauli.to_matrix())
        models.append(
            CutSamplingModel(
                terms=tuple(terms), exact_value=float(exact_value), protocol_name=protocol.name
            )
        )
    return models


def build_sampling_model(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    backend: SimulatorBackend | str | None = None,
) -> CutSamplingModel:
    """Compute the exact per-term outcome distributions for a cut.

    One exact simulation is performed per term circuit (batched and cached
    when the vectorized backend is selected); the resulting classical
    distributions give the exact probability of a +1 signed outcome per term.
    """
    return build_sampling_models([circuit], location, protocol, observable, backend=backend)[0]


def sampling_models_from_instances(table, backend=None) -> list[TermSamplingModel]:
    """Bridge an instance table into the per-term sampling-model machinery.

    The table (a :class:`repro.cutting.instances.InstanceTable`; accepted
    structurally to keep this module import-light) is evaluated once through
    ``backend``, then every QPD product term's exact ``p₊`` is chained from
    the shared fragment tensors — so a full multi-cut term set becomes a
    list of :class:`TermSamplingModel` objects without ever materialising
    the monolithic term circuits.

    Parameters
    ----------
    table:
        An :class:`~repro.cutting.instances.InstanceTable` (evaluated or
        not; evaluation is idempotent).
    backend:
        Execution backend (name or instance) for the instance evaluation;
        ``None`` selects the serial backend.

    Returns
    -------
    list[TermSamplingModel]
        One exact sampling model per QPD product term, in the monolithic
        product order.
    """
    table.evaluate(backend)
    return [
        TermSamplingModel(
            coefficient=table.term_coefficient(assignment),
            probability_plus=table.term_probability_plus(assignment),
            label=table.term_label(assignment),
            consumes_entangled_pair=table.term_entangled_pairs(assignment) > 0,
        )
        for assignment in table.term_assignments()
    ]


def exact_cut_expectation(
    circuit: QuantumCircuit,
    location: CutLocation,
    protocol: WireCutProtocol,
    observable: str | PauliString = "Z",
    backend: SimulatorBackend | str | None = None,
) -> float:
    """Return the cut estimator's exact (infinite-shot) value.

    For a valid protocol this equals the uncut expectation value; tests use
    the agreement of the two as an end-to-end correctness check of the
    circuit-level gadgets.
    """
    model = build_sampling_model(circuit, location, protocol, observable, backend=backend)
    return model.exact_cut_value()


# ---------------------------------------------------------------------------
# Single-qubit convenience entry point (the paper's Section IV workload)
# ---------------------------------------------------------------------------


def _state_preparation_circuit(state: Statevector | np.ndarray) -> QuantumCircuit:
    vector = state.data if isinstance(state, Statevector) else np.asarray(state, dtype=complex)
    if vector.shape != (2,):
        raise CuttingError(
            f"cut_expectation_value expects a single-qubit state, got dimension {vector.shape}"
        )
    circuit = QuantumCircuit(1, 0, name="state_prep")
    circuit.initialize(vector, 0)
    return circuit


def cut_expectation_value(
    state: Statevector | np.ndarray,
    protocol: WireCutProtocol,
    shots: int,
    observable: str | PauliString = "Z",
    allocation: str = "proportional",
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
) -> CutExpectationResult:
    """Estimate ``⟨O⟩`` of a single-qubit ``state`` transmitted through a cut wire.

    This is the exact workload of the paper's numerical experiments: the
    state is prepared on the sender, the wire is cut with ``protocol``, and
    the observable (default Pauli Z) is measured on the receiver.
    """
    circuit = _state_preparation_circuit(state)
    location = CutLocation(qubit=0, position=len(circuit))
    return estimate_cut_expectation(
        circuit,
        location,
        protocol,
        observable=observable,
        shots=shots,
        allocation=allocation,
        seed=seed,
        backend=backend,
    )
