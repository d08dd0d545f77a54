"""The exact-distribution sweep path and the paper's single-qubit entry point.

Estimating through cuts has one builder and one term executor, both in
:mod:`repro.cutting.multi_wire`; one wire cut is the one-location case, and
gate cuts (:mod:`repro.cutting.gate_cutting`) run through the same executor.
Every sampled estimate measures its term circuits with
:func:`~repro.cutting.multi_wire.measured_multi_cut_circuit` and reduces
counts to signed means in one place,
:class:`~repro.cutting.multi_wire.BackendRoundExecutor`.  This module adds
two things on top of them:

* :class:`CutSamplingModel` (via :func:`build_sampling_model`, or
  :func:`build_sampling_models` for whole workloads at once) — a fast path
  for parameter sweeps: the exact per-term outcome distributions are computed
  once (:func:`~repro.cutting.multi_wire.exact_probabilities_plus`) and each
  subsequent estimate only needs binomial draws.  This is what the Figure-6
  harness uses to evaluate 1000 input states × 6 entanglement levels × many
  shot budgets in seconds; it is statistically identical to sampling the
  term circuits because each shot is an i.i.d. draw from the same exact
  distribution.  Estimates come in two modes: ``static`` (the whole budget
  allocated up front — the paper's procedure) and ``adaptive`` (the
  round-structured engine of :mod:`repro.qpd.adaptive`, stopping at a target
  standard error).
* :func:`cut_expectation_value` — the workload of the paper's numerical
  experiments (Section IV): a single-qubit state sent through one cut wire,
  estimated by :func:`~repro.cutting.multi_wire.estimate_multi_cut_expectation`.

Multi-cut plans get their exact-distribution fast path from the
instance-dedup layer (:mod:`repro.cutting.instances`): the unique
(fragment, basis-config) subcircuit instances are simulated once and each
product term's ``p₊`` is chained from the shared fragment tensors.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.backends import SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.base import WireCutProtocol
from repro.cutting.cutter import CutLocation
from repro.cutting.multi_wire import (
    CutExpectationResult,
    _as_pauli,
    build_multi_cut_circuits,
    estimate_multi_cut_expectation,
    exact_probabilities_plus,
)
from repro.qpd.adaptive import AdaptiveConfig, AdaptiveResult, run_adaptive_rounds
from repro.qpd.allocation import allocate_shots
from repro.qpd.estimator import TermEstimate, combine_term_estimates, combine_term_means
from repro.quantum.paulis import PauliString
from repro.quantum.states import Statevector
from repro.utils.rng import SeedLike, as_generator

__all__ = [
    "build_sampling_model",
    "build_sampling_models",
    "CutSamplingModel",
    "TermSamplingModel",
    "cut_expectation_value",
]


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
        Pauli observable over the circuits' logical qubits (a single letter
        refers to qubit 0).
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
    paulis = [_as_pauli(observable, circuit.num_qubits) for circuit in circuits]
    term_sets = [
        build_multi_cut_circuits(circuit, [location], [protocol])
        for circuit, location in zip(circuits, locations)
    ]
    probabilities_plus = iter(
        exact_probabilities_plus(
            [term for terms in term_sets for term in terms],
            [pauli for pauli, terms in zip(paulis, term_sets) for _ in terms],
            resolve_backend(backend),
        )
    )
    return [
        CutSamplingModel(
            terms=tuple(
                TermSamplingModel(
                    coefficient=term.coefficient,
                    probability_plus=next(probabilities_plus),
                    label=term.label,
                    consumes_entangled_pair=term.entangled_pairs > 0,
                )
                for term in terms
            ),
            exact_value=float(exact_expectation(circuit, pauli.to_matrix())),
            protocol_name=protocol.name,
        )
        for circuit, pauli, terms in zip(circuits, paulis, term_sets)
    ]


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
    return estimate_multi_cut_expectation(
        circuit,
        [CutLocation(qubit=0, position=len(circuit))],
        [protocol],
        observable,
        shots,
        allocation=allocation,
        seed=seed,
        backend=backend,
    )
