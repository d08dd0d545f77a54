"""Cutting wires and estimating through the cuts, for any number of cuts.

Cutting ``n`` wires independently multiplies the per-cut overheads
(``κ_total = Π κ_i``), which is the exponential-in-cuts cost the paper's
introduction motivates.  One cut — the paper's own experiment (Section IV)
— is the ``n = 1`` case of everything here.  This module provides:

* :func:`build_multi_cut_circuits` — apply a (possibly different)
  single-wire protocol at each cut location; terms are the Cartesian product
  of the per-cut terms with multiplied coefficients.  Cuts may share a wire
  at different positions (a wire crossing several time slices is cut at each
  of them), which is what lets :func:`repro.cutting.cut_finding.plan_cuts`
  split a circuit into more than two fragments.
* :func:`measured_multi_cut_circuit` — measure a term circuit in an
  observable's basis, and :func:`exact_probabilities_plus` — the exact
  probability of a +1 signed outcome of each measured term circuit.
* :func:`estimate_multi_cut_expectation` — estimate an observable of the
  cut circuit.  All term circuits are submitted to a
  :class:`~repro.circuits.backends.SimulatorBackend` as one batch
  (:class:`BackendRoundExecutor` reduces the counts to per-term means), so
  the vectorized and process-pool backends accelerate the estimate; results
  are bitwise identical across backends for the same seed.  Its execute
  step, :func:`execute_term_circuits` (static: the whole budget allocated up
  front, the paper's procedure) and :func:`execute_term_circuits_adaptive`
  (the round-structured engine of :mod:`repro.qpd.adaptive`, stopping at a
  target standard error), is also the execute stage of
  :class:`repro.pipeline.CutPipeline`.
* :func:`independent_cuts_decomposition` — the channel-level tensor-product
  QPD, for analytic comparisons.

The procedure per estimate:

1. build one circuit per product of QPD terms,
2. split the total shot budget across the terms proportionally to the
   coefficient magnitudes (other allocation strategies are available for the
   ablation benchmarks),
3. run each term circuit, measuring the observable on the receiver side
   (plus any term-internal sign bits),
4. recombine the per-term means with the signed coefficients (Eq. 12).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.backends import SimulatorBackend, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import _BASIS_CHANGE, exact_expectation
from repro.cutting.base import GadgetWiring, WireCutProtocol
from repro.cutting.cutter import CutLocation
from repro.qpd.adaptive import (
    DEFAULT_MAX_ROUNDS,
    AdaptiveConfig,
    AdaptiveResult,
    RoundRecord,
    run_adaptive_rounds,
)
from repro.qpd.allocation import allocate_shots
from repro.qpd.decomposition import QuasiProbDecomposition
from repro.qpd.estimator import TermEstimate, combine_term_estimates
from repro.quantum.paulis import PauliString
from repro.utils.rng import SeedLike, as_generator

#: Execution modes accepted by the estimation entry points.
ESTIMATION_MODES = ("static", "adaptive")

__all__ = [
    "BackendRoundExecutor",
    "CutExpectationResult",
    "ESTIMATION_MODES",
    "MultiCutTermCircuit",
    "build_multi_cut_circuits",
    "estimate_multi_cut_expectation",
    "exact_probabilities_plus",
    "execute_term_circuits",
    "execute_term_circuits_adaptive",
    "independent_cuts_decomposition",
    "measured_multi_cut_circuit",
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

        The single mapping used by every adaptive entry point (the
        estimator here and the sampling-model fast path).
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


@dataclass(frozen=True)
class MultiCutTermCircuit:
    """One executable circuit for a combination of per-cut QPD terms.

    Attributes
    ----------
    circuit:
        The full circuit with every cut gadget inserted.
    coefficient:
        Product of the chosen terms' coefficients.
    term_indices:
        The chosen term index at each cut location (in the order the
        locations were given).
    qubit_map:
        Final mapping from original logical qubits to physical qubits.
    sign_clbits:
        Absolute classical bits whose parity multiplies measured observables.
    labels:
        Per-cut term labels.
    entangled_pairs:
        Number of pre-shared entangled pairs one shot of this term consumes
        (resource accounting across all cuts).
    """

    circuit: QuantumCircuit
    coefficient: float
    term_indices: tuple[int, ...]
    qubit_map: dict[int, int]
    sign_clbits: tuple[int, ...]
    labels: tuple[str, ...]
    entangled_pairs: int = 0

    @property
    def label(self) -> str:
        """Combined term label (per-cut labels joined with ``+``)."""
        return "+".join(self.labels)


def _validate_multi_locations(circuit: QuantumCircuit, locations: list[CutLocation]) -> None:
    """Reject out-of-range or duplicate cut locations."""
    if not locations:
        raise CuttingError("at least one cut location is required")
    seen = set()
    for location in locations:
        if not 0 <= location.qubit < circuit.num_qubits:
            raise CuttingError(f"cut qubit {location.qubit} out of range")
        if not 0 <= location.position <= len(circuit):
            raise CuttingError(f"cut position {location.position} out of range")
        key = (location.qubit, location.position)
        if key in seen:
            raise CuttingError(f"duplicate cut location {key}")
        seen.add(key)


def build_multi_cut_circuits(
    circuit: QuantumCircuit,
    locations: list[CutLocation],
    protocols: list[WireCutProtocol],
) -> list[MultiCutTermCircuit]:
    """Cut several wires and return one circuit per combination of QPD terms.

    ``protocols[i]`` is used at ``locations[i]``.  Cuts are inserted from the
    latest position to the earliest so that instruction positions given with
    respect to the *original* circuit stay valid.  The same wire may be cut
    at several positions: each cut transfers it onto a fresh receiver qubit,
    so a chain of cuts realises a chain of fragments.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit; it is not modified.
    locations:
        The cut locations, one per protocol.
    protocols:
        The single-wire protocol applied at each location.

    Returns
    -------
    list[MultiCutTermCircuit]
        One executable circuit per element of the Cartesian product of the
        per-cut term sets, with multiplied coefficients.
    """
    if len(locations) != len(protocols):
        raise CuttingError("locations and protocols must have the same length")
    _validate_multi_locations(circuit, locations)

    order = sorted(range(len(locations)), key=lambda i: locations[i].position, reverse=True)
    results = []

    for term_choice in product(*(range(len(p.terms)) for p in protocols)):
        current = circuit
        qubit_map = {q: q for q in range(circuit.num_qubits)}
        coefficient = 1.0
        sign_clbits: list[int] = []
        labels: list[str] = []
        pairs = 0
        # Track how many instructions have been *prepended* before each original
        # position; since we insert from the latest position backwards, earlier
        # positions are unaffected by later insertions.
        for cut_rank in order:
            location = locations[cut_rank]
            protocol = protocols[cut_rank]
            term = protocol.terms[term_choice[cut_rank]]

            # Instructions before this cut are never remapped (later cuts only
            # remap instructions after their own, later, position), so the wire
            # carrying the cut qubit here is always the original index — even
            # when the same wire is cut again at a later position.
            sender_qubit = location.qubit
            receiver_qubit = current.num_qubits
            ancillas = tuple(
                range(current.num_qubits + 1, current.num_qubits + 1 + term.num_ancilla_qubits)
            )
            clbit_offset = current.num_clbits
            new_circuit = QuantumCircuit(
                current.num_qubits + 1 + term.num_ancilla_qubits,
                current.num_clbits + term.num_gadget_clbits,
                name=f"{circuit.name}_multicut",
            )
            for instruction in current.instructions[: location.position]:
                new_circuit.append(instruction)
            wiring = GadgetWiring(
                sender_qubit=sender_qubit,
                receiver_qubit=receiver_qubit,
                ancilla_qubits=ancillas,
                clbit_offset=clbit_offset,
            )
            term.build_gadget(new_circuit, wiring)
            remap = {sender_qubit: receiver_qubit}
            for instruction in current.instructions[location.position :]:
                new_circuit.append(instruction.remap(remap))

            coefficient *= term.coefficient
            sign_clbits.extend(clbit_offset + rel for rel in term.sign_clbits)
            labels.append(term.label)
            if term.consumes_entangled_pair:
                pairs += 1
            # Update the logical-to-physical map for subsequent (earlier) cuts
            # and for the final observable mapping.
            for logical, physical in qubit_map.items():
                if physical == sender_qubit:
                    qubit_map[logical] = receiver_qubit
            current = new_circuit

        # `labels` were accumulated in descending-position order; report them
        # in the caller's location order.
        ordered_labels = [""] * len(locations)
        ordered_indices = list(term_choice)
        position_in_order = {cut_rank: rank for rank, cut_rank in enumerate(order)}
        for cut_rank in range(len(locations)):
            ordered_labels[cut_rank] = labels[position_in_order[cut_rank]]

        results.append(
            MultiCutTermCircuit(
                circuit=current,
                coefficient=coefficient,
                term_indices=tuple(ordered_indices),
                qubit_map=dict(qubit_map),
                sign_clbits=tuple(sign_clbits),
                labels=tuple(ordered_labels),
                entangled_pairs=pairs,
            )
        )
    return results


def measured_multi_cut_circuit(
    term_circuit: MultiCutTermCircuit, pauli: PauliString
) -> tuple[QuantumCircuit, list[int]]:
    """Append observable basis changes and measurements to a multi-cut term circuit.

    Parameters
    ----------
    term_circuit:
        The term circuit to measure.
    pauli:
        Pauli observable over the original circuit's logical qubits.

    Returns
    -------
    tuple[QuantumCircuit, list[int]]
        The measured circuit and the classical bits whose parity (together
        with the term's sign bits) gives the signed observable outcome.
    """
    base = term_circuit.circuit
    active = [
        (term_circuit.qubit_map[q], p) for q, p in enumerate(pauli.labels) if p != "I"
    ]
    measured = QuantumCircuit(
        base.num_qubits, base.num_clbits + len(active), name=f"{base.name}_meas"
    )
    measured.compose(base, inplace=True)
    observable_clbits = []
    for offset, (qubit, label) in enumerate(active):
        for gate_name, params in _BASIS_CHANGE[label]:
            measured.gate(gate_name, qubit, params)
        clbit = base.num_clbits + offset
        measured.measure(qubit, clbit)
        observable_clbits.append(clbit)
    return measured, observable_clbits + list(term_circuit.sign_clbits)


def _probability_plus(distribution: dict[str, float], selected: list[int]) -> float:
    """Exact probability of a +1 signed outcome (even parity of the selected bits)."""
    probability_plus = 0.0
    for bitstring, probability in distribution.items():
        parity = sum(int(bitstring[c]) for c in selected) % 2
        if parity == 0:
            probability_plus += probability
    return float(min(max(probability_plus, 0.0), 1.0))


def exact_probabilities_plus(
    term_circuits: Sequence[MultiCutTermCircuit],
    paulis: Sequence[PauliString],
    backend: SimulatorBackend,
) -> list[float]:
    """Return each term circuit's exact probability of a +1 signed outcome.

    Every term circuit is measured in its observable's basis
    (:func:`measured_multi_cut_circuit`) and the whole batch is simulated
    exactly in one :meth:`~repro.circuits.backends.SimulatorBackend.exact_distributions`
    call, so the vectorized backend stacks structurally identical circuits.

    Parameters
    ----------
    term_circuits:
        Term circuits, possibly of several original circuits.
    paulis:
        The observable of each term circuit, over its original circuit's
        logical qubits.
    backend:
        The resolved execution backend.

    Returns
    -------
    list[float]
        ``p₊`` per term circuit: the probability that the parity of the
        observable and sign bits is even.
    """
    measured = [measured_multi_cut_circuit(t, p) for t, p in zip(term_circuits, paulis)]
    distributions = backend.exact_distributions([circuit for circuit, _ in measured])
    return [
        _probability_plus(distribution, selected)
        for distribution, (_, selected) in zip(distributions, measured)
    ]


class BackendRoundExecutor:
    """One round of a measured term-circuit batch on a simulator backend.

    This is the counts-to-means reduction of every sampled estimate: the
    static path runs it once with the whole allocation, the adaptive engine
    once per round.  Each call submits the full measured-circuit batch with
    the per-term shot counts (zero-shot terms keep the per-circuit seed
    streams aligned) and reduces the counts to per-term signed means.  Terms
    with no measured bits are deterministic +1 and never pay simulator shots.

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


def _measured_executor(
    term_circuits: Sequence[MultiCutTermCircuit],
    pauli: PauliString,
    backend: SimulatorBackend | str | None,
) -> BackendRoundExecutor:
    """Measure every term circuit in the observable's basis and wrap the batch."""
    measured = [measured_multi_cut_circuit(t, pauli) for t in term_circuits]
    return BackendRoundExecutor(
        resolve_backend(backend),
        [circuit for circuit, _ in measured],
        [selected for _, selected in measured],
    )


def execute_term_circuits(
    term_circuits: Sequence[MultiCutTermCircuit],
    pauli: PauliString,
    shots: int,
    allocation: str = "proportional",
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
) -> tuple[list[TermEstimate], list[int]]:
    """Allocate, measure, batch-run and summarise a product term set.

    This is the shared execute step of :func:`estimate_multi_cut_expectation`
    and :meth:`repro.pipeline.CutPipeline.execute`: the shot budget is split
    across the terms by ``allocation`` (proportional to coefficient
    magnitudes by default), every term circuit is measured in the
    observable's basis, and the batch runs through ``backend`` with one seed
    stream per circuit.

    Parameters
    ----------
    term_circuits:
        The product term set from :func:`build_multi_cut_circuits`.
    pauli:
        Normalised Pauli observable over the original logical qubits.
    shots:
        Total shot budget across all term circuits.
    allocation:
        Shot-allocation strategy.
    seed:
        Seed or generator for allocation and sampling.
    backend:
        Execution backend (name or instance); ``None`` selects serial.

    Returns
    -------
    tuple[list[TermEstimate], list[int]]
        Per-term empirical summaries and the shots assigned to each term.
    """
    rng = as_generator(seed)
    coefficients = np.array([t.coefficient for t in term_circuits])
    magnitudes = np.abs(coefficients)
    probabilities = magnitudes / magnitudes.sum()
    shots_per_term = allocate_shots(probabilities, shots, strategy=allocation, seed=rng)

    means = _measured_executor(term_circuits, pauli, backend)(0, shots_per_term, rng)
    term_estimates = [
        TermEstimate(
            coefficient=term_circuit.coefficient,
            mean=mean,
            shots=int(term_shots),
            label=term_circuit.label,
        )
        for term_circuit, term_shots, mean in zip(term_circuits, shots_per_term, means)
    ]
    return term_estimates, [int(s) for s in shots_per_term]


def execute_term_circuits_adaptive(
    term_circuits: Sequence[MultiCutTermCircuit],
    pauli: PauliString,
    config: AdaptiveConfig,
    seed: SeedLike = None,
    backend: SimulatorBackend | str | None = None,
    completed_rounds: Sequence[RoundRecord] = (),
    on_round=None,
    execution: str = "inprocess",
    workers: int | None = None,
) -> tuple[list[TermEstimate], list[int], AdaptiveResult]:
    """Round-structured execution of a product term set with early stopping.

    The adaptive counterpart of :func:`execute_term_circuits`: the measured
    term circuits are built once, then the streaming engine of
    :mod:`repro.qpd.adaptive` plans each round's allocation from the terms'
    running statistics, submits the whole batch to ``backend`` with the
    round's shot counts (zero-shot entries keep the per-circuit seed
    streams aligned), merges the per-round means, and stops when the
    pooled standard error reaches ``config.target_error`` or the budget is
    exhausted.

    Parameters
    ----------
    term_circuits:
        The product term set from :func:`build_multi_cut_circuits`.
    pauli:
        Normalised Pauli observable over the original logical qubits.
    config:
        The adaptive-engine configuration (target error, budget, rounds,
        planner).
    seed:
        Master seed; round ``r`` always executes from the ``r``-th spawned
        child sequence.
    backend:
        Execution backend (name or instance); ``None`` selects serial.
    completed_rounds:
        Rounds persisted by an interrupted run; replayed into the running
        statistics without re-execution (crash resume is bitwise
        identical).
    on_round:
        Optional progress hook forwarded to the engine (called after every
        live round with the record and a progress summary).
    execution:
        ``"inprocess"`` (default) or ``"distributed"``: fan each round out
        over the multi-process work-stealing pool of
        :mod:`repro.distributed`.  Bitwise identical to in-process for the
        same seed, whatever the worker count or steal order.
    workers:
        Distributed execution's worker-process count.

    Returns
    -------
    tuple[list[TermEstimate], list[int], AdaptiveResult]
        Per-term summaries with running statistics, total shots per term,
        and the engine result (round records + convergence).
    """
    adaptive = run_adaptive_rounds(
        [term.coefficient for term in term_circuits],
        _measured_executor(term_circuits, pauli, backend),
        config,
        seed=seed,
        labels=[term.label for term in term_circuits],
        completed_rounds=completed_rounds,
        on_round=on_round,
        execution=execution,
        workers=workers,
    )
    term_estimates = list(adaptive.estimate.term_estimates)
    shots_per_term = [int(estimate.shots) for estimate in term_estimates]
    return term_estimates, shots_per_term, adaptive


def estimate_multi_cut_expectation(
    circuit: QuantumCircuit,
    locations: list[CutLocation],
    protocols: list[WireCutProtocol],
    observable: str | PauliString,
    shots: int,
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
    """Estimate a Pauli observable of a circuit with one or more wires cut.

    One location is the single-cut estimate of the paper's Section IV.
    The full tensor-product QPD term set is built, the shot budget is split
    across the product terms proportionally to the coefficient-magnitude
    products (or per ``allocation``), and all term circuits are executed as
    one batch through ``backend``.

    Parameters
    ----------
    circuit:
        The original (uncut) circuit; it is not modified.
    locations:
        The cut locations, one per protocol.
    protocols:
        The single-wire protocol applied at each location.
    observable:
        Pauli observable over the circuit's logical qubits (a single letter
        refers to qubit 0).
    shots:
        Total shot budget across all product-term circuits.  In adaptive
        mode this is the hard ceiling; fewer shots are spent when the
        target error is reached early.
    allocation:
        Shot-allocation strategy (``proportional``, ``multinomial``,
        ``uniform``).
    seed:
        Seed or generator for all sampling.  Static mode consumes it
        exactly as before (bitwise-identical results); adaptive mode
        derives one child stream per round.
    compute_exact:
        Also compute the exact uncut value for error reporting.
    backend:
        Execution backend (name or instance); ``None`` selects the serial
        backend.  All backends yield identical results for the same seed.
    mode:
        ``"static"`` (default) or ``"adaptive"`` (round-structured
        execution with early stopping).
    target_error:
        Adaptive mode's stopping threshold on the pooled standard error
        (required when ``mode="adaptive"``).
    rounds:
        Adaptive mode's round limit.
    planner:
        Adaptive mode's per-round planner name (``"neyman"`` by default).
    execution:
        Adaptive mode's round execution: ``"inprocess"`` (default) or
        ``"distributed"`` (the work-stealing pool of
        :mod:`repro.distributed`; bitwise identical to in-process).
    workers:
        Distributed execution's worker-process count.

    Returns
    -------
    CutExpectationResult
        The recombined estimate with per-term summaries.
    """
    if mode not in ESTIMATION_MODES:
        raise CuttingError(f"unknown mode {mode!r}; expected one of {ESTIMATION_MODES}")
    if execution != "inprocess" and mode != "adaptive":
        raise CuttingError("distributed execution requires mode='adaptive'")
    pauli = _as_pauli(observable, circuit.num_qubits)
    term_circuits = build_multi_cut_circuits(circuit, locations, protocols)
    exact_value = exact_expectation(circuit, pauli.to_matrix()) if compute_exact else None
    protocol_name = "+".join(p.name for p in protocols)
    if mode == "adaptive":
        if target_error is None:
            raise CuttingError("adaptive mode requires target_error")
        config = AdaptiveConfig(
            target_error=target_error, max_shots=int(shots), max_rounds=rounds, planner=planner
        )
        _, _, adaptive = execute_term_circuits_adaptive(
            term_circuits,
            pauli,
            config,
            seed=seed,
            backend=backend,
            execution=execution,
            workers=workers,
        )
        return CutExpectationResult.from_adaptive(adaptive, protocol_name, exact_value)
    return _estimate_static(
        term_circuits,
        pauli,
        shots,
        allocation=allocation,
        seed=seed,
        backend=backend,
        protocol_name=protocol_name,
        exact_value=exact_value,
    )


def _estimate_static(
    term_circuits: Sequence[MultiCutTermCircuit],
    pauli: PauliString,
    shots: int,
    *,
    allocation: str,
    seed: SeedLike,
    backend: SimulatorBackend | str | None,
    protocol_name: str,
    exact_value: float | None,
) -> CutExpectationResult:
    """Run a term set once with the whole budget and recombine it (Eq. 12).

    The static estimate of every cut kind: wire cuts
    (:func:`estimate_multi_cut_expectation`) and gate cuts
    (:func:`repro.cutting.gate_cutting.estimate_gate_cut_expectation`).
    """
    term_estimates, shots_per_term = execute_term_circuits(
        term_circuits,
        pauli,
        shots,
        allocation=allocation,
        seed=seed,
        backend=backend,
    )
    estimate = combine_term_estimates(term_estimates)
    return CutExpectationResult(
        value=estimate.value,
        standard_error=estimate.standard_error,
        total_shots=estimate.total_shots,
        kappa=estimate.kappa,
        shots_per_term=tuple(shots_per_term),
        term_estimates=estimate.term_estimates,
        protocol_name=protocol_name,
        exact_value=exact_value,
    )


def independent_cuts_decomposition(
    protocols: list[WireCutProtocol],
) -> QuasiProbDecomposition:
    """Return the channel-level QPD of cutting each wire independently.

    The result acts on ``len(protocols)`` qubits and its κ is the product of
    the per-protocol κ values.

    Parameters
    ----------
    protocols:
        The per-wire protocols to tensor together.

    Returns
    -------
    QuasiProbDecomposition
        The tensor-product decomposition.
    """
    if not protocols:
        raise CuttingError("at least one protocol is required")
    decomposition = protocols[0].decomposition()
    for protocol in protocols[1:]:
        decomposition = decomposition.tensor(protocol.decomposition())
    return decomposition
