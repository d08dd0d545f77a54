"""Cutting several wires of one circuit.

Cutting ``n`` wires independently multiplies the per-cut overheads
(``κ_total = Π κ_i``), which is the exponential-in-cuts cost the paper's
introduction motivates.  This module provides:

* :func:`build_multi_cut_circuits` — apply a (possibly different)
  single-wire protocol at each cut location; terms are the Cartesian product
  of the per-cut terms with multiplied coefficients.  Cuts may share a wire
  at different positions (a wire crossing several time slices is cut at each
  of them), which is what lets :func:`repro.cutting.cut_finding.plan_cuts`
  split a circuit into more than two fragments.
* :func:`estimate_multi_cut_expectation` — estimate an observable of the
  multiply-cut circuit.  All term circuits are submitted to a
  :class:`~repro.circuits.backends.SimulatorBackend` as one batch, so the
  vectorized and process-pool backends accelerate multi-cut estimation
  exactly as they do the single-cut executor; results are bitwise identical
  across backends for the same seed.  This is the execute stage of
  :class:`repro.pipeline.CutPipeline`.
* :func:`independent_cuts_decomposition` — the channel-level tensor-product
  QPD, for analytic comparisons.
* overhead helpers re-exported from :mod:`repro.cutting.overhead` comparing
  independent cutting (3ⁿ without entanglement) with the optimal joint
  cutting bound (2^{n+1} − 1) of Brenner et al. [11], the future-work
  direction the paper mentions for NME states.
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
from repro.cutting.executor import ESTIMATION_MODES, CutExpectationResult, _backend_round_executor
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

__all__ = [
    "MultiCutTermCircuit",
    "build_multi_cut_circuits",
    "estimate_multi_cut_expectation",
    "execute_term_circuits",
    "execute_term_circuits_adaptive",
    "independent_cuts_decomposition",
    "measured_multi_cut_circuit",
]


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

    exec_backend = resolve_backend(backend)
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, selected = measured_multi_cut_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(selected)

    # A term with no measured bits at all (e.g. the identity term of a
    # zero-cut plan under an all-identity observable) has a deterministic
    # +1 outcome: spend no simulator shots on it.  Submitting zeros keeps
    # the per-circuit seed streams aligned, so cross-backend identity holds.
    submitted_shots = [
        int(count) if selected else 0
        for count, selected in zip(shots_per_term, selected_clbits)
    ]
    counts_per_term = exec_backend.run_batch(measured_circuits, submitted_shots, seed=rng)
    term_estimates = []
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
                label=term_circuit.label,
            )
        )
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
    exec_backend = resolve_backend(backend)
    measured_circuits: list[QuantumCircuit] = []
    selected_clbits: list[list[int]] = []
    for term_circuit in term_circuits:
        measured, selected = measured_multi_cut_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(selected)

    adaptive = run_adaptive_rounds(
        [term.coefficient for term in term_circuits],
        _backend_round_executor(exec_backend, measured_circuits, selected_clbits),
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
    """Estimate a Pauli observable of a circuit with several wires cut.

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
        Pauli observable over the circuit's logical qubits.
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
    pauli = observable if isinstance(observable, PauliString) else PauliString(observable)
    if pauli.num_qubits != circuit.num_qubits:
        raise CuttingError(
            f"observable acts on {pauli.num_qubits} qubits, circuit has {circuit.num_qubits}"
        )
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
