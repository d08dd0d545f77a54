"""The :class:`JobSpec`: a content-addressed description of one estimation job.

A job spec captures *everything* that determines a cut-estimation result —
the circuit, the observable, the explicit cut plan or planner constraints,
the execution backend or device fleet, the shot budget, the allocation
strategy and the seed.  Its :meth:`JobSpec.fingerprint` is therefore a
content address: two submissions with the same fingerprint are guaranteed to
produce bitwise-identical results, which is what lets the
:class:`~repro.service.store.RunStore` serve repeated requests without
re-execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.exceptions import GateError, ServiceError
from repro.circuits.backends import BACKEND_NAMES, circuit_fingerprint, resolve_backend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.serialization import circuit_from_payload, circuit_to_payload
from repro.cutting.multi_wire import ESTIMATION_MODES
from repro.qpd.adaptive import DEFAULT_MAX_ROUNDS, EXECUTION_MODES
from repro.qpd.allocation import ALLOCATION_STRATEGIES
from repro.quantum.paulis import PauliString
from repro.utils.serialization import payload_fingerprint
from repro.utils.validation import validate_positive_count, validate_positive_float

__all__ = ["JobSpec"]

#: Payload schema version written by :meth:`JobSpec.to_payload`.
SPEC_VERSION = 1


@dataclass(frozen=True)
class JobSpec:
    """One cut-estimation job, fully specified and JSON-serializable.

    Parameters
    ----------
    circuit:
        The circuit to cut and estimate.
    observable:
        Pauli string over the circuit's logical qubits (e.g. ``"ZZZZ"``).
    shots:
        Total shot budget (strictly positive).
    seed:
        Integer seed for allocation and sampling.  Required — a job without
        a pinned seed would not be content-addressable.
    max_fragment_width:
        Planner constraint (device width); may be ``None`` when an explicit
        ``positions``/``locations`` plan is supplied.
    entanglement_overlap:
        Entanglement level ``f(Φ_k)`` of the NME protocol; ``None`` selects
        the entanglement-free κ = 3 cut.
    allocation:
        Shot-allocation strategy over the QPD product terms.
    max_cuts:
        Optional planner bound on the number of wire cuts.
    positions:
        Optional explicit time-slice cut positions (skips the planner).
    locations:
        Optional explicit ``(qubit, position)`` wire-cut locations (skips
        the planner).  At most one of ``positions``/``locations``.
    backend:
        Execution-backend name; with a ``fleet`` this is the ideal inner
        backend each virtual device wraps.
    fleet:
        Optional device-fleet spec document
        (see :func:`repro.devices.fleet_from_spec`); when given, term
        circuits run shot-wise distributed across the noisy fleet and the
        spec becomes part of the job fingerprint.
    compute_exact:
        Also compute the exact uncut value for error reporting.
    mode:
        Execution mode: ``"static"`` (one up-front allocation, the
        default) or ``"adaptive"`` (round-structured execution with early
        stopping; ``shots`` becomes the hard budget ceiling).
    target_error:
        Adaptive mode's stopping threshold on the pooled standard error
        (required and strictly positive when ``mode="adaptive"``).
    rounds:
        Adaptive mode's round limit (strictly positive).
    dedup:
        Execute through the instance-dedup table
        (:mod:`repro.cutting.instances`) when the plan supports it,
        falling back to the monolithic per-term path otherwise.  Requires
        an ideal simulator backend (no ``fleet``).  Becomes part of the
        fingerprint only when enabled, so existing stored runs keep their
        content addresses.
    execution:
        Round execution of adaptive jobs: ``"inprocess"`` (default) or
        ``"distributed"`` (each round fans out over the multi-process
        work-stealing pool of :mod:`repro.distributed`).  Distributed
        results are bitwise identical to in-process for the same seed, so
        the field travels in the payload but is *excluded from the
        fingerprint*: the two executions share one content address and a
        stored run resumes interchangeably under either.
    workers:
        Distributed execution's worker-process count (``None`` uses the
        distributed default); excluded from the fingerprint for the same
        reason.
    """

    circuit: QuantumCircuit
    observable: str
    shots: int
    seed: int
    max_fragment_width: int | None = None
    entanglement_overlap: float | None = None
    allocation: str = "proportional"
    max_cuts: int | None = None
    positions: tuple[int, ...] | None = None
    locations: tuple[tuple[int, int], ...] | None = None
    backend: str = "vectorized"
    fleet: dict | None = field(default=None)
    compute_exact: bool = True
    mode: str = "static"
    target_error: float | None = None
    rounds: int = DEFAULT_MAX_ROUNDS
    dedup: bool = False
    execution: str = "inprocess"
    workers: int | None = None

    def __post_init__(self) -> None:
        validate_positive_count(self.shots, name="shots")
        if self.mode not in ESTIMATION_MODES:
            raise ServiceError(
                f"unknown mode {self.mode!r}; expected one of {ESTIMATION_MODES}"
            )
        if self.mode == "adaptive":
            # Boundary validation at the service entry point: a bad tolerance
            # or round limit fails before any pipeline stage runs.
            if self.target_error is None:
                raise ServiceError("adaptive mode requires target_error")
            validate_positive_float(self.target_error, name="target_error")
            validate_positive_count(self.rounds, name="rounds")
        elif self.target_error is not None:
            raise ServiceError("target_error is only meaningful with mode='adaptive'")
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ServiceError(f"seed must be an integer, got {self.seed!r}")
        try:
            pauli = PauliString(self.observable)
        except GateError as error:
            raise ServiceError(f"invalid observable: {error}") from error
        if pauli.num_qubits != self.circuit.num_qubits:
            raise ServiceError(
                f"observable {self.observable!r} acts on {pauli.num_qubits} qubits but the "
                f"circuit has {self.circuit.num_qubits}"
            )
        if self.backend not in BACKEND_NAMES:
            raise ServiceError(
                f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}"
            )
        if self.allocation not in ALLOCATION_STRATEGIES:
            raise ServiceError(
                f"unknown allocation {self.allocation!r}; expected one of {ALLOCATION_STRATEGIES}"
            )
        if self.positions is not None and self.locations is not None:
            raise ServiceError("pass at most one of positions/locations")
        if (
            self.max_fragment_width is None
            and self.positions is None
            and self.locations is None
        ):
            raise ServiceError(
                "a job needs max_fragment_width (planner search) or an explicit "
                "positions/locations cut plan"
            )
        if self.fleet is not None and not isinstance(self.fleet, dict):
            raise ServiceError(
                f"fleet must be a spec document (JSON object), got {type(self.fleet).__name__}"
            )
        if not isinstance(self.dedup, bool):
            raise ServiceError(f"dedup must be a boolean, got {self.dedup!r}")
        if self.dedup and self.fleet is not None:
            raise ServiceError(
                "dedup requires an ideal simulator backend; it cannot run on a noisy fleet"
            )
        if self.execution not in EXECUTION_MODES:
            raise ServiceError(
                f"unknown execution {self.execution!r}; expected one of {EXECUTION_MODES}"
            )
        if self.execution == "distributed":
            if self.mode != "adaptive":
                raise ServiceError("distributed execution requires mode='adaptive'")
            if self.dedup:
                raise ServiceError(
                    "dedup execution cannot distribute (the instance fast path draws "
                    "terms from one sequential stream)"
                )
            if self.workers is not None:
                validate_positive_count(self.workers, name="workers")
        elif self.workers is not None:
            raise ServiceError(
                "workers is only meaningful with execution='distributed'"
            )
        # Normalise tuple-valued fields so payloads and fingerprints are stable
        # regardless of whether lists or tuples were passed in.
        if self.positions is not None:
            object.__setattr__(self, "positions", tuple(int(p) for p in self.positions))
        if self.locations is not None:
            object.__setattr__(
                self,
                "locations",
                tuple((int(q), int(p)) for q, p in self.locations),
            )
        if self.target_error is not None:
            object.__setattr__(self, "target_error", float(self.target_error))
        object.__setattr__(self, "rounds", int(self.rounds))

    # -- serialization -----------------------------------------------------------------

    def to_payload(self) -> dict:
        """Return the JSON-serializable payload of the job (the HTTP wire form).

        Adaptive-mode fields are only emitted for adaptive jobs, so static
        payloads (and therefore their fingerprints and any runs already
        persisted in a store) are unchanged by the mode extension.
        """
        payload = {
            "version": SPEC_VERSION,
            "circuit": circuit_to_payload(self.circuit),
            "observable": self.observable,
            "shots": int(self.shots),
            "seed": int(self.seed),
            "max_fragment_width": self.max_fragment_width,
            "entanglement_overlap": self.entanglement_overlap,
            "allocation": self.allocation,
            "max_cuts": self.max_cuts,
            "positions": None if self.positions is None else list(self.positions),
            "locations": None
            if self.locations is None
            else [list(pair) for pair in self.locations],
            "backend": self.backend,
            "fleet": self.fleet,
            "compute_exact": self.compute_exact,
        }
        if self.mode != "static":
            payload["mode"] = self.mode
            payload["target_error"] = float(self.target_error)
            payload["rounds"] = int(self.rounds)
        if self.dedup:
            payload["dedup"] = True
        if self.execution != "inprocess":
            payload["execution"] = self.execution
            if self.workers is not None:
                payload["workers"] = int(self.workers)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "JobSpec":
        """Rebuild a job spec from its payload form.

        Parameters
        ----------
        payload:
            A payload produced by :meth:`to_payload` (e.g. the body of a
            ``POST /jobs`` request).

        Returns
        -------
        JobSpec
            The validated job spec.

        Raises
        ------
        ServiceError
            When the payload is malformed or fails validation.
        """
        if not isinstance(payload, dict):
            raise ServiceError(
                f"a job payload must be a JSON object, got {type(payload).__name__}"
            )
        version = payload.get("version", SPEC_VERSION)
        if version != SPEC_VERSION:
            raise ServiceError(
                f"unsupported job payload version {version!r} (this service speaks {SPEC_VERSION})"
            )
        try:
            circuit = circuit_from_payload(payload["circuit"])
            positions = payload.get("positions")
            locations = payload.get("locations")
            return cls(
                circuit=circuit,
                observable=str(payload["observable"]),
                shots=payload["shots"],
                seed=payload["seed"],
                max_fragment_width=payload.get("max_fragment_width"),
                entanglement_overlap=payload.get("entanglement_overlap"),
                allocation=str(payload.get("allocation", "proportional")),
                max_cuts=payload.get("max_cuts"),
                positions=None if positions is None else tuple(int(p) for p in positions),
                locations=None
                if locations is None
                else tuple((int(q), int(p)) for q, p in locations),
                backend=str(payload.get("backend", "vectorized")),
                fleet=payload.get("fleet"),
                compute_exact=bool(payload.get("compute_exact", True)),
                mode=str(payload.get("mode", "static")),
                target_error=payload.get("target_error"),
                rounds=int(payload.get("rounds", DEFAULT_MAX_ROUNDS)),
                dedup=bool(payload.get("dedup", False)),
                execution=str(payload.get("execution", "inprocess")),
                workers=payload.get("workers"),
            )
        except ServiceError:
            raise
        except Exception as error:  # malformed payloads fail as service errors
            raise ServiceError(f"malformed job payload: {error}") from error

    # -- identity ----------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Return the job's content address.

        The hash covers the circuit's physical action (via
        :func:`~repro.circuits.backends.circuit_fingerprint`, so cosmetic
        names don't fragment the store), the cut plan or planner
        constraints, the backend / fleet spec, the shot budget, the
        allocation strategy and the seed — everything that determines the
        result bit-for-bit.  ``execution``/``workers`` are deliberately
        *not* covered: distributed rounds are bitwise identical to
        in-process rounds, so an in-process job and its distributed twin
        share one content address (and the store's cache/resume serves
        either from the other's artifacts).
        """
        payload = self.to_payload()
        payload["circuit"] = circuit_fingerprint(self.circuit)
        payload.pop("execution", None)
        payload.pop("workers", None)
        return payload_fingerprint(payload)

    # -- execution helpers --------------------------------------------------------------

    def build_pipeline(self):
        """Return the configured :class:`~repro.pipeline.CutPipeline` for this job."""
        from repro.devices import fleet_from_spec
        from repro.pipeline import CutPipeline

        if self.fleet is not None:
            backend = fleet_from_spec(self.fleet, inner=resolve_backend(self.backend))
        else:
            backend = self.backend
        return CutPipeline(
            max_fragment_width=self.max_fragment_width,
            entanglement_overlap=self.entanglement_overlap,
            backend=backend,
            allocation=self.allocation,
            max_cuts=self.max_cuts,
            # A job-level dedup request falls back gracefully when the chosen
            # plan turns out not to factorise (the fingerprint still differs,
            # because the request itself is part of the payload).
            dedup="auto" if self.dedup else False,
        )

    def execute_arguments(self) -> dict:
        """Return the mode keyword arguments for :meth:`CutPipeline.execute`."""
        if self.mode == "static":
            return {}
        arguments = {
            "mode": self.mode,
            "target_error": self.target_error,
            "rounds": self.rounds,
        }
        if self.execution != "inprocess":
            arguments["execution"] = self.execution
            if self.workers is not None:
                arguments["workers"] = self.workers
        return arguments

    def plan_arguments(self) -> dict:
        """Return the keyword arguments for :meth:`CutPipeline.plan`."""
        if self.locations is not None:
            from repro.cutting.cutter import CutLocation

            return {
                "locations": [CutLocation(qubit=q, position=p) for q, p in self.locations]
            }
        if self.positions is not None:
            return {"positions": list(self.positions)}
        return {}

    def with_shots(self, shots: int) -> "JobSpec":
        """Return a copy of the spec with a different shot budget."""
        return replace(self, shots=shots)
