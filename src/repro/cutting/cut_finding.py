"""Automatic search for wire-cut locations (related work [38, 39]).

Circuit cutting is only useful if good cut points can be found.  This module
implements a small, exact search for time-slice wire cuts that partition a
circuit into fragments, each fitting a device with a limited number of
qubits, while minimising the total sampling overhead:

* the circuit is viewed as a dependency graph of instructions on wire
  segments;
* a *cut set* is a set of (qubit, position) locations; removing those wire
  segments must disconnect the instruction stream into consecutive fragments
  (one per time slice plus one), each executable on its own device;
* each fragment's width is the number of wires it touches (a cut wire
  continues on a fresh receiver qubit, so the count is unchanged; a wire that
  merely passes through a fragment between two cuts still occupies a qubit);
* the cost of a cut set is the product of the per-cut overheads, i.e. κⁿ for
  n identical single-wire cuts (Corollary 1 supplies κ as a function of the
  available entanglement).

One planner, :func:`plan_cuts`, serves every fragment count: plans may
contain several time slices (found by repeated bipartition of over-wide
fragments), so a circuit can be split into more than two fragments, each
below the device width, with n independent wire cuts and total overhead κⁿ.
``max_fragments=2`` restricts it to single-slice plans — the paper's
distribution scenario of splitting a circuit between two devices.
:class:`repro.pipeline.CutPipeline` runs it as its plan stage;
:func:`plan_from_positions` and :func:`plan_from_locations` wrap
caller-chosen slices or cut locations into the same :class:`MultiCutPlan`.

The search is exact for the circuit sizes a statevector simulator can
handle anyway.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.cutting.cutter import CutLocation
from repro.cutting.overhead import nme_overhead

__all__ = [
    "Fragment",
    "MultiCutPlan",
    "plan_cuts",
    "plan_from_locations",
    "plan_from_positions",
]


@dataclass(frozen=True)
class Fragment:
    """One contiguous slice of a multi-cut plan, executable on its own device.

    Attributes
    ----------
    start / stop:
        The fragment covers instructions ``start:stop`` of the original
        circuit.
    qubits:
        Original wire indices present in the fragment: wires touched by its
        instructions plus wires that pass through between two cuts without
        being touched (they still occupy a physical qubit).
    width:
        Number of physical qubits the fragment's device needs (receiver
        qubits replace cut wires one-for-one, so this equals
        ``len(qubits)``; protocol ancillas are excluded).
    """

    start: int
    stop: int
    qubits: tuple[int, ...]
    width: int


@dataclass(frozen=True)
class MultiCutPlan:
    """A set of time-slice wire cuts splitting a circuit into ≥ 2 fragments.

    Produced by :func:`plan_cuts` (or directly by
    :func:`plan_from_positions`) and consumed by
    :class:`repro.pipeline.CutPipeline`, whose decompose stage applies one
    wire-cut protocol per location.

    Attributes
    ----------
    positions:
        The time-slice positions, strictly increasing; fragment ``i`` spans
        the instructions between consecutive positions.
    locations:
        One :class:`~repro.cutting.cutter.CutLocation` per wire crossing a
        slice.  A wire crossing several slices is cut at each of them.
    fragments:
        The resulting :class:`Fragment` partition (``len(positions) + 1``
        entries).
    sampling_overhead:
        Product of the per-cut κ values used for ranking (κⁿ for n cuts at a
        uniform entanglement level).
    """

    positions: tuple[int, ...]
    locations: tuple[CutLocation, ...]
    fragments: tuple[Fragment, ...]
    sampling_overhead: float

    @property
    def num_cuts(self) -> int:
        """Number of wire cuts in the plan."""
        return len(self.locations)

    @property
    def num_fragments(self) -> int:
        """Number of device-sized fragments the plan produces."""
        return len(self.fragments)

    @property
    def max_width(self) -> int:
        """Width of the widest fragment (the binding device constraint)."""
        return max(fragment.width for fragment in self.fragments)


def _touched_qubits(circuit: QuantumCircuit, start: int, stop: int) -> set[int]:
    """Return the qubits touched by instructions ``start:stop``."""
    touched: set[int] = set()
    for instruction in circuit.instructions[start:stop]:
        touched.update(instruction.qubits)
    return touched


def _wire_usage(circuit: QuantumCircuit) -> dict[int, tuple[int, int]]:
    """Return, per qubit, the (first, last) instruction index touching it."""
    usage: dict[int, tuple[int, int]] = {}
    for index, instruction in enumerate(circuit.instructions):
        for qubit in instruction.qubits:
            first, _ = usage.get(qubit, (index, index))
            usage[qubit] = (first, index)
    return usage


def _per_cut_kappa(entanglement_overlap: float | None) -> float:
    """Return the per-cut κ for ranking: 3 without entanglement, Corollary 1 with."""
    if entanglement_overlap is None:
        return 3.0
    from repro.quantum.bell import k_from_overlap

    return nme_overhead(k_from_overlap(entanglement_overlap))


def plan_from_positions(
    circuit: QuantumCircuit,
    positions: tuple[int, ...] | list[int],
    entanglement_overlap: float | None = None,
) -> MultiCutPlan:
    """Build the :class:`MultiCutPlan` cutting ``circuit`` at the given time slices.

    Parameters
    ----------
    circuit:
        The circuit to split.
    positions:
        Strictly increasing slice positions in ``1 .. len(circuit) - 1``.
        Every wire crossing a slice is cut there; a wire crossing several
        slices is cut at each.
    entanglement_overlap:
        Entanglement level ``f(Φ_k)`` used to rank the plan by total sampling
        overhead; ``None`` means no entanglement (κ = 3 per cut).

    Returns
    -------
    MultiCutPlan
        The plan with its fragments, cut locations and κⁿ overhead.

    Raises
    ------
    CuttingError
        If the positions are not strictly increasing interior slices.
    """
    ordered = tuple(int(p) for p in positions)
    if not ordered:
        raise CuttingError("at least one slice position is required")
    if list(ordered) != sorted(set(ordered)):
        raise CuttingError(f"slice positions must be strictly increasing, got {positions}")
    if ordered[0] < 1 or ordered[-1] > len(circuit) - 1:
        raise CuttingError(
            f"slice positions must lie in 1..{len(circuit) - 1}, got {positions}"
        )
    return _build_plan(
        circuit, ordered, _wire_usage(circuit), _per_cut_kappa(entanglement_overlap)
    )


def _fragments_between(
    circuit: QuantumCircuit,
    interior: tuple[int, ...],
    usage: dict[int, tuple[int, int]],
) -> tuple[Fragment, ...]:
    """Build the fragment partition for the given interior slice positions.

    Each fragment holds the wires its instructions touch plus any *through*
    wire — used before the fragment and again at or after its end but never
    inside — which still occupies a physical qubit while passing through.
    """
    boundaries = (0,) + interior + (len(circuit),)
    fragments: list[Fragment] = []
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        touched = _touched_qubits(circuit, start, stop)
        through = {
            qubit
            for qubit, (first, last) in usage.items()
            if first < start and last >= stop and qubit not in touched
        }
        present = tuple(sorted(touched | through))
        fragments.append(Fragment(start=start, stop=stop, qubits=present, width=len(present)))
    return tuple(fragments)


def _build_plan(
    circuit: QuantumCircuit,
    ordered: tuple[int, ...],
    usage: dict[int, tuple[int, int]],
    per_cut_kappa: float,
) -> MultiCutPlan:
    """Assemble a plan from validated slice positions and precomputed wire usage."""
    locations: list[CutLocation] = []
    for position in ordered:
        crossing = {
            qubit
            for qubit, (first, last) in usage.items()
            if first < position <= last
        }
        locations.extend(CutLocation(qubit=q, position=position) for q in sorted(crossing))

    return MultiCutPlan(
        positions=ordered,
        locations=tuple(sorted(locations, key=lambda loc: (loc.position, loc.qubit))),
        fragments=_fragments_between(circuit, ordered, usage),
        sampling_overhead=float(per_cut_kappa ** len(locations)),
    )


def plan_from_locations(
    circuit: QuantumCircuit,
    locations: tuple[CutLocation, ...] | list[CutLocation],
    entanglement_overlap: float | None = None,
) -> MultiCutPlan:
    """Wrap explicit cut locations into a :class:`MultiCutPlan`.

    Unlike :func:`plan_from_positions`, the locations are taken as given —
    including end-of-circuit cuts (``position == len(circuit)``, the paper's
    single-qubit workload) and cuts that do not cover every wire crossing a
    slice.  Fragment metadata is derived from the interior slice positions
    only, so it is advisory for such plans.

    Parameters
    ----------
    circuit:
        The circuit the locations refer to.
    locations:
        The wire cuts to perform.
    entanglement_overlap:
        Entanglement level ``f(Φ_k)`` used for the κⁿ overhead metadata;
        ``None`` means no entanglement (κ = 3 per cut).

    Returns
    -------
    MultiCutPlan
        A plan carrying exactly the given locations.

    Raises
    ------
    CuttingError
        If no locations are given or one is out of range.
    """
    if not locations:
        raise CuttingError("at least one cut location is required")
    for location in locations:
        if not 0 <= location.qubit < circuit.num_qubits:
            raise CuttingError(f"cut qubit {location.qubit} out of range")
        if not 0 <= location.position <= len(circuit):
            raise CuttingError(f"cut position {location.position} out of range")
    interior = tuple(
        sorted({loc.position for loc in locations if 0 < loc.position < len(circuit)})
    )
    usage = _wire_usage(circuit)
    per_cut_kappa = _per_cut_kappa(entanglement_overlap)
    return MultiCutPlan(
        positions=interior,
        locations=tuple(sorted(locations, key=lambda loc: (loc.position, loc.qubit))),
        fragments=_fragments_between(circuit, interior, usage),
        sampling_overhead=float(per_cut_kappa ** len(locations)),
    )


#: Default bound on the number of time slices :func:`plan_cuts` will try;
#: raise ``max_fragments`` past ``_DEFAULT_MAX_SLICES + 1`` to search deeper.
_DEFAULT_MAX_SLICES = 6


def _feasible_position_tuples(circuit, num_slices, max_fragment_width):
    """Yield slice tuples whose every fragment's touched-width fits the device.

    The touched-qubit count of a fragment is a lower bound on its final
    width (through wires only add), and it is monotone in the fragment's
    length — so an over-wide prefix fragment prunes its entire subtree and
    the enumeration never materialises the combinatorial candidate space a
    flat ``itertools.combinations`` sweep would.  Candidates still get an
    exact width check (including through wires) by the caller.
    """
    instructions = circuit.instructions
    num_instructions = len(instructions)
    # suffix_fits[q] — does the final fragment [q, N) fit the device?
    suffix_fits = [False] * (num_instructions + 1)
    touched: set[int] = set()
    suffix_fits[num_instructions] = True
    for q in range(num_instructions - 1, 0, -1):
        touched.update(instructions[q].qubits)
        suffix_fits[q] = len(touched) <= max_fragment_width

    def _extend(prefix: tuple[int, ...], start: int):
        depth = len(prefix)
        fragment: set[int] = set()
        for q in range(start + 1, num_instructions - (num_slices - depth - 1)):
            fragment.update(instructions[q - 1].qubits)
            if len(fragment) > max_fragment_width:
                return
            if depth + 1 == num_slices:
                if suffix_fits[q]:
                    yield prefix + (q,)
            else:
                yield from _extend(prefix + (q,), q)

    yield from _extend((), 0)


def plan_cuts(
    circuit: QuantumCircuit,
    max_fragment_width: int,
    entanglement_overlap: float | None = None,
    max_cuts: int | None = None,
    max_fragments: int | None = None,
) -> list[MultiCutPlan]:
    """Enumerate valid multi-slice cut plans, best (lowest overhead) first.

    The search deepens by repeated bipartition: first every single time
    slice is tried, then every pair, and so on — so plans with more than two
    fragments (and cuts at several positions) are found exactly when fewer
    slices cannot satisfy the width constraint.  Since a plan with ``m``
    slices contains at least ``m`` cuts (overhead ≥ κᵐ), the deepening stops
    as soon as another level cannot beat the best plan already found, which
    keeps the search fast on the circuit sizes a statevector simulator can
    handle anyway.

    Parameters
    ----------
    circuit:
        The circuit to split (measurement-free on the wires to be cut).
    max_fragment_width:
        Maximum number of qubits any device can hold (receiver qubits for cut
        wires count; protocol ancillas do not).
    entanglement_overlap:
        Entanglement level ``f(Φ_k)`` available between the devices; ``None``
        means no entanglement (κ = 3 per cut).  Used only to rank plans by
        total sampling overhead.
    max_cuts:
        Optional upper bound on the total number of wire cuts.
    max_fragments:
        Optional upper bound on the number of fragments (i.e. devices); also
        bounds the search depth (``max_fragments − 1`` slices).  Without it
        the search tries at most ``_DEFAULT_MAX_SLICES`` slices.

    Returns
    -------
    list[MultiCutPlan]
        All valid plans found, sorted by (overhead, cuts, fragments,
        positions).  Zero-cut plans rank first (overhead κ⁰ = 1): the
        trivial single-fragment plan when the whole circuit already fits
        the device, and free-split plans when the circuit factorises at
        every slice into fitting fragments.  Empty when the circuit cannot
        be split under the constraints.
    """
    if max_fragment_width < 1:
        raise CuttingError("max_fragment_width must be at least 1")
    num_instructions = len(circuit)
    # Feasibility pre-check: an instruction touching more qubits than the
    # device width can never be placed, whatever the slicing — bail out
    # before enumerating any candidate.
    if any(len(ins.qubits) > max_fragment_width for ins in circuit.instructions):
        return []
    max_slices = num_instructions - 1
    if max_fragments is not None:
        max_slices = min(max_slices, max_fragments - 1)
    else:
        max_slices = min(max_slices, _DEFAULT_MAX_SLICES)

    usage = _wire_usage(circuit)
    per_cut_kappa = _per_cut_kappa(entanglement_overlap)
    valid: list[MultiCutPlan] = []
    if len(_touched_qubits(circuit, 0, num_instructions)) <= max_fragment_width:
        # The whole circuit fits one device: the trivial single-fragment
        # plan needs no cut and ranks first at overhead 1.
        valid.append(
            MultiCutPlan(
                positions=(),
                locations=(),
                fragments=_fragments_between(circuit, (), usage),
                sampling_overhead=1.0,
            )
        )
    # Positions where the circuit factorises (no wire crosses) are *free*
    # slices: they split fragments without a cut.  A plan with m slices
    # therefore has at least m - free_count cuts, which both bounds the
    # useful search depth under max_cuts and powers the early termination.
    free_count = sum(
        1
        for position in range(1, num_instructions)
        if not any(first < position <= last for first, last in usage.values())
    )
    if max_cuts is not None:
        max_slices = min(max_slices, max_cuts + free_count)

    best_cuts: int | None = None
    for num_slices in range(1, max_slices + 1):
        if best_cuts is not None and num_slices - free_count > best_cuts:
            # A plan with m slices has >= m - free_count cuts, so its
            # overhead is >= kappa^(m - free_count): no deeper level can
            # beat the best plan already found.
            break
        for positions in _feasible_position_tuples(circuit, num_slices, max_fragment_width):
            plan = _build_plan(circuit, positions, usage, per_cut_kappa)
            if max_cuts is not None and plan.num_cuts > max_cuts:
                continue
            if any(fragment.width > max_fragment_width for fragment in plan.fragments):
                continue
            valid.append(plan)
            if best_cuts is None or plan.num_cuts < best_cuts:
                best_cuts = plan.num_cuts
    valid.sort(
        key=lambda plan: (
            plan.sampling_overhead,
            plan.num_cuts,
            plan.num_fragments,
            plan.positions,
        ),
    )
    return valid

