"""Unit tests for automatic cut finding (one planner for any fragment count)."""

import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting.cut_finding import (
    plan_cuts,
    plan_from_locations,
    plan_from_positions,
)
from repro.cutting.cutter import CutLocation
from repro.cutting.multi_wire import estimate_multi_cut_expectation
from repro.cutting.standard_cut import HaradaWireCut
from repro.experiments import ghz_circuit
from repro.quantum.paulis import PauliString


def _single_slice_plans(circuit, max_fragment_width, **options):
    """The planner's two-fragment cut plans: one time slice, at least one cut."""
    plans = plan_cuts(circuit, max_fragment_width, max_fragments=2, **options)
    return [plan for plan in plans if plan.num_cuts > 0]


class TestFindTimeSliceCuts:
    def test_ghz_single_cut_found(self):
        circuit = ghz_circuit(4)
        plans = _single_slice_plans(circuit, max_fragment_width=3)
        assert plans, "expected at least one valid plan"
        best = plans[0]
        assert best.num_cuts == 1
        assert best.sampling_overhead == pytest.approx(3.0)
        assert best.num_fragments == 2
        assert best.max_width <= 3

    def test_width_constraint_filters_plans(self):
        circuit = ghz_circuit(4)
        assert _single_slice_plans(circuit, max_fragment_width=1) == []

    def test_entanglement_lowers_reported_overhead(self):
        circuit = ghz_circuit(4)
        plain = _single_slice_plans(circuit, max_fragment_width=3)[0]
        assisted = _single_slice_plans(circuit, max_fragment_width=3, entanglement_overlap=0.9)[0]
        assert assisted.sampling_overhead < plain.sampling_overhead

    def test_max_cuts_filter(self):
        # A fully parallel two-qubit entangler layer needs 2 simultaneous cuts.
        circuit = QuantumCircuit(4)
        circuit.h(0).h(1).h(2).h(3)
        circuit.cx(0, 2).cx(1, 3)
        plans_all = _single_slice_plans(circuit, max_fragment_width=4)
        plans_restricted = _single_slice_plans(circuit, max_fragment_width=4, max_cuts=1)
        assert any(p.num_cuts >= 2 for p in plans_all)
        assert all(p.num_cuts <= 1 for p in plans_restricted)

    def test_invalid_width(self):
        with pytest.raises(CuttingError):
            _single_slice_plans(ghz_circuit(3), max_fragment_width=0)

    def test_plans_sorted_by_overhead(self):
        circuit = ghz_circuit(5)
        plans = _single_slice_plans(circuit, max_fragment_width=4)
        overheads = [p.sampling_overhead for p in plans]
        assert overheads == sorted(overheads)

    def test_best_plan_is_executable(self):
        # The found plan, executed with the multi-cut estimator, reproduces the
        # exact stabiliser expectation value.
        circuit = ghz_circuit(4)
        observable = PauliString("ZZII")
        exact = exact_expectation(circuit, observable)
        best = _single_slice_plans(circuit, max_fragment_width=3)[0]
        result = estimate_multi_cut_expectation(
            circuit,
            list(best.locations),
            [HaradaWireCut()] * best.num_cuts,
            observable,
            shots=20_000,
            seed=3,
        )
        assert result.exact_value == pytest.approx(exact)
        assert result.value == pytest.approx(exact, abs=0.1)


class TestPlanFromPositions:
    def test_single_slice_matches_single_slice_finder(self):
        circuit = ghz_circuit(4)
        best = _single_slice_plans(circuit, max_fragment_width=3)[0]
        plan = plan_from_positions(circuit, (best.locations[0].position,))
        assert plan == best
        assert plan.num_fragments == 2
        # GHZ(4) = h, cx01, cx12, cx23: the middle slice leaves qubits 0, 1
        # in front and 1, 2, 3 (the cut wire on its receiver) behind.
        middle = plan_from_positions(circuit, (2,))
        assert [fragment.width for fragment in middle.fragments] == [2, 3]

    def test_wire_crossing_two_slices_is_cut_twice(self):
        # q0 is used at instructions 0, 1 and 3 — it crosses both slices and
        # passes idle through the middle fragment.
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).x(1).cx(0, 2)
        plan = plan_from_positions(circuit, (2, 3))
        cut_keys = [(loc.qubit, loc.position) for loc in plan.locations]
        assert (0, 2) in cut_keys and (0, 3) in cut_keys
        # The through-wire still occupies a qubit in the middle fragment.
        middle = plan.fragments[1]
        assert 0 in middle.qubits

    def test_rejects_unsorted_or_out_of_range_positions(self):
        circuit = ghz_circuit(4)
        with pytest.raises(CuttingError):
            plan_from_positions(circuit, (3, 2))
        with pytest.raises(CuttingError):
            plan_from_positions(circuit, (0,))
        with pytest.raises(CuttingError):
            plan_from_positions(circuit, (len(circuit),))
        with pytest.raises(CuttingError):
            plan_from_positions(circuit, ())


class TestPlanFromLocations:
    def test_end_of_circuit_cut(self):
        # The paper's single-qubit workload cuts after the last instruction,
        # which the slice model cannot express.
        circuit = QuantumCircuit(1)
        circuit.h(0)
        plan = plan_from_locations(circuit, [CutLocation(0, len(circuit))])
        assert plan.num_cuts == 1
        assert plan.positions == ()
        assert plan.num_fragments == 1

    def test_rejects_empty_and_out_of_range(self):
        circuit = ghz_circuit(3)
        with pytest.raises(CuttingError):
            plan_from_locations(circuit, [])
        with pytest.raises(CuttingError):
            plan_from_locations(circuit, [CutLocation(5, 1)])


class TestPlanCuts:
    def test_two_cut_three_fragment_plan(self):
        plans = plan_cuts(ghz_circuit(6), max_fragment_width=3)
        assert plans
        best = plans[0]
        assert best.num_cuts == 2
        assert best.num_fragments == 3
        assert best.max_width <= 3
        assert best.sampling_overhead == pytest.approx(9.0)

    def test_no_plan_when_no_cut_set_fits_device(self):
        # Width 1 can never hold a two-qubit gate.
        assert plan_cuts(ghz_circuit(4), max_fragment_width=1) == []

    def test_width_one_fragments_are_allowed(self):
        # GHZ(2) under width 2: besides the trivial no-cut plan, the cut
        # plan puts the leading h(0) into its own single-wire fragment.
        plans = plan_cuts(ghz_circuit(2), max_fragment_width=2)
        assert plans
        assert plans[0].num_cuts == 0  # the trivial plan ranks first
        assert all(plan.max_width <= 2 for plan in plans)
        assert any(
            min(fragment.width for fragment in plan.fragments) == 1 for plan in plans
        ), "expected a plan with a width-1 fragment"

    def test_idle_wire_never_forces_a_cut(self):
        # q2 exists but is never touched: it must not appear in any fragment
        # or cut location.
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1)
        plans = plan_cuts(circuit, max_fragment_width=2)
        assert plans, "a width-2 split of h(0); cx(0,1) must exist"
        for plan in plans:
            assert all(loc.qubit != 2 for loc in plan.locations)
            assert all(2 not in fragment.qubits for fragment in plan.fragments)

    def test_zero_cut_plan_when_circuit_factorises(self):
        # Two independent blocks fit two devices with no cut at all; the
        # free-split plan ranks first with overhead 1.
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1).cx(2, 3)
        plans = plan_cuts(circuit, max_fragment_width=2)
        assert plans
        best = plans[0]
        assert best.num_cuts == 0
        assert best.num_fragments == 2
        assert best.sampling_overhead == pytest.approx(1.0)

    def test_infeasible_width_returns_immediately(self):
        # An instruction wider than the device makes every plan invalid; the
        # arity pre-check must bail out without enumerating candidates.
        circuit = QuantumCircuit(6)
        for layer in range(5):
            for qubit in range(6):
                circuit.h(qubit)
            for qubit in range(0, 5):
                circuit.cx(qubit, qubit + 1)
        import time

        start = time.perf_counter()
        assert plan_cuts(circuit, max_fragment_width=1) == []
        assert time.perf_counter() - start < 1.0

    def test_idle_at_slice_wire_is_cut_at_each_crossing(self):
        # A wire idle exactly at a slice (used before and after) must still
        # be cut there; every location in a plan cuts a genuinely crossing
        # wire.
        circuit = QuantumCircuit(3)
        circuit.h(0).cx(0, 1).x(1).cx(0, 2)
        plans = plan_cuts(circuit, max_fragment_width=2)
        assert plans
        usage = {0: (0, 3), 1: (1, 2), 2: (3, 3)}
        for plan in plans:
            for location in plan.locations:
                first, last = usage[location.qubit]
                assert first < location.position <= last

    def test_overhead_ranks_entanglement_assisted_plans_lower(self):
        plain = plan_cuts(ghz_circuit(6), max_fragment_width=3)[0]
        assisted = plan_cuts(
            ghz_circuit(6), max_fragment_width=3, entanglement_overlap=0.9
        )[0]
        assert assisted.sampling_overhead < plain.sampling_overhead

    def test_max_cuts_and_max_fragments_bounds(self):
        circuit = ghz_circuit(6)
        assert plan_cuts(circuit, 3, max_cuts=1) == []
        bounded = plan_cuts(circuit, 3, max_fragments=3)
        assert bounded and all(p.num_fragments <= 3 for p in bounded)

    def test_invalid_width(self):
        with pytest.raises(CuttingError):
            plan_cuts(ghz_circuit(3), max_fragment_width=0)

    def test_multi_cut_plan_is_executable(self):
        # The 2-cut plan executes end to end and reproduces the exact value.
        circuit = ghz_circuit(4)
        observable = PauliString("ZZZZ")
        exact = exact_expectation(circuit, observable)
        best = plan_cuts(circuit, max_fragment_width=2)[0]
        assert best.num_cuts == 2
        result = estimate_multi_cut_expectation(
            circuit,
            list(best.locations),
            [HaradaWireCut()] * best.num_cuts,
            observable,
            shots=40_000,
            seed=3,
            backend="vectorized",
        )
        assert result.exact_value == pytest.approx(exact)
        assert result.value == pytest.approx(exact, abs=0.25)
