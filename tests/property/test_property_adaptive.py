"""Property tests of the adaptive engine's budget and determinism contracts.

Three invariants anchor the streaming refactor:

* the engine never spends more than ``max_shots``, whatever the
  coefficients, target or planner;
* every round's allocation sums exactly to the round's budget (no shot is
  lost or invented between the planner and the executor);
* ``mode="static"`` is bitwise identical to the pre-refactor execution
  path — the adaptive seams must not perturb a single seeded draw.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.backends import resolve_backend
from repro.cutting import CutLocation, NMEWireCut, estimate_multi_cut_expectation
from repro.cutting.multi_wire import build_multi_cut_circuits, measured_multi_cut_circuit
from repro.experiments import ghz_circuit
from repro.qpd.adaptive import AdaptiveConfig, run_adaptive_rounds
from repro.qpd.allocation import NeymanPlanner, ProportionalPlanner, allocate_shots
from repro.qpd.estimator import TermEstimate, combine_term_estimates
from repro.quantum.paulis import PauliString

SETTINGS = settings(max_examples=60, deadline=None)


def coefficient_arrays():
    """Signed coefficient vectors with at least one non-zero entry."""
    return (
        st.lists(
            st.floats(min_value=0.05, max_value=3.0, allow_nan=False),
            min_size=1,
            max_size=8,
        )
        .map(np.array)
        .flatmap(
            lambda magnitudes: st.lists(
                st.sampled_from([-1.0, 1.0]),
                min_size=len(magnitudes),
                max_size=len(magnitudes),
            ).map(lambda signs: magnitudes * np.array(signs))
        )
    )


def fixed_mean_executor(coefficients):
    """Deterministic round executor (mean 0 per term, full variance)."""

    def execute_round(index, shots, seed_sequence):
        rng = np.random.default_rng(seed_sequence)
        return [
            2.0 * rng.binomial(int(n), 0.5) / n - 1.0 if n > 0 else 0.0
            for n in shots
        ]

    return execute_round


class TestBudgetProperties:
    @SETTINGS
    @given(
        coefficients=coefficient_arrays(),
        max_shots=st.integers(min_value=1, max_value=20_000),
        target=st.floats(min_value=1e-4, max_value=0.5, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_never_exceeds_max_shots(self, coefficients, max_shots, target, seed):
        result = run_adaptive_rounds(
            coefficients,
            fixed_mean_executor(coefficients),
            AdaptiveConfig(target_error=target, max_shots=max_shots, max_rounds=8),
            seed=seed,
        )
        assert result.total_shots <= max_shots
        assert sum(record.total_shots for record in result.rounds) == result.total_shots

    @SETTINGS
    @given(
        coefficients=coefficient_arrays(),
        max_shots=st.integers(min_value=1, max_value=20_000),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_per_round_totals_are_exact(self, coefficients, max_shots, seed):
        result = run_adaptive_rounds(
            coefficients,
            fixed_mean_executor(coefficients),
            AdaptiveConfig(target_error=0.01, max_shots=max_shots, max_rounds=6),
            seed=seed,
        )
        for record in result.rounds:
            assert all(count >= 0 for count in record.shots_per_term)
            assert len(record.shots_per_term) == len(coefficients)
        # The engine validates each round's planner total internally; the
        # cumulative identity proves no shots leak between rounds.
        assert result.total_shots == sum(r.total_shots for r in result.rounds)

    @SETTINGS
    @given(
        magnitudes=st.lists(
            st.floats(min_value=1e-3, max_value=10.0, allow_nan=False), min_size=1, max_size=10
        ).map(np.array),
        counts=st.integers(min_value=0, max_value=5_000),
        shots=st.integers(min_value=0, max_value=50_000),
        variance=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
    )
    def test_planners_allocate_exact_totals(self, magnitudes, counts, shots, variance):
        count_array = np.full(magnitudes.shape, float(counts))
        variance_array = np.full(magnitudes.shape, variance)
        for planner in (ProportionalPlanner(), NeymanPlanner()):
            allocation = planner.plan(magnitudes, count_array, variance_array, shots)
            assert int(allocation.sum()) == shots
            assert np.all(allocation >= 0)


def reference_static_estimate(circuit, location, protocol, observable, shots, seed, backend):
    """The pre-refactor static execution path, inlined verbatim.

    This reproduces the original single-cut estimator body (one up-front
    proportional allocation, one batch, Eq.-12 recombination) so the
    property test can prove ``mode="static"`` did not change a single
    seeded draw.
    """
    rng = np.random.default_rng(seed)
    pauli = PauliString(observable)
    decomposition = protocol.decomposition()
    shots_per_term = allocate_shots(decomposition.probabilities, shots, strategy="proportional", seed=rng)
    term_circuits = build_multi_cut_circuits(circuit, [location], [protocol])
    exec_backend = resolve_backend(backend)
    measured_circuits = []
    selected_clbits = []
    for term_circuit in term_circuits:
        measured, selected = measured_multi_cut_circuit(term_circuit, pauli)
        measured_circuits.append(measured)
        selected_clbits.append(selected)
    counts_per_term = exec_backend.run_batch(
        measured_circuits, [int(s) for s in shots_per_term], seed=rng
    )
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
    return combine_term_estimates(term_estimates)


class TestStaticModeIsBitwiseIdentical:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shots=st.integers(min_value=1, max_value=4_000),
        overlap=st.sampled_from([0.6, 0.8, 0.95]),
        backend=st.sampled_from(["serial", "vectorized"]),
    )
    def test_matches_pre_refactor_path(self, seed, shots, overlap, backend):
        circuit = ghz_circuit(3)
        location = CutLocation(qubit=1, position=2)
        protocol = NMEWireCut.from_overlap(overlap)
        result = estimate_multi_cut_expectation(
            circuit,
            [location],
            [protocol],
            observable="ZZZ",
            shots=shots,
            seed=seed,
            backend=backend,
            mode="static",
            compute_exact=False,
        )
        reference = reference_static_estimate(
            circuit, location, protocol, "ZZZ", shots, seed, backend
        )
        assert result.value == reference.value
        assert result.standard_error == reference.standard_error
        assert result.total_shots == reference.total_shots

    @pytest.mark.parametrize("backend", ["serial", "vectorized", "process-pool"])
    def test_matches_pre_refactor_path_all_backends(self, backend):
        circuit = ghz_circuit(3)
        location = CutLocation(qubit=1, position=2)
        protocol = NMEWireCut.from_overlap(0.8)
        result = estimate_multi_cut_expectation(
            circuit,
            [location],
            [protocol],
            observable="ZZZ",
            shots=2000,
            seed=123,
            backend=backend,
            compute_exact=False,
        )
        reference = reference_static_estimate(
            circuit, location, protocol, "ZZZ", 2000, 123, backend
        )
        assert result.value == reference.value
        assert result.standard_error == reference.standard_error
