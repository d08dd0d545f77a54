"""Unit tests for the subcircuit-instance dedup layer (gadget splitting,
instance enumeration, memoized evaluation and chain contraction)."""

import numpy as np
import pytest

from repro.exceptions import CuttingError
from repro.circuits.backends import DistributionCache, VectorizedBackend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.expectation import exact_expectation
from repro.cutting import (
    InstanceStats,
    build_instance_table,
    execute_instances,
    execute_instances_adaptive,
    instance_support_reason,
    plan_from_locations,
    plan_from_positions,
    split_wire_cut_term,
)
from repro.cutting.cutter import CutLocation
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut
from repro.devices import NoiseModel, NoisyDeviceBackend
from repro.experiments import ghz_circuit
from repro.qpd import AdaptiveConfig, combine_term_estimates
from repro.quantum.paulis import PauliString


def chain_circuit(num_qubits: int) -> QuantumCircuit:
    """Entangling chain with per-wire rotations: one crossing wire per slice."""
    circuit = QuantumCircuit(num_qubits, name=f"chain{num_qubits}")
    circuit.gate("h", 0)
    for qubit in range(num_qubits - 1):
        circuit.gate("rz", qubit, (0.3 + 0.1 * qubit,))
        circuit.gate("cx", (qubit, qubit + 1))
        circuit.gate("rx", qubit + 1, (0.5 + 0.05 * qubit,))
    return circuit


def _chain_table(num_qubits=5, positions=(4, 7), observable=None, protocol=None):
    circuit = chain_circuit(num_qubits)
    plan = plan_from_positions(circuit, positions)
    protocols = [protocol or HaradaWireCut()] * plan.num_cuts
    observable = observable or "Z" * num_qubits
    return circuit, plan, build_instance_table(circuit, plan, protocols, observable)


class TestSplitGadget:
    def test_harada_terms_all_split_with_one_message_bit(self):
        for term in HaradaWireCut().terms:
            gadget = split_wire_cut_term(term)
            assert gadget is not None
            assert gadget.num_message_bits == 1
            assert all(inst.qubits == (1,) for inst in gadget.receiver_instructions)

    def test_peng_terms_all_split_without_message_bits(self):
        for term in PengWireCut().terms:
            gadget = split_wire_cut_term(term)
            assert gadget is not None
            assert gadget.num_message_bits == 0

    def test_nme_teleport_terms_do_not_split(self):
        # The entangled-pair terms prepare |phi_k> across the cut, so their
        # gadgets cannot factorise into sender/receiver halves.
        unsplittable = [
            term for term in NMEWireCut(0.5).terms if split_wire_cut_term(term) is None
        ]
        assert [term.label for term in unsplittable] == [
            "teleport-U1(H)",
            "teleport-U2(SH)",
        ]

    def test_teleport_terms_do_not_split(self):
        assert all(
            split_wire_cut_term(t) is None for t in TeleportationWireCut().terms
        )


class TestSupportReason:
    def test_full_slice_harada_plan_is_supported(self):
        circuit = chain_circuit(4)
        plan = plan_from_positions(circuit, (4,))
        assert instance_support_reason(circuit, plan, [HaradaWireCut()]) is None

    def test_no_cuts(self):
        from repro.cutting.cut_finding import MultiCutPlan

        circuit = chain_circuit(3)
        full = plan_from_positions(circuit, (4,))
        empty = MultiCutPlan(
            positions=(), locations=(), fragments=full.fragments, sampling_overhead=1.0
        )
        assert "no cuts" in instance_support_reason(circuit, empty, [])

    def test_protocol_count_mismatch(self):
        circuit = chain_circuit(4)
        plan = plan_from_positions(circuit, (4,))
        reason = instance_support_reason(circuit, plan, [])
        assert "protocols" in reason

    def test_classical_bits_in_base_circuit(self):
        circuit = QuantumCircuit(2, 1)
        circuit.h(0).cx(0, 1)
        circuit.measure(0, 0)
        plan = plan_from_locations(circuit, (CutLocation(0, 1),))
        reason = instance_support_reason(circuit, plan, [HaradaWireCut()])
        assert "classical bits" in reason

    def test_end_of_circuit_cut_is_not_full_slice(self):
        circuit = chain_circuit(3)
        plan = plan_from_locations(circuit, (CutLocation(0, len(circuit)),))
        reason = instance_support_reason(circuit, plan, [HaradaWireCut()])
        assert reason is not None

    def test_unsplittable_protocol_names_the_gadget(self):
        circuit = chain_circuit(4)
        plan = plan_from_positions(circuit, (4,))
        reason = instance_support_reason(circuit, plan, [NMEWireCut(0.5)])
        assert "gadget" in reason and "nme" in reason

    def test_build_instance_table_raises_with_reason(self):
        circuit = chain_circuit(4)
        plan = plan_from_positions(circuit, (4,))
        with pytest.raises(CuttingError, match="gadget"):
            build_instance_table(circuit, plan, [NMEWireCut(0.5)], "ZZZZ")


class TestEnumeration:
    def test_chain_counts(self):
        _, plan, table = _chain_table()
        assert plan.num_cuts == 2
        assert table.num_fragments == 3
        assert table.num_terms == 9
        # Harada: 3 terms x 1 message bit -> 6 in-configs, 3 out-configs.
        # frag0: 3 out; frag1: 6 in x 3 out = 18; frag2: 6 in.
        assert table.num_instances == 27
        # Per term the chain materializes 1 + 2 + 2 instances -> 9 * 5.
        assert table.num_references == 45
        stats = table.evaluate("serial")
        assert stats.dedup_ratio == pytest.approx(45 / 27)

    def test_instances_are_narrow(self):
        _, plan, table = _chain_table()
        widths = {instance.circuit.num_qubits for instance in table.instances}
        # Fragments span at most 2 wires plus the Harada ancilla.
        assert max(widths) <= 3

    def test_identical_fragments_shared_across_terms(self):
        # Every middle-fragment instance is referenced by all 3 choices of the
        # *other* cut's term, so each unique instance serves multiple terms.
        _, plan, table = _chain_table()
        references_per_instance = table.num_references / table.num_instances
        assert references_per_instance > 1.0

    def test_stats_payload_round_trip(self):
        _, _, table = _chain_table()
        stats = table.evaluate("serial")
        rebuilt = InstanceStats.from_payload(stats.to_payload())
        assert rebuilt == stats
        assert rebuilt.cache_hits == stats.num_references - stats.num_instances


class TestEvaluation:
    def test_memoized_matches_materialized_bitwise(self):
        _, _, table = _chain_table(observable="ZZZZI")
        table.evaluate("serial")
        for assignment in table.term_assignments():
            memoized = table.term_probability_plus(assignment)
            materialized = table.materialized_term_probability_plus(assignment, "serial")
            assert memoized == materialized

    def test_contraction_matches_summation_and_uncut_value(self):
        circuit, _, table = _chain_table(observable="ZZZZI")
        table.evaluate("vectorized")
        contracted = table.contract_exact_value()
        summed = table.summed_exact_value()
        truth = float(exact_expectation(circuit, PauliString("ZZZZI").to_matrix()))
        assert contracted == pytest.approx(summed, abs=1e-9)
        assert contracted == pytest.approx(truth, abs=1e-9)

    def test_peng_protocol_contracts_to_uncut_value(self):
        circuit, _, table = _chain_table(
            positions=(4,), observable="ZZIII", protocol=PengWireCut()
        )
        table.evaluate("serial")
        truth = float(exact_expectation(circuit, PauliString("ZZIII").to_matrix()))
        assert table.contract_exact_value() == pytest.approx(truth, abs=1e-9)

    def test_cross_backend_bitwise_identity(self):
        values = {}
        for backend in ("serial", "vectorized", "process-pool"):
            _, _, table = _chain_table(num_qubits=4, positions=(4,), observable="ZZZI")
            table.evaluate(backend)
            values[backend] = (
                table.contract_exact_value(),
                tuple(table.term_probability_plus(a) for a in table.term_assignments()),
            )
        assert values["vectorized"] == values["serial"]
        assert values["process-pool"] == values["serial"]

    def test_evaluate_is_idempotent(self):
        _, _, table = _chain_table()
        first = table.evaluate("serial")
        second = table.evaluate("serial")
        assert second == first


class TestCacheAccounting:
    def test_fresh_cache_counts_all_misses(self):
        _, _, table = _chain_table()
        backend = VectorizedBackend(cache=DistributionCache())
        stats = table.evaluate(backend)
        assert stats.distribution_cache_misses == table.num_instances
        assert stats.distribution_cache_hits == 0

    def test_warm_cache_counts_all_hits(self):
        cache = DistributionCache()
        _, _, table = _chain_table()
        table.evaluate(VectorizedBackend(cache=cache))
        _, _, rebuilt = _chain_table()
        stats = rebuilt.evaluate(VectorizedBackend(cache=cache))
        assert stats.distribution_cache_hits == rebuilt.num_instances
        assert stats.distribution_cache_misses == 0

    def test_noisy_device_fingerprints_do_not_poison_instance_entries(self):
        # A noisy device sharing the LRU keys its distributions by the noise
        # fingerprint, so instance evaluation must miss them and recompute
        # ideal distributions -- values bitwise equal to a fresh cache.
        shared = DistributionCache()
        _, _, reference = _chain_table()
        reference.evaluate(VectorizedBackend(cache=DistributionCache()))

        _, _, table = _chain_table()
        noisy = NoisyDeviceBackend(
            NoiseModel(depolarizing_2q=0.2),
            inner=VectorizedBackend(cache=shared),
            cache=shared,
        )
        # Populate the shared LRU with *noisy* distributions of the very same
        # instance circuits.
        circuits = [instance.circuit for instance in table.instances]
        noisy.run_batch(circuits, [64] * len(circuits), seed=3)
        stats = table.evaluate(VectorizedBackend(cache=shared))
        assert stats.distribution_cache_misses == table.num_instances
        for assignment in table.term_assignments():
            assert table.term_probability_plus(assignment) == (
                reference.term_probability_plus(assignment)
            )


class TestExecuteInstances:
    def test_static_execution_is_seed_reproducible(self):
        _, _, table = _chain_table(observable="ZZZZI")
        first, shots_first, stats = execute_instances(table, 2000, seed=11)
        _, _, rebuilt = _chain_table(observable="ZZZZI")
        second, shots_second, _ = execute_instances(rebuilt, 2000, seed=11)
        assert [e.mean for e in first] == [e.mean for e in second]
        assert shots_first == shots_second
        assert sum(shots_first) <= 2000
        assert stats.num_terms == len(first) == 9

    def test_static_estimate_converges_to_exact(self):
        circuit, _, table = _chain_table(observable="ZZZZI")
        estimates, _, _ = execute_instances(table, 400_000, seed=5, backend="vectorized")
        estimate = combine_term_estimates(estimates)
        truth = float(exact_expectation(circuit, PauliString("ZZZZI").to_matrix()))
        assert estimate.value == pytest.approx(truth, abs=0.05)

    def test_adaptive_execution_respects_budget(self):
        _, _, table = _chain_table(observable="ZZZZI")
        config = AdaptiveConfig(target_error=0.01, max_shots=4000, max_rounds=6)
        estimates, shots, result, stats = execute_instances_adaptive(
            table, config, seed=13, backend="vectorized"
        )
        assert len(estimates) == table.num_terms
        assert sum(shots) <= 4000
        assert len(result.rounds) <= 6
        assert stats.num_instances == table.num_instances

    def test_estimates_are_bitwise_identical_across_backends(self):
        means = {}
        for backend in ("serial", "vectorized"):
            _, _, table = _chain_table(observable="ZZZZI")
            estimates, _, _ = execute_instances(table, 3000, seed=17, backend=backend)
            means[backend] = tuple(e.mean for e in estimates)
        assert means["serial"] == means["vectorized"]


class TestGhzPlannerPlans:
    def test_planner_produced_ghz_plan_is_supported(self):
        # The GHZ chain is the paper's running example; planner slices are
        # full slices, so store-backed GHZ jobs dedup out of the box.
        circuit = ghz_circuit(4)
        plan = plan_from_positions(circuit, (2, 3))
        assert instance_support_reason(circuit, plan, [HaradaWireCut()] * 2) is None
        table = build_instance_table(circuit, plan, [HaradaWireCut()] * 2, "ZZZZ")
        table.evaluate("vectorized")
        assert table.contract_exact_value() == pytest.approx(1.0, abs=1e-9)
