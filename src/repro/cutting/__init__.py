"""Wire-cutting protocols, cutter, planner, executors and extensions.

The central class is :class:`NMEWireCut` (the paper's Theorem 2); the
baselines are :class:`HaradaWireCut` (optimal entanglement-free cut, κ=3),
:class:`PengWireCut` (original Pauli-basis cut, κ=4) and
:class:`TeleportationWireCut` (maximally entangled resource, κ=1).

Cut *planning* (:func:`plan_cuts`, one planner for any number of
fragments) and the tensor-product builder and term executor
(:mod:`repro.cutting.multi_wire`) are the stages
:class:`repro.pipeline.CutPipeline` composes.  One cut is the one-location
case of that builder and executor, and gate cuts
(:mod:`repro.cutting.gate_cutting`) run through the same executor; the
exact-distribution sampling models of :mod:`repro.cutting.executor` build on
them to sweep the paper's one-wire workloads.
"""

from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import (
    CutSamplingModel,
    TermSamplingModel,
    build_sampling_model,
    build_sampling_models,
    cut_expectation_value,
)
from repro.cutting.instances import (
    FragmentInstance,
    InstanceStats,
    InstanceTable,
    SplitGadget,
    build_instance_table,
    execute_instances,
    execute_instances_adaptive,
    instance_support_reason,
    split_wire_cut_term,
)
from repro.cutting.gate_cutting import (
    CZGateCut,
    GateCutProtocol,
    GateCutTerm,
    ZZGateCut,
    build_gate_cut_circuits,
    estimate_gate_cut_expectation,
)
from repro.cutting.multi_wire import (
    ESTIMATION_MODES,
    CutExpectationResult,
    MultiCutTermCircuit,
    build_multi_cut_circuits,
    estimate_multi_cut_expectation,
    execute_term_circuits,
    execute_term_circuits_adaptive,
    independent_cuts_decomposition,
    measured_multi_cut_circuit,
)
from repro.cutting.nme_cut import NMEWireCut, nme_coefficients
from repro.cutting.noise import (
    effective_cut_superoperator,
    noisy_phi_k,
    noisy_resource_overhead,
    reconstruction_bias,
    validate_noise_strength,
    worst_case_z_bias,
)
from repro.cutting.overhead import (
    expected_pairs_per_shot,
    harada_overhead,
    k_for_target_overhead,
    multi_wire_independent_overhead,
    multi_wire_joint_overhead,
    nme_overhead,
    optimal_overhead,
    optimal_overhead_for_state,
    overhead_reduction_factor,
    overlap_for_target_overhead,
    pairs_proportionality_constant,
    peng_overhead,
    shots_multiplier,
    teleportation_overhead,
)
from repro.cutting.cut_finding import (
    Fragment,
    MultiCutPlan,
    plan_cuts,
    plan_from_locations,
    plan_from_positions,
)
from repro.cutting.peng_cut import PengWireCut
from repro.cutting.standard_cut import HaradaWireCut
from repro.cutting.teleport_cut import TeleportationWireCut

__all__ = [
    # protocol classes
    "WireCutProtocol",
    "WireCutTerm",
    "GadgetWiring",
    "NMEWireCut",
    "HaradaWireCut",
    "PengWireCut",
    "TeleportationWireCut",
    "nme_coefficients",
    # cut locations / sampling models
    "CutLocation",
    "CutExpectationResult",
    "ESTIMATION_MODES",
    "cut_expectation_value",
    "build_sampling_model",
    "build_sampling_models",
    "CutSamplingModel",
    "TermSamplingModel",
    # overheads
    "optimal_overhead",
    "optimal_overhead_for_state",
    "nme_overhead",
    "harada_overhead",
    "peng_overhead",
    "teleportation_overhead",
    "shots_multiplier",
    "expected_pairs_per_shot",
    "pairs_proportionality_constant",
    "overhead_reduction_factor",
    "k_for_target_overhead",
    "overlap_for_target_overhead",
    "multi_wire_joint_overhead",
    "multi_wire_independent_overhead",
    # gate cutting
    "GateCutProtocol",
    "GateCutTerm",
    "ZZGateCut",
    "CZGateCut",
    "build_gate_cut_circuits",
    "estimate_gate_cut_expectation",
    # multi-wire
    "MultiCutTermCircuit",
    "build_multi_cut_circuits",
    "estimate_multi_cut_expectation",
    "execute_term_circuits",
    "execute_term_circuits_adaptive",
    "independent_cuts_decomposition",
    "measured_multi_cut_circuit",
    # instance dedup
    "SplitGadget",
    "split_wire_cut_term",
    "instance_support_reason",
    "FragmentInstance",
    "InstanceStats",
    "InstanceTable",
    "build_instance_table",
    "execute_instances",
    "execute_instances_adaptive",
    # automatic cut finding
    "Fragment",
    "MultiCutPlan",
    "plan_cuts",
    "plan_from_locations",
    "plan_from_positions",
    # noise extension
    "validate_noise_strength",
    "noisy_phi_k",
    "noisy_resource_overhead",
    "effective_cut_superoperator",
    "reconstruction_bias",
    "worst_case_z_bias",
]
