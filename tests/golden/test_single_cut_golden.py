"""Seeded outputs of the single-cut entry points, pinned to a committed fixture.

Every public way of estimating through one cut wire is run here with fixed
seeds, and its output is compared with ``single_cut_golden.json``:

* :func:`repro.cut_expectation_value` (the quickstart workload);
* one-location :func:`repro.cutting.estimate_multi_cut_expectation`, static
  (all allocation strategies) and adaptive, on the serial and vectorized
  backends;
* :func:`repro.cutting.build_sampling_models` with ``estimate``,
  ``estimate_adaptive`` and ``estimate_sweep``;
* a small Figure-6 table, the shots-to-target and adaptive sweeps, and the
  ablations built on the sampling models;
* the measured term-circuit batch of ``tests/utils/workloads.py``, by
  :func:`~repro.circuits.backends.circuit_fingerprint`.

Integers, strings and fingerprints must match exactly; floats must match to
1e-12, because BLAS builds differ across platforms.  A change that alters a
seeded draw on purpose regenerates the fixture with::

    PYTHONPATH=src python tests/golden/test_single_cut_golden.py --write

and names every moved entry in its change notes.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np

FIXTURE = Path(__file__).with_name("single_cut_golden.json")
FLOAT_TOLERANCE = 1e-12

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro import cut_expectation_value  # noqa: E402
from repro.circuits.backends import circuit_fingerprint  # noqa: E402
from repro.circuits.circuit import QuantumCircuit  # noqa: E402
from repro.cutting import (  # noqa: E402
    CutLocation,
    HaradaWireCut,
    NMEWireCut,
    PengWireCut,
    TeleportationWireCut,
    build_sampling_model,
    build_sampling_models,
    estimate_multi_cut_expectation,
)
from repro.experiments import ghz_circuit  # noqa: E402
from repro.experiments.ablations import (  # noqa: E402
    allocation_strategy_ablation,
    protocol_error_comparison,
)
from repro.experiments.adaptive_sweep import AdaptiveSweepConfig, adaptive_vs_static_sweep  # noqa: E402
from repro.experiments.figure6 import Figure6Config, run_figure6  # noqa: E402
from repro.experiments.shots_to_target import ShotsToTargetConfig, shots_to_target_error  # noqa: E402
from repro.experiments.workloads import (  # noqa: E402
    random_single_qubit_states,
    state_preparation_circuit,
)
from repro.qpd.adaptive import AdaptiveConfig  # noqa: E402
from repro.quantum import random_statevector  # noqa: E402
from utils.workloads import ghz_cut_workload  # noqa: E402

PROTOCOLS = {
    "harada": HaradaWireCut,
    "peng": PengWireCut,
    "teleportation": TeleportationWireCut,
    "nme0.55": lambda: NMEWireCut.from_overlap(0.55),
    "nme0.75": lambda: NMEWireCut.from_overlap(0.75),
}
ALLOCATIONS = ("proportional", "multinomial", "uniform")
BACKENDS = ("serial", "vectorized")


def _result_digest(result) -> dict:
    """Every seeded field of a :class:`CutExpectationResult`."""
    return {
        "value": result.value,
        "standard_error": result.standard_error,
        "total_shots": result.total_shots,
        "kappa": result.kappa,
        "shots_per_term": list(result.shots_per_term),
        "terms": [
            [t.coefficient, t.mean, t.shots, t.label, t.variance] for t in result.term_estimates
        ],
        "protocol_name": result.protocol_name,
        "exact_value": result.exact_value,
        "mode": result.mode,
        "converged": result.converged,
        "rounds": [r.to_payload() for r in result.rounds],
    }


def _table_digest(table) -> dict:
    """The columns of a :class:`SweepTable` (metadata holds process-wide cache counters)."""
    return {name: list(values) for name, values in table.columns.items()}


def _mid_circuit() -> QuantumCircuit:
    """GHZ(3) followed by local rotations, so the cut sits mid-circuit."""
    circuit = ghz_circuit(3)
    circuit.ry(0.4, 1)
    circuit.rz(0.3, 2)
    circuit.cx(1, 2)
    return circuit


def _quickstart() -> dict:
    state = random_statevector(1, seed=2024)
    out = {}
    for name, make in PROTOCOLS.items():
        for backend in BACKENDS:
            result = cut_expectation_value(state, make(), shots=4000, seed=2024, backend=backend)
            out[f"{name}/{backend}"] = _result_digest(result)
    result = cut_expectation_value(
        state, NMEWireCut.from_overlap(0.75), shots=3000, observable="X", seed=5
    )
    out["nme0.75/X"] = _result_digest(result)
    return out


def _multi_cut_one_location() -> dict:
    out = {}
    cases = {
        "mid": (_mid_circuit(), CutLocation(qubit=1, position=2), "ZZX"),
        "end": (ghz_circuit(3), CutLocation(qubit=2, position=3), "ZZZ"),
    }
    for case, (circuit, location, observable) in cases.items():
        for name, make in PROTOCOLS.items():
            for backend in BACKENDS:
                for allocation in ALLOCATIONS:
                    result = estimate_multi_cut_expectation(
                        circuit, [location], [make()], observable, 3000,
                        allocation=allocation, seed=11, backend=backend,
                    )
                    out[f"{case}/{name}/{backend}/static/{allocation}"] = _result_digest(result)
                result = estimate_multi_cut_expectation(
                    circuit, [location], [make()], observable, 20000,
                    seed=13, backend=backend, mode="adaptive", target_error=0.05, rounds=6,
                )
                out[f"{case}/{name}/{backend}/adaptive"] = _result_digest(result)
    return out


def _sampling_models() -> dict:
    out = {}
    workload = random_single_qubit_states(3, seed=3)
    circuits = [state_preparation_circuit(u) for u in workload.unitaries]
    locations = [CutLocation(0, len(c)) for c in circuits]
    config = AdaptiveConfig(target_error=0.04, max_shots=30000, max_rounds=8)
    for name, make in PROTOCOLS.items():
        for backend in BACKENDS:
            models = build_sampling_models(circuits, locations, make(), "Z", backend=backend)
            for index, model in enumerate(models):
                key = f"{name}/{backend}/{index}"
                out[f"{key}/model"] = {
                    "terms": [
                        [t.coefficient, t.probability_plus, t.label, t.consumes_entangled_pair]
                        for t in model.terms
                    ],
                    "exact_value": model.exact_value,
                    "exact_cut_value": model.exact_cut_value(),
                    "kappa": model.kappa,
                    "protocol_name": model.protocol_name,
                    "expected_pairs": model.expected_pairs(1000),
                }
                for allocation in ALLOCATIONS:
                    out[f"{key}/estimate/{allocation}"] = _result_digest(
                        model.estimate(1500, allocation=allocation, seed=index)
                    )
                out[f"{key}/adaptive"] = _result_digest(model.estimate_adaptive(config, seed=index))
                values, errors = model.estimate_sweep((100, 1000, 4000), seed=index)
                out[f"{key}/sweep"] = [list(values), list(errors)]
    model = build_sampling_model(
        _mid_circuit(), CutLocation(qubit=1, position=2), NMEWireCut.from_overlap(0.75), "ZZX"
    )
    out["mid/nme0.75/model"] = [[t.coefficient, t.probability_plus, t.label] for t in model.terms]
    out["mid/nme0.75/estimate"] = _result_digest(model.estimate(2000, seed=1))
    return out


def _experiments() -> dict:
    figure6 = run_figure6(
        Figure6Config(num_states=6, shot_grid=(200, 800), overlaps=(0.5, 0.8, 1.0), seed=7)
    )
    shots = shots_to_target_error(
        ShotsToTargetConfig(
            target_error=0.08,
            overlaps=(0.5, 1.0),
            num_states=6,
            candidate_budgets=(100, 400, 1600),
            seed=5,
        )
    )
    adaptive = adaptive_vs_static_sweep(
        AdaptiveSweepConfig(num_states=4, overlaps=(0.5, 0.9, 1.0), seed=5)
    )
    return {
        "figure6": _table_digest(figure6.to_table()),
        "shots_to_target": _table_digest(shots),
        "adaptive_sweep": _table_digest(adaptive),
        "allocation_ablation": _table_digest(allocation_strategy_ablation(num_states=4)),
        "protocol_comparison": _table_digest(protocol_error_comparison(num_states=3)),
    }


def _measured_batch() -> dict:
    workload = ghz_cut_workload(num_qubits=3, overlap=0.8)
    return {
        "fingerprints": [circuit_fingerprint(c) for c in workload.measured_circuits],
        "selected_clbits": [list(bits) for bits in workload.selected_clbits],
        "coefficients": list(workload.coefficients),
        "labels": list(workload.labels),
    }


def compute_golden() -> dict:
    """Run every pinned entry point; return its JSON-ready outputs keyed ``section/case``."""
    sections = {
        "quickstart": _quickstart(),
        "multi_cut_one_location": _multi_cut_one_location(),
        "sampling_models": _sampling_models(),
        "experiments": _experiments(),
        "measured_batch": _measured_batch(),
    }
    flat = {f"{name}/{key}": value for name, cases in sections.items() for key, value in cases.items()}
    return json.loads(
        json.dumps(
            flat, default=lambda value: value.item() if isinstance(value, np.generic) else str(value)
        )
    )


def _fixture_text(golden: dict) -> str:
    """One case per line, so a moved output shows as a one-line diff."""
    lines = [f"{json.dumps(key)}: {json.dumps(golden[key], sort_keys=True)}" for key in sorted(golden)]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _mismatches(expected, actual, path: str = "") -> list[str]:
    """Paths where ``actual`` departs from ``expected`` (floats to FLOAT_TOLERANCE)."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        return [m for key in expected for m in _mismatches(expected[key], actual[key], f"{path}/{key}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        return [m for i, (e, a) in enumerate(zip(expected, actual)) for m in _mismatches(e, a, f"{path}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, (int, float)) and not isinstance(actual, bool):
        if math.isnan(expected) and math.isnan(actual):
            return []
        if abs(expected - actual) <= FLOAT_TOLERANCE * max(1.0, abs(expected)):
            return []
        return [f"{path}: {actual!r} != {expected!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{path}: {actual!r} != {expected!r}"]
    return []


def test_single_cut_outputs_match_golden():
    expected = json.loads(FIXTURE.read_text())
    mismatches = _mismatches(expected, compute_golden())
    assert not mismatches, f"{len(mismatches)} golden mismatches, first: {mismatches[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit(f"usage: {sys.argv[0]} --write")
    FIXTURE.write_text(_fixture_text(compute_golden()))
    print(f"wrote {FIXTURE}")
