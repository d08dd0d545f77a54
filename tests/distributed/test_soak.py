"""Determinism soak: many shuffled distributed runs, one fingerprint.

Marked ``slow`` and ``nightly``: the nightly workflow runs it as a soak,
the PR matrix excludes it with ``-m "not nightly"``.
"""

import pytest

from repro.distributed import STEAL_POLICIES, DistributedRoundExecutor
from repro.qpd.adaptive import AdaptiveConfig, run_adaptive_rounds
from repro.utils.serialization import payload_fingerprint
from repro.cutting.multi_wire import BackendRoundExecutor
from repro.circuits.backends import resolve_backend

from utils.workloads import ghz_cut_workload

pytestmark = [pytest.mark.slow, pytest.mark.nightly, pytest.mark.xdist_group("forkheavy")]

SEED = 987654321
CONFIG = AdaptiveConfig(target_error=0.04, max_shots=3000, max_rounds=4)


def run_fingerprint(workload, result):
    return payload_fingerprint(
        {
            "value": result.estimate.value,
            "standard_error": result.estimate.standard_error,
            "total_shots": result.total_shots,
            "rounds": [record.to_payload() for record in result.rounds],
        }
    )


@pytest.mark.integration
def test_twenty_shuffled_distributed_runs_share_one_fingerprint():
    workload = ghz_cut_workload(num_qubits=3, overlap=0.8)
    in_process = run_adaptive_rounds(
        workload.coefficients,
        BackendRoundExecutor(
            resolve_backend("vectorized"),
            workload.measured_circuits,
            workload.selected_clbits,
        ),
        CONFIG,
        seed=SEED,
        labels=workload.labels,
    )
    expected = run_fingerprint(workload, in_process)

    # 20 scheduling variations: worker counts 1–5, all four steal policies,
    # shifting steal seeds, plus real worker processes on the last three.
    scenarios = [
        {
            "workers": 1 + (index % 5),
            "steal": STEAL_POLICIES[index % len(STEAL_POLICIES)],
            "steal_seed": index * 17 + 3,
            "mode": "process" if index >= 17 else "inline",
        }
        for index in range(20)
    ]
    fingerprints = set()
    for scenario in scenarios:
        executor = DistributedRoundExecutor(
            workload.measured_circuits,
            workload.selected_clbits,
            backend="vectorized",
            **scenario,
        )
        with executor:
            result = run_adaptive_rounds(
                workload.coefficients,
                executor,
                CONFIG,
                seed=SEED,
                labels=workload.labels,
                execution="distributed",
            )
        fingerprints.add(run_fingerprint(workload, result))

    assert fingerprints == {expected}, (
        f"distributed runs fragmented into {len(fingerprints)} fingerprints; "
        "scheduling leaked into the statistics"
    )
