"""The headline invariant: distributed rounds are bitwise identical to in-process.

Every test here compares a distributed adaptive run against the in-process
reference for the *same seed* and asserts exact float equality — across
worker counts, steal policies, pool modes and fleet layouts.  The invariant
is what lets ``execution="distributed"`` share content-addressed run
artifacts with in-process twins.
"""

import numpy as np
import pytest

from repro.circuits.backends import DistributionCache, VectorizedBackend, resolve_backend
from repro.devices import DeviceFleet, NoiseModel, VirtualDevice
from repro.distributed import DistributedRoundExecutor, WorkStealingScheduler
from repro.exceptions import DecompositionError, DistributedError
from repro.qpd.adaptive import AdaptiveConfig, TermStatistics, run_adaptive_rounds
from repro.cutting.multi_wire import BackendRoundExecutor
from repro.telemetry.metrics import REGISTRY

from utils.workloads import ghz_cut_workload

pytestmark = pytest.mark.xdist_group("forkheavy")

SEED = 20240731
CONFIG = AdaptiveConfig(target_error=0.05, max_shots=4000, max_rounds=4)


@pytest.fixture(scope="module")
def workload():
    return ghz_cut_workload(num_qubits=3, overlap=0.8)


@pytest.fixture(scope="module")
def reference(workload):
    """The in-process adaptive run every distributed variant must reproduce."""
    executor = BackendRoundExecutor(
        resolve_backend("vectorized"),
        workload.measured_circuits,
        workload.selected_clbits,
    )
    return run_adaptive_rounds(
        workload.coefficients, executor, CONFIG, seed=SEED, labels=workload.labels
    )


def assert_bitwise_equal(result, reference):
    assert result.estimate.value == reference.estimate.value
    assert result.estimate.standard_error == reference.estimate.standard_error
    assert result.total_shots == reference.total_shots
    assert [r.to_payload() for r in result.rounds] == [
        r.to_payload() for r in reference.rounds
    ]


def distributed_run(workload, **options):
    options.setdefault("backend", "vectorized")
    executor = DistributedRoundExecutor(
        workload.measured_circuits, workload.selected_clbits, **options
    )
    with executor:
        return (
            run_adaptive_rounds(
                workload.coefficients,
                executor,
                CONFIG,
                seed=SEED,
                labels=workload.labels,
                execution="distributed",
            ),
            executor,
        )


class TestBitwiseIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_identical_across_worker_counts(self, workload, reference, workers):
        result, _ = distributed_run(workload, workers=workers, mode="inline")
        assert_bitwise_equal(result, reference)

    @pytest.mark.parametrize("steal", ["max-backlog", "round-robin", "random", "none"])
    def test_identical_across_steal_policies(self, workload, reference, steal):
        result, _ = distributed_run(
            workload, workers=3, mode="inline", steal=steal, steal_seed=5
        )
        assert_bitwise_equal(result, reference)

    def test_identical_with_real_worker_processes(self, workload, reference):
        result, executor = distributed_run(workload, workers=2, mode="process")
        assert_bitwise_equal(result, reference)
        assert executor.pool.units_completed > 0

    def test_identical_with_simulated_latency_skew(self, workload, reference):
        # A slow device forces steals; the statistics must not notice.
        result, executor = distributed_run(
            workload,
            workers=3,
            mode="inline",
            latencies={"worker-0": 0.001},
        )
        assert_bitwise_equal(result, reference)

    def test_identical_on_a_device_fleet(self, workload):
        def fleet():
            return DeviceFleet(
                [
                    VirtualDevice("clean", capacity=2.0),
                    VirtualDevice("noisy", noise=NoiseModel(readout_p10=0.02)),
                ],
                split="capacity",
            )

        in_process = run_adaptive_rounds(
            workload.coefficients,
            BackendRoundExecutor(
                fleet(), workload.measured_circuits, workload.selected_clbits
            ),
            CONFIG,
            seed=SEED,
            labels=workload.labels,
        )
        result, executor = distributed_run(
            workload, backend=fleet(), workers=2, mode="inline"
        )
        assert_bitwise_equal(result, in_process)
        # The fleet seeds the device layout and the split weights.
        assert executor.scheduler.devices == ("clean", "noisy")
        assert np.allclose(executor.scheduler.weights, [2 / 3, 1 / 3])


class TestWorkerCounters:
    def test_process_workers_report_counters_to_the_coordinator(self, workload, reference):
        """Gate and cache counters incremented in worker processes reach this registry."""
        names = (
            "repro_kernel_gate_applications_total",
            "repro_distribution_cache_hits_total",
            "repro_distribution_cache_misses_total",
        )

        def totals():
            return {name: sum(v for _, v in REGISTRY.get(name).samples()) for name in names}

        before = totals()
        # A fresh cache makes the workers simulate instead of inheriting the
        # reference run's cached distributions through the fork.
        result, _ = distributed_run(
            workload,
            backend=VectorizedBackend(cache=DistributionCache()),
            workers=2,
            mode="process",
        )
        after = totals()
        assert_bitwise_equal(result, reference)
        gate_applications, hits, misses = (after[name] - before[name] for name in names)
        assert gate_applications > 0
        assert hits + misses > 0


class TestExecutorLedger:
    def test_term_statistics_match_round_records(self, workload, reference):
        """The coordinator's Chan-merged ledger equals round-by-round Welford."""
        result, executor = distributed_run(workload, workers=3, mode="inline")
        expected = [TermStatistics() for _ in workload.measured_circuits]
        for record in result.rounds:
            for term, (count, mean) in enumerate(
                zip(record.shots_per_term, record.means)
            ):
                if count > 0 and workload.selected_clbits[term]:
                    expected[term].merge_round(mean, count)
        for ledger, want in zip(executor.term_statistics, expected):
            assert ledger.shots == want.shots
            assert ledger.mean == want.mean
            assert ledger.m2 == want.m2

    def test_steals_happen_under_skewed_weights(self, workload):
        # Weights this skewed home every unit on "slow", so the idle "fast"
        # worker can only make progress by stealing.
        scheduler = WorkStealingScheduler(
            ["slow", "fast"], weights=[1000.0, 1.0], steal="max-backlog"
        )
        _, executor = distributed_run(
            workload, workers=2, mode="inline", scheduler=scheduler
        )
        assert executor.steals > 0
        assert executor.rounds_executed >= 1

    def test_static_assignment_never_steals(self, workload):
        _, executor = distributed_run(workload, workers=2, mode="inline", steal="none")
        assert executor.steals == 0


class TestValidation:
    def test_unknown_execution_mode_is_rejected(self, workload):
        executor = BackendRoundExecutor(
            resolve_backend("serial"),
            workload.measured_circuits,
            workload.selected_clbits,
        )
        with pytest.raises(DecompositionError, match="unknown execution"):
            run_adaptive_rounds(
                workload.coefficients, executor, CONFIG, seed=1, execution="remote"
            )

    def test_workers_require_distributed_execution(self, workload):
        executor = BackendRoundExecutor(
            resolve_backend("serial"),
            workload.measured_circuits,
            workload.selected_clbits,
        )
        with pytest.raises(DecompositionError, match="workers"):
            run_adaptive_rounds(workload.coefficients, executor, CONFIG, seed=1, workers=2)

    def test_distributed_execution_needs_a_distribute_hook(self, workload):
        def bare_executor(index, shots, seed):
            return [0.0] * len(workload.coefficients)

        with pytest.raises(DecompositionError, match="distribute"):
            run_adaptive_rounds(
                workload.coefficients,
                bare_executor,
                CONFIG,
                seed=1,
                execution="distributed",
            )

    def test_distribute_hook_rejects_mismatched_worker_count(self, workload):
        executor = DistributedRoundExecutor(
            workload.measured_circuits,
            workload.selected_clbits,
            backend="serial",
            workers=2,
            mode="inline",
        )
        assert executor.distribute() is executor
        assert executor.distribute(2) is executor
        with pytest.raises(DistributedError, match="already distributed"):
            executor.distribute(3)

    def test_executor_rejects_wrong_allocation_length(self, workload):
        executor = DistributedRoundExecutor(
            workload.measured_circuits,
            workload.selected_clbits,
            backend="serial",
            workers=1,
            mode="inline",
        )
        with pytest.raises(DistributedError, match="allocations"):
            executor(0, [10], np.random.SeedSequence(0))

    def test_backend_hook_distribute_builds_distributed_executor(self, workload):
        hook = BackendRoundExecutor(
            resolve_backend("serial"),
            workload.measured_circuits,
            workload.selected_clbits,
        )
        distributed = hook.distribute(workers=3, mode="inline")
        try:
            assert isinstance(distributed, DistributedRoundExecutor)
            assert distributed.num_workers == 3
        finally:
            distributed.close()
