"""``chain_3cut_instances``: a 3-cut Harada chain served by the fragment-instance table."""

from __future__ import annotations

import inspect

from checks import (
    EXACT_TOLERANCE,
    HARADA_KAPPA,
    check_close,
    check_kappa,
    hoeffding_radius,
    per_estimate_delta,
    statevector_expectation,
)
from common import TimedBackend, maybe_span, mean, median
from inputs import (
    CHAIN_OBSERVABLES,
    CHAIN_POSITIONS,
    WARM_UP,
    build_circuit,
    chain_ops,
    program_seed,
    stream,
)
from workload import LayerProbe, Workload, run_stages, stage_metrics

NUM_QUBITS = 5
SHOTS = 16384


class InstancePathAdapter:
    """Selects the instance path through arguments the program may later drop.

    Today the instance table needs ``CutPipeline(dedup="auto")`` and
    ``exact_reconstruction(method="contraction")``.  Both arguments are
    passed only while the program's signatures accept them, so the same
    inputs keep running once instances are the only path.
    """

    def __init__(self, pipeline_class):
        accepts = inspect.signature(pipeline_class).parameters
        self.pipeline_options = {"dedup": "auto"} if "dedup" in accepts else {}
        exact = inspect.signature(pipeline_class.exact_reconstruction).parameters
        self.exact_options = {"method": "contraction"} if "method" in exact else {}

    def pipeline(self, pipeline_class, backend):
        """Build a pipeline on ``backend`` that uses the instance table."""
        return pipeline_class(backend=backend, **self.pipeline_options)

    def exact(self, pipeline, decomposition, observable) -> float:
        """The exact (infinite-shot) chain reconstruction."""
        return pipeline.exact_reconstruction(decomposition, observable, **self.exact_options)


class Chain3Cut(Workload):
    """One estimate: four observables of a fresh 5-qubit chain, each sampled and contracted.

    The four observables share fragment instances, so all but the first hit
    the distribution cache.  Their costs differ, which is why they form one
    estimate: a median over single observables would fall between their
    costs and jump from run to run.
    """

    name = "chain_3cut_instances"
    reports_p90 = True

    def setup(self) -> None:
        from repro.circuits.backends import DistributionCache, VectorizedBackend
        from repro.pipeline import CutPipeline

        backend = VectorizedBackend(cache=DistributionCache())
        self.wrapper = TimedBackend(backend)
        self.adapter = InstancePathAdapter(CutPipeline)
        self.pipelines = {
            False: self.adapter.pipeline(CutPipeline, backend),
            True: self.adapter.pipeline(CutPipeline, self.wrapper),
        }
        self.probe = LayerProbe(self.wrapper)
        self.circuits: list[list] = []
        self.records: list[dict] = []
        warm_ops = chain_ops(stream(self.seed, WARM_UP))
        self._estimate_one(self.pipelines[False], warm_ops, CHAIN_OBSERVABLES[0], 0, False, 0)

    def _estimate_one(self, pipeline, ops, observable, seed, traced, trace_id):
        circuit = build_circuit(NUM_QUBITS, ops, "chain")
        spans = self.spans if traced else None
        plan, decomposition, execution, result = run_stages(
            pipeline,
            circuit,
            observable,
            SHOTS,
            seed,
            spans,
            trace_id,
            plan_args={"positions": CHAIN_POSITIONS},
        )
        with maybe_span(spans, "qpd.contract", trace_id):
            exact = self.adapter.exact(pipeline, decomposition, observable)
        return plan, decomposition, execution, result, exact

    def run_round(self, index: int, traced: bool) -> None:
        ops = chain_ops(stream(self.seed, index))
        pipeline = self.pipelines[traced]
        seeds = [program_seed(self.seed, index, number) for number in range(len(CHAIN_OBSERVABLES))]

        outcomes = self.estimate(
            traced,
            index,
            lambda: [
                self._estimate_one(pipeline, ops, observable, seed, traced, index)
                for observable, seed in zip(CHAIN_OBSERVABLES, seeds)
            ],
        )
        if outcomes is None:
            return
        self.circuits.append(ops)
        for observable, (plan, decomposition, execution, result, exact) in zip(
            CHAIN_OBSERVABLES, outcomes
        ):
            stats = execution.instance_stats
            self.records.append(
                {
                    "circuit": len(self.circuits) - 1,
                    "observable": observable,
                    "num_cuts": plan.num_cuts,
                    "kappa": decomposition.kappa,
                    "coefficients": [t.coefficient for t in execution.term_estimates],
                    "shots": [t.shots for t in execution.term_estimates],
                    "value": result.value,
                    "exact": exact,
                    "total_shots": execution.total_shots,
                    "traced": traced,
                    "instances": 0 if stats is None else stats.num_instances,
                }
            )

    def check(self) -> None:
        delta = per_estimate_delta(len(self.records))
        uncut_values: dict[tuple[int, str], float] = {}
        for number, record in enumerate(self.records):
            what = f"{self.name} estimate {number} ({record['observable']})"
            key = (record["circuit"], record["observable"])
            if key not in uncut_values:
                uncut_values[key] = statevector_expectation(
                    NUM_QUBITS, self.circuits[record["circuit"]], record["observable"]
                )
            uncut = uncut_values[key]
            self.expect(check_kappa, record["kappa"], [HARADA_KAPPA] * len(CHAIN_POSITIONS), what)
            if record["num_cuts"] != len(CHAIN_POSITIONS):
                self.errors.append(f"{what}: {record['num_cuts']} cuts, not {len(CHAIN_POSITIONS)}")
            self.expect(
                check_close, record["exact"], uncut, EXACT_TOLERANCE, f"{what}: exact contraction"
            )
            radius = hoeffding_radius(record["coefficients"], record["shots"], delta)
            self.expect(check_close, record["value"], uncut, radius, f"{what}: sampled estimate")

    def shots_per_estimate(self) -> float:
        return len(CHAIN_OBSERVABLES) * mean(record["total_shots"] for record in self.records)

    def layer_metrics(self) -> dict:
        metrics = stage_metrics(self.spans)
        metrics.update(self.probe.circuits_metrics())
        metrics["qpd.contract_ms"] = median(self.spans.per_trace_ms("qpd.contract"))
        metrics["cutting.unique_instances"] = len(CHAIN_OBSERVABLES) * mean(
            record["instances"] for record in self.records if record["traced"]
        )
        return metrics
