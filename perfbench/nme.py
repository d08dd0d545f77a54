"""``nme_ghz4_2cut``: the paper's NME wire cut, twice, on a fresh GHZ(4) per estimate."""

from __future__ import annotations

from checks import (
    EXACT_TOLERANCE,
    check_close,
    check_kappa,
    hoeffding_radius,
    nme_kappa,
    per_estimate_delta,
    statevector_expectation,
)
from common import TimedBackend, mean
from inputs import WARM_UP, NME_OVERLAPS, build_circuit, program_seed, random_ghz_ops, stream
from workload import LayerProbe, Workload, run_stages, stage_metrics

NUM_QUBITS = 4
OBSERVABLE = "ZZZZ"
SHOTS = 8000
#: Cuts the planner must choose at fragment width 2 (part of the workload's premise).
EXPECTED_CUTS = 2


class NmeGhz4(Workload):
    """Static 8000-shot NME estimates of ⟨ZZZZ⟩; the overlap cycles per estimate."""

    name = "nme_ghz4_2cut"

    def setup(self) -> None:
        from repro.circuits.backends import DistributionCache, VectorizedBackend
        from repro.pipeline import CutPipeline

        backend = VectorizedBackend(cache=DistributionCache())
        self.wrapper = TimedBackend(backend)
        self.pipelines = {
            traced: {
                overlap: CutPipeline(
                    max_fragment_width=2,
                    entanglement_overlap=overlap,
                    backend=self.wrapper if traced else backend,
                )
                for overlap in NME_OVERLAPS
            }
            for traced in (False, True)
        }
        self.probe = LayerProbe(self.wrapper)
        self.records: list[dict] = []
        # Warm-up through the same path on a narrower, one-cut circuit.
        warm_ops = random_ghz_ops(stream(self.seed, WARM_UP), 3)
        self.pipelines[False][NME_OVERLAPS[0]].run(
            build_circuit(3, warm_ops, "warm"), "ZZZ", 1000, seed=0, compute_exact=False
        )

    def run_round(self, index: int, traced: bool) -> None:
        overlap = NME_OVERLAPS[index % len(NME_OVERLAPS)]
        ops = random_ghz_ops(stream(self.seed, index), NUM_QUBITS)
        circuit = build_circuit(NUM_QUBITS, ops, f"nme_{index}")
        seed = program_seed(self.seed, index)
        pipeline = self.pipelines[traced][overlap]
        spans = self.spans if traced else None
        outcome = self.estimate(
            traced,
            index,
            lambda: run_stages(pipeline, circuit, OBSERVABLE, SHOTS, seed, spans, index),
        )
        if outcome is not None:
            plan, decomposition, execution, result = outcome
            self.records.append(
                {
                    "ops": ops,
                    "overlap": overlap,
                    "pipeline": pipeline,
                    "decomposition": decomposition,
                    "num_cuts": plan.num_cuts,
                    "coefficients": [t.coefficient for t in execution.term_estimates],
                    "shots": [t.shots for t in execution.term_estimates],
                    "value": result.value,
                    "total_shots": execution.total_shots,
                }
            )

    def check(self) -> None:
        delta = per_estimate_delta(len(self.records))
        for number, record in enumerate(self.records):
            what = f"{self.name} estimate {number} (f={record['overlap']})"
            if record["num_cuts"] != EXPECTED_CUTS:
                self.errors.append(
                    f"{what}: planned {record['num_cuts']} cuts, not {EXPECTED_CUTS}"
                )
                continue
            uncut = statevector_expectation(NUM_QUBITS, record["ops"], OBSERVABLE)
            self.expect(
                check_kappa,
                record["decomposition"].kappa,
                [nme_kappa(record["overlap"])] * EXPECTED_CUTS,
                what,
            )
            exact = record["pipeline"].exact_reconstruction(record["decomposition"], OBSERVABLE)
            self.expect(check_close, exact, uncut, EXACT_TOLERANCE, f"{what}: exact reconstruction")
            radius = hoeffding_radius(record["coefficients"], record["shots"], delta)
            self.expect(check_close, record["value"], uncut, radius, f"{what}: sampled estimate")

    def shots_per_estimate(self) -> float:
        return mean(record["total_shots"] for record in self.records)

    def layer_metrics(self) -> dict:
        metrics = stage_metrics(self.spans)
        metrics.update(self.probe.circuits_metrics())
        return metrics
