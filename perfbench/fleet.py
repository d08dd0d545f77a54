"""``adaptive_fleet``: adaptive 1-cut NME on the three-device noisy fleet, over 2 workers.

The coordinator and its forked workers share one CPU (see
:func:`common.pin_to_one_cpu`).
"""

from __future__ import annotations

from checks import (
    anytime_radius,
    check_close,
    check_identical,
    check_kappa,
    nme_kappa,
    noise_radius,
    parity_mean,
    per_estimate_delta,
    statevector_expectation,
)
from common import TimedBackend, children_peak_rss_mb, mean, pin_to_one_cpu
from inputs import WARM_UP, balanced_ghz_ops, build_circuit, program_seed, stream
from workload import LayerProbe, Workload, run_stages, stage_metrics

NUM_QUBITS = 3
OBSERVABLE = "ZZZ"
OVERLAP = 0.75
TARGET_ERROR = 0.02
MAX_SHOTS = 20000
WORKERS = 2


def _adaptive(execution: str) -> dict:
    options = {"mode": "adaptive", "target_error": TARGET_ERROR, "execution": execution}
    if execution == "distributed":
        options["workers"] = WORKERS
    return options


def _execution_bits(execution, result) -> dict:
    """The parts of an estimate that distributed and in-process runs must share bitwise."""
    return {
        "value": result.value,
        "standard_error": result.standard_error,
        "means": [t.mean for t in execution.term_estimates],
        "shots": [t.shots for t in execution.term_estimates],
        "rounds": [r.to_payload() for r in execution.rounds],
        "converged": execution.converged,
    }


class AdaptiveFleet(Workload):
    """Fresh GHZ(3)-shaped circuit per estimate; rounds stop at a standard error of 0.02."""

    name = "adaptive_fleet"

    def setup(self) -> None:
        from repro.circuits.backends import DistributionCache, VectorizedBackend
        from repro.devices import example_fleet_spec, fleet_from_spec
        from repro.pipeline import CutPipeline

        pin_to_one_cpu()  # the forked workers inherit the affinity
        self.spec = example_fleet_spec()
        self.fleet = fleet_from_spec(
            self.spec, inner=VectorizedBackend(cache=DistributionCache()), cache=DistributionCache()
        )
        self.wrapper = TimedBackend(self.fleet)
        self.pipelines = {
            traced: CutPipeline(
                max_fragment_width=2,
                entanglement_overlap=OVERLAP,
                backend=self.wrapper if traced else self.fleet,
            )
            for traced in (False, True)
        }
        self.probe = LayerProbe(self.wrapper)
        self.records: list[dict] = []
        warm_ops = balanced_ghz_ops(stream(self.seed, WARM_UP), NUM_QUBITS)
        warm = build_circuit(NUM_QUBITS, warm_ops, "warm")
        self.pipelines[False].run(
            warm, OBSERVABLE, MAX_SHOTS, seed=0, compute_exact=False, **_adaptive("distributed")
        )

    def run_round(self, index: int, traced: bool) -> None:
        ops = balanced_ghz_ops(stream(self.seed, index), NUM_QUBITS)
        circuit = build_circuit(NUM_QUBITS, ops, f"fleet_{index}")
        seed = program_seed(self.seed, index)
        pipeline = self.pipelines[traced]
        spans = self.spans if traced else None
        options = _adaptive("distributed")
        outcome = self.estimate(
            traced,
            index,
            lambda: run_stages(
                pipeline, circuit, OBSERVABLE, MAX_SHOTS, seed, spans, index, execute_args=options
            ),
        )
        if outcome is not None:
            plan, decomposition, execution, result = outcome
            self.records.append(
                {
                    "ops": ops,
                    "seed": seed,
                    "num_cuts": plan.num_cuts,
                    "decomposition": decomposition,
                    "execution": execution,
                    "bits": _execution_bits(execution, result),
                    "traced": traced,
                }
            )

    def check(self) -> None:
        from repro.cutting import measured_multi_cut_circuit
        from repro.quantum.paulis import PauliString

        pauli = PauliString(OBSERVABLE)
        pipeline = self.pipelines[False]
        delta = per_estimate_delta(len(self.records))
        noise = {d["name"]: d.get("noise", {}) for d in self.spec["devices"]}
        for number, record in enumerate(self.records):
            what = f"{self.name} estimate {number}"
            if record["num_cuts"] != 1:
                self.errors.append(f"{what}: planned {record['num_cuts']} cuts, not 1")
                continue
            decomposition, execution = record["decomposition"], record["execution"]
            self.expect(check_kappa, decomposition.kappa, [nme_kappa(OVERLAP)], what)

            # Distributed ≡ in-process for the same seed.
            rerun = pipeline.execute(
                decomposition, OBSERVABLE, MAX_SHOTS, seed=record["seed"], **_adaptive("inprocess")
            )
            reference = _execution_bits(rerun, pipeline.reconstruct(rerun, compute_exact=False))
            self.expect(
                check_identical, record["bits"], reference, f"{what}: distributed vs in-process"
            )

            # The fleet's own infinite-shot value for the shots each device received.
            fleet_value = 0.0
            noise_bound = 0.0
            coefficients, shots = [], []
            for term_index, (term, estimate) in enumerate(
                zip(decomposition.term_circuits, execution.term_estimates)
            ):
                coefficients.append(estimate.coefficient)
                shots.append(estimate.shots)
                measured, bits = measured_multi_cut_circuit(term, pauli)
                if not bits:
                    # Nothing is measured: the outcome is +1 on every device.
                    fleet_value += estimate.coefficient
                    continue
                term_value, served = self._fleet_term_value(
                    measured, bits, [r.shots_per_term[term_index] for r in execution.rounds]
                )
                fleet_value += estimate.coefficient * term_value
                arities = [len(i.qubits) for i in measured.instructions if i.kind == "gate"]
                noise_bound += abs(estimate.coefficient) * max(
                    noise_radius(arities, len(bits), noise[device]) for device in served
                )
            radius = anytime_radius(coefficients, shots, MAX_SHOTS, delta)
            value = record["bits"]["value"]
            self.expect(check_close, value, fleet_value, radius, f"{what}: estimate vs fleet value")
            uncut = statevector_expectation(NUM_QUBITS, record["ops"], OBSERVABLE)
            self.expect(
                check_close, fleet_value, uncut, noise_bound, f"{what}: fleet value vs uncut"
            )

    def _fleet_term_value(self, measured, bits, budgets) -> tuple[float, list[str]]:
        """One term's infinite-shot mean for the shots each device received.

        The devices' shares of every round come from the fleet's own
        apportionment; a term that got no shot takes the fleet's
        split-weighted mixture.  Returns the mean and the devices it weighs.
        """
        received: dict[str, int] = {}
        for shares in self.fleet.plan_round_shares(measured, budgets):
            for device, count in shares.items():
                received[device] = received.get(device, 0) + count
        total = sum(received.values())
        if total == 0:
            mixture = self.fleet.exact_distributions([measured])[0]
            eligible = [device.name for device in self.fleet.devices if device.accepts(measured)]
            return parity_mean(mixture, bits), eligible
        value = 0.0
        for index, device in enumerate(self.fleet.devices):
            if received.get(device.name, 0) > 0:
                distribution = self.fleet.backends[index].exact_distributions([measured])[0]
                value += received[device.name] / total * parity_mean(distribution, bits)
        return value, [name for name, count in received.items() if count > 0]

    def shots_per_estimate(self) -> float:
        return mean(record["execution"].total_shots for record in self.records)

    def layer_metrics(self) -> dict:
        metrics = stage_metrics(self.spans)
        metrics.update(self.probe.circuits_metrics())
        traced = [record["execution"] for record in self.records if record["traced"]]
        metrics["devices.fleet_ms"] = metrics["circuits.simulate_ms"]
        metrics["qpd.rounds_per_estimate"] = mean(len(e.rounds) for e in traced)
        metrics["distributed.units_per_estimate"] = self.probe.mean_of(
            "repro_distributed_units_completed_total"
        )
        metrics["distributed.steals_per_estimate"] = self.probe.mean_of(
            "repro_distributed_steals_total"
        )
        metrics["distributed.requeues"] = sum(
            s["repro_distributed_unit_requeues_total"] for s in self.probe.samples
        )
        metrics["distributed.worker_peak_rss_mb"] = children_peak_rss_mb()
        return metrics
