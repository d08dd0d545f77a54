"""Fleet ↔ pipeline integration and the noisy-fleet experiments."""

import pytest

from repro.circuits import resolve_backend
from repro.exceptions import CuttingError
from repro.devices import DeviceFleet, NoiseModel, VirtualDevice, fleet_from_spec, example_fleet_spec
from repro.experiments import (
    fleet_bias_vs_bound,
    ghz_circuit,
    noisy_fleet_robustness,
)
from repro.pipeline import CutPipeline


class TestResolveBackendSeam:
    def test_fleet_passes_through_resolve_backend(self):
        fleet = fleet_from_spec(example_fleet_spec())
        assert resolve_backend(fleet) is fleet


class TestPipelineOnFleet:
    def test_execution_records_fleet_backend_name(self):
        fleet = fleet_from_spec(example_fleet_spec())
        pipeline = CutPipeline(max_fragment_width=2, backend=fleet)
        result = pipeline.run(ghz_circuit(4), "ZZZZ", shots=1500, seed=3)
        assert result.execution.backend_name.startswith("fleet(3 devices")
        assert result.total_shots == 1500

    def test_ideal_fleet_exact_reconstruction_is_unbiased(self):
        fleet = DeviceFleet([VirtualDevice("a"), VirtualDevice("b", capacity=3.0)])
        pipeline = CutPipeline(max_fragment_width=2, backend=fleet)
        plan = pipeline.plan(ghz_circuit(4))
        decomposition = pipeline.decompose(plan)
        value = pipeline.exact_reconstruction(decomposition, "ZZZZ")
        assert value == pytest.approx(1.0, abs=1e-9)

    def test_noisy_fleet_biases_exact_reconstruction(self):
        fleet = DeviceFleet(
            [VirtualDevice("noisy", noise=NoiseModel(depolarizing_2q=0.2))]
        )
        pipeline = CutPipeline(max_fragment_width=2, backend=fleet)
        plan = pipeline.plan(ghz_circuit(4))
        decomposition = pipeline.decompose(plan)
        value = pipeline.exact_reconstruction(decomposition, "ZZZZ")
        assert abs(value - 1.0) > 0.01


class TestNoisyFleetExperiments:
    def test_bias_vs_bound_holds_on_small_sweep(self):
        table = fleet_bias_vs_bound(noise_levels=(0.0, 0.1), num_states=3, num_devices=2)
        assert table.num_rows == 2
        assert all(table.columns["within_bound"])
        assert table.columns["measured_bias"][1] > table.columns["measured_bias"][0]

    def test_bias_sweep_validates_noise_levels_at_boundary(self):
        with pytest.raises(CuttingError, match="noise_levels entry"):
            fleet_bias_vs_bound(noise_levels=(0.1, 2.0))

    def test_robustness_sweep_shape_and_zero_scale_sanity(self):
        table = noisy_fleet_robustness(
            noise_scales=(0.0, 0.1), split_policies=("uniform",), shots=800
        )
        assert table.num_rows == 4  # 2 workloads x 1 policy x 2 scales
        rows = [table.row(i) for i in range(table.num_rows)]
        for row in rows:
            assert row["error"] is not None
        ghz_rows = [row for row in rows if row["workload"] == "ghz"]
        assert ghz_rows[0]["noise_scale"] == 0.0
        assert ghz_rows[0]["exact"] == pytest.approx(1.0)

    def test_robustness_sweep_validates_scales_at_boundary(self):
        with pytest.raises(CuttingError, match="noise_scales entry"):
            noisy_fleet_robustness(noise_scales=(-0.5,))
