"""Unit tests for virtual entanglement distillation and the Appendix-B wire cut."""

import numpy as np
import pytest

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.cutting.cutter import CutLocation
from repro.cutting.executor import build_sampling_model
from repro.cutting.nme_cut import NMEWireCut
from repro.cutting.overhead import nme_overhead, optimal_overhead
from tests.reference.virtual_distillation import DistilledTeleportWireCut, virtual_bell_decomposition
from repro.quantum.bell import bell_state, overlap_from_k, phi_k_density
from repro.quantum.random import random_statevector


class TestVirtualBellDecomposition:
    @pytest.mark.parametrize("k", [0.0, 0.2, 0.5, 0.8, 1.0, 2.0])
    def test_reconstructs_maximally_entangled_state(self, k):
        decomposition = virtual_bell_decomposition(k)
        phi = bell_state("I").to_density_matrix().data
        assert np.allclose(decomposition.apply_exact(phi_k_density(k).data), phi, atol=1e-9)

    @pytest.mark.parametrize("k", [0.0, 0.4, 1.0])
    def test_attains_eq17_overhead(self, k):
        decomposition = virtual_bell_decomposition(k)
        assert decomposition.kappa == pytest.approx(2.0 / overlap_from_k(k) - 1.0)
        assert decomposition.kappa == pytest.approx(optimal_overhead(overlap_from_k(k)))

    def test_terms_are_trace_preserving(self):
        for term in virtual_bell_decomposition(0.5).terms:
            assert term.channel.is_trace_preserving()

    def test_maximal_entanglement_has_two_terms(self):
        assert len(virtual_bell_decomposition(1.0)) == 2

    def test_coefficients_sum_to_one(self):
        assert virtual_bell_decomposition(0.3).coefficient_sum() == pytest.approx(1.0)

    def test_negative_k(self):
        with pytest.raises(CuttingError):
            virtual_bell_decomposition(-0.1)


class TestDistilledTeleportWireCut:
    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_valid_identity_qpd(self, k):
        DistilledTeleportWireCut(k).verify()

    @pytest.mark.parametrize("k", [0.0, 0.5, 1.0])
    def test_same_kappa_as_nme_cut(self, k):
        assert DistilledTeleportWireCut(k).kappa == pytest.approx(NMEWireCut(k).kappa)
        assert DistilledTeleportWireCut(k).kappa == pytest.approx(nme_overhead(k))

    def test_circuit_level_exactness(self):
        state = random_statevector(1, seed=2)
        circuit = QuantumCircuit(1, 0)
        circuit.initialize(state.data, 0)
        model = build_sampling_model(
            circuit, CutLocation(0, 1), DistilledTeleportWireCut(0.6), "Z"
        )
        assert model.exact_cut_value() == pytest.approx(model.exact_value, abs=1e-9)

    def test_matches_nme_cut_term_distributions(self):
        # The two formulations sample identical per-term outcome distributions.
        state = random_statevector(1, seed=5)
        circuit = QuantumCircuit(1, 0)
        circuit.initialize(state.data, 0)
        location = CutLocation(0, 1)
        model_nme = build_sampling_model(circuit, location, NMEWireCut(0.7), "Z")
        model_distilled = build_sampling_model(circuit, location, DistilledTeleportWireCut(0.7), "Z")
        for a, b in zip(model_nme.terms, model_distilled.terms):
            assert a.coefficient == pytest.approx(b.coefficient)
            assert a.probability_plus == pytest.approx(b.probability_plus, abs=1e-9)

    def test_negative_k(self):
        with pytest.raises(CuttingError):
            DistilledTeleportWireCut(-0.2)
