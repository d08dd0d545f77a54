"""Unit tests for Pauli strings and the Pauli basis."""

import numpy as np
import pytest

from repro.circuits.counts import Counts
from repro.exceptions import DimensionError, GateError
from repro.quantum.gates import X, Y, Z
from repro.quantum.paulis import (
    PauliString,
    pauli_basis,
    pauli_decompose,
    pauli_reconstruct,
)


class TestPauliString:
    def test_matrix_single(self):
        assert np.allclose(PauliString("X").to_matrix(), X)

    def test_matrix_two_qubit(self):
        assert np.allclose(PauliString("XZ").to_matrix(), np.kron(X, Z))

    def test_phase(self):
        assert np.allclose(PauliString("Z", phase=-1).to_matrix(), -Z)

    def test_invalid_label(self):
        with pytest.raises(GateError):
            PauliString("XA")

    def test_empty_label(self):
        with pytest.raises(GateError):
            PauliString("")

    def test_weight(self):
        assert PauliString("IXIZ").weight == 2

    def test_num_qubits(self):
        assert PauliString("IXY").num_qubits == 3

    def test_compose_single(self):
        result = PauliString("X").compose(PauliString("Y"))
        assert result.labels == "Z"
        assert result.phase == 1j

    def test_compose_multi(self):
        result = PauliString("XI").compose(PauliString("XZ"))
        assert result.labels == "IZ"
        assert result.phase == 1

    def test_compose_matches_matrix_product(self):
        a, b = PauliString("XY"), PauliString("ZZ")
        assert np.allclose(a.compose(b).to_matrix(), a.to_matrix() @ b.to_matrix())

    def test_compose_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            PauliString("X").compose(PauliString("XX"))

    def test_commutation(self):
        assert PauliString("XX").commutes_with(PauliString("ZZ"))
        assert not PauliString("XI").commutes_with(PauliString("ZI"))
        assert PauliString("XI").commutes_with(PauliString("IZ"))

    def test_expectation_statevector(self):
        plus = np.array([1, 1]) / np.sqrt(2)
        assert PauliString("X").expectation(plus).real == pytest.approx(1.0)

    def test_expectation_density_matrix(self):
        rho = np.diag([1.0, 0.0])
        assert PauliString("Z").expectation(rho).real == pytest.approx(1.0)


class TestPauliBasis:
    def test_size(self):
        assert len(pauli_basis(1)) == 4
        assert len(pauli_basis(2)) == 16

    def test_contains_identity(self):
        assert np.allclose(pauli_basis(2)["II"], np.eye(4))

    def test_orthogonality(self):
        basis = pauli_basis(1)
        for label_a, matrix_a in basis.items():
            for label_b, matrix_b in basis.items():
                overlap = np.trace(matrix_a @ matrix_b) / 2
                assert overlap == pytest.approx(1.0 if label_a == label_b else 0.0)

    def test_invalid_num_qubits(self):
        with pytest.raises(DimensionError):
            pauli_basis(0)


class TestPauliDecompose:
    def test_roundtrip_random_hermitian(self):
        rng = np.random.default_rng(0)
        matrix = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        matrix = matrix + matrix.conj().T
        coefficients = pauli_decompose(matrix)
        assert np.allclose(pauli_reconstruct(coefficients, 2), matrix)

    def test_decompose_z(self):
        coefficients = pauli_decompose(Z)
        assert set(coefficients) == {"Z"}
        assert coefficients["Z"] == pytest.approx(1.0)

    def test_decompose_projector(self):
        coefficients = pauli_decompose(np.diag([1.0, 0.0]))
        assert coefficients["I"] == pytest.approx(0.5)
        assert coefficients["Z"] == pytest.approx(0.5)

    def test_decompose_rejects_non_square(self):
        with pytest.raises(DimensionError):
            pauli_decompose(np.zeros((2, 3)))

    def test_reconstruct_rejects_wrong_width(self):
        with pytest.raises(DimensionError):
            pauli_reconstruct({"XX": 1.0}, 1)


class TestPauliExpectationFromCounts:
    """A Z-type Pauli expectation read off computational-basis counts."""

    def test_all_zero_counts(self):
        assert Counts({"00": 100}).expectation_z([0, 1]) == pytest.approx(1.0)

    def test_parity(self):
        counts = Counts({"01": 50, "10": 50})
        assert counts.expectation_z([0, 1]) == pytest.approx(-1.0)

    def test_identity_marginalises(self):
        # ZI: the identity on qubit 1 leaves its bit out of the parity.
        counts = Counts({"01": 30, "00": 70})
        assert counts.expectation_z([0]) == pytest.approx(1.0)

    def test_qubit_selection(self):
        counts = Counts({"01": 40, "00": 60})
        assert counts.expectation_z([1]) == pytest.approx(0.2)

    def test_rejects_empty_counts(self):
        with pytest.raises(ValueError):
            Counts({}).expectation_z([0])
