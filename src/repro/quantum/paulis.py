"""Pauli strings and the Pauli operator basis.

Pauli observables are the measurement primitives of the wire-cutting
experiments (the paper measures ``⟨Z⟩`` of the transmitted qubit); this module
provides a small Pauli-string algebra sufficient for building observables on
multi-qubit registers, expanding operators in the Pauli basis, and computing
expectation values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from repro.exceptions import DimensionError, GateError
from repro.quantum.gates import PAULI_MATRICES
from repro.utils.linalg import kron_all, num_qubits_from_dim

__all__ = [
    "PauliString",
    "pauli_matrix",
    "pauli_basis",
    "pauli_decompose",
    "pauli_reconstruct",
]

_SINGLE_PAULI_PRODUCT: dict[tuple[str, str], tuple[complex, str]] = {
    ("I", "I"): (1, "I"),
    ("I", "X"): (1, "X"),
    ("I", "Y"): (1, "Y"),
    ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"),
    ("Y", "I"): (1, "Y"),
    ("Z", "I"): (1, "Z"),
    ("X", "X"): (1, "I"),
    ("Y", "Y"): (1, "I"),
    ("Z", "Z"): (1, "I"),
    ("X", "Y"): (1j, "Z"),
    ("Y", "X"): (-1j, "Z"),
    ("Y", "Z"): (1j, "X"),
    ("Z", "Y"): (-1j, "X"),
    ("Z", "X"): (1j, "Y"),
    ("X", "Z"): (-1j, "Y"),
}


@dataclass(frozen=True)
class PauliString:
    """An n-qubit Pauli operator with a complex phase.

    Attributes
    ----------
    labels:
        A string over the alphabet ``IXYZ``; the first character acts on
        qubit 0 (the most significant tensor factor).
    phase:
        A complex scalar multiplying the tensor product of Pauli matrices.
    """

    labels: str
    phase: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        invalid = set(self.labels) - set("IXYZ")
        if invalid:
            raise GateError(f"invalid Pauli labels {sorted(invalid)} in {self.labels!r}")
        if not self.labels:
            raise GateError("a Pauli string must act on at least one qubit")

    @property
    def num_qubits(self) -> int:
        """Number of qubits the string acts on."""
        return len(self.labels)

    @property
    def weight(self) -> int:
        """Number of non-identity factors."""
        return sum(1 for label in self.labels if label != "I")

    def to_matrix(self) -> np.ndarray:
        """Return the dense ``2^n × 2^n`` matrix of the Pauli string (with phase)."""
        return self.phase * kron_all(PAULI_MATRICES[label] for label in self.labels)

    def compose(self, other: "PauliString") -> "PauliString":
        """Return the operator product ``self · other`` as a new Pauli string."""
        if self.num_qubits != other.num_qubits:
            raise DimensionError(
                f"cannot compose Pauli strings on {self.num_qubits} and "
                f"{other.num_qubits} qubits"
            )
        phase = self.phase * other.phase
        labels = []
        for a, b in zip(self.labels, other.labels):
            factor, label = _SINGLE_PAULI_PRODUCT[(a, b)]
            phase *= factor
            labels.append(label)
        return PauliString("".join(labels), phase)

    def commutes_with(self, other: "PauliString") -> bool:
        """Return True if the two Pauli strings commute."""
        anticommuting = 0
        for a, b in zip(self.labels, other.labels):
            if a != "I" and b != "I" and a != b:
                anticommuting += 1
        return anticommuting % 2 == 0

    def expectation(self, state: np.ndarray) -> complex:
        """Return ``<ψ|P|ψ>`` or ``Tr[P ρ]`` depending on the shape of ``state``."""
        matrix = self.to_matrix()
        state = np.asarray(state, dtype=complex)
        if state.ndim == 1:
            return complex(np.vdot(state, matrix @ state))
        return complex(np.trace(matrix @ state))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        if self.phase == 1:
            return self.labels
        return f"({self.phase})·{self.labels}"


def pauli_matrix(labels: str) -> np.ndarray:
    """Return the matrix of the Pauli string ``labels`` with unit phase."""
    return PauliString(labels).to_matrix()


def pauli_basis(num_qubits: int) -> dict[str, np.ndarray]:
    """Return the full ``4^n``-element Pauli basis as a label → matrix mapping."""
    if num_qubits < 1:
        raise DimensionError(f"num_qubits must be >= 1, got {num_qubits}")
    basis: dict[str, np.ndarray] = {}
    for labels in product("IXYZ", repeat=num_qubits):
        label = "".join(labels)
        basis[label] = kron_all(PAULI_MATRICES[c] for c in labels)
    return basis


def pauli_decompose(matrix: np.ndarray, atol: float = 1e-12) -> dict[str, complex]:
    """Expand ``matrix`` in the Pauli basis.

    Returns a mapping from Pauli labels to coefficients ``c_P`` such that
    ``matrix = Σ_P c_P · P``.  Coefficients with magnitude below ``atol`` are
    omitted.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DimensionError(f"matrix must be square, got shape {matrix.shape}")
    num_qubits = num_qubits_from_dim(matrix.shape[0])
    dim = matrix.shape[0]
    coefficients: dict[str, complex] = {}
    for label, basis_op in pauli_basis(num_qubits).items():
        coefficient = complex(np.trace(basis_op @ matrix)) / dim
        if abs(coefficient) > atol:
            coefficients[label] = coefficient
    return coefficients


def pauli_reconstruct(coefficients: dict[str, complex], num_qubits: int) -> np.ndarray:
    """Inverse of :func:`pauli_decompose`: rebuild the matrix from coefficients."""
    dim = 2**num_qubits
    matrix = np.zeros((dim, dim), dtype=complex)
    for label, coefficient in coefficients.items():
        if len(label) != num_qubits:
            raise DimensionError(
                f"label {label!r} has {len(label)} qubits, expected {num_qubits}"
            )
        matrix += coefficient * pauli_matrix(label)
    return matrix

