"""Distance and similarity measures between quantum states."""

from __future__ import annotations

import numpy as np

from repro.exceptions import DimensionError
from repro.quantum.states import DensityMatrix, Statevector

__all__ = [
    "state_fidelity",
    "trace_distance",
    "purity",
    "von_neumann_entropy",
    "hilbert_schmidt_distance",
]


def _as_density(state: DensityMatrix | Statevector | np.ndarray) -> np.ndarray:
    if isinstance(state, Statevector):
        return state.to_density_matrix().data
    if isinstance(state, DensityMatrix):
        return state.data
    array = np.asarray(state, dtype=complex)
    return np.outer(array, array.conj()) if array.ndim == 1 else array


def state_fidelity(
    state_a: DensityMatrix | Statevector | np.ndarray,
    state_b: DensityMatrix | Statevector | np.ndarray,
) -> float:
    """Return the Uhlmann fidelity ``F(ρ, σ) = (Tr√(√ρ σ √ρ))²``.

    For two pure states this reduces to ``|⟨ψ|φ⟩|²``; the pure-pure and
    pure-mixed cases are special-cased to avoid matrix square roots.
    """
    pure_a = isinstance(state_a, Statevector) or (
        isinstance(state_a, np.ndarray) and np.asarray(state_a).ndim == 1
    )
    pure_b = isinstance(state_b, Statevector) or (
        isinstance(state_b, np.ndarray) and np.asarray(state_b).ndim == 1
    )
    if pure_a and pure_b:
        vec_a = state_a.data if isinstance(state_a, Statevector) else np.asarray(state_a, dtype=complex)
        vec_b = state_b.data if isinstance(state_b, Statevector) else np.asarray(state_b, dtype=complex)
        if vec_a.shape != vec_b.shape:
            raise DimensionError("states have different dimensions")
        return float(abs(np.vdot(vec_a, vec_b)) ** 2)
    if pure_a or pure_b:
        vector = state_a if pure_a else state_b
        other = state_b if pure_a else state_a
        vec = vector.data if isinstance(vector, Statevector) else np.asarray(vector, dtype=complex)
        rho = _as_density(other)
        if rho.shape[0] != vec.shape[0]:
            raise DimensionError("states have different dimensions")
        return float(np.real(np.vdot(vec, rho @ vec)))
    rho = _as_density(state_a)
    sigma = _as_density(state_b)
    if rho.shape != sigma.shape:
        raise DimensionError("states have different dimensions")
    if rho.shape == (2, 2):
        # Single-qubit closed form F = Tr[ρσ] + 2√(det ρ · det σ); exact and
        # numerically stable where the matrix square root loses precision near
        # rank deficiency.
        # The 2×2 determinants are expanded directly: LAPACK's det underflows
        # to NaN on subnormal off-diagonal entries.
        cross = float(np.real(np.trace(rho @ sigma)))
        det_rho = float(np.real(rho[0, 0] * rho[1, 1] - rho[0, 1] * rho[1, 0]))
        det_sigma = float(np.real(sigma[0, 0] * sigma[1, 1] - sigma[0, 1] * sigma[1, 0]))
        dets = det_rho * det_sigma
        if not np.isfinite(dets):
            dets = 0.0
        return float(cross + 2.0 * np.sqrt(max(dets, 0.0)))
    # √ρ from the eigendecomposition of the Hermitian ρ; √ρ σ √ρ is Hermitian
    # and positive semidefinite, so Tr√(·) is the sum of its eigenvalues'
    # square roots.  Round-off can leave eigenvalues slightly negative: clip.
    values, vectors = np.linalg.eigh(rho)
    sqrt_rho = (vectors * np.sqrt(np.clip(values, 0.0, None))) @ vectors.conj().T
    inner = np.linalg.eigvalsh(sqrt_rho @ sigma @ sqrt_rho)
    return float(np.sum(np.sqrt(np.clip(inner, 0.0, None))) ** 2)


def trace_distance(
    state_a: DensityMatrix | Statevector | np.ndarray,
    state_b: DensityMatrix | Statevector | np.ndarray,
) -> float:
    """Return the trace distance ``½‖ρ − σ‖₁``."""
    rho = _as_density(state_a)
    sigma = _as_density(state_b)
    if rho.shape != sigma.shape:
        raise DimensionError("states have different dimensions")
    eigenvalues = np.linalg.eigvalsh(rho - sigma)
    return float(0.5 * np.sum(np.abs(eigenvalues)))


def hilbert_schmidt_distance(
    state_a: DensityMatrix | Statevector | np.ndarray,
    state_b: DensityMatrix | Statevector | np.ndarray,
) -> float:
    """Return the Hilbert–Schmidt distance ``‖ρ − σ‖₂``."""
    rho = _as_density(state_a)
    sigma = _as_density(state_b)
    if rho.shape != sigma.shape:
        raise DimensionError("states have different dimensions")
    return float(np.linalg.norm(rho - sigma))


def purity(state: DensityMatrix | Statevector | np.ndarray) -> float:
    """Return ``Tr[ρ²]``."""
    rho = _as_density(state)
    return float(np.real(np.trace(rho @ rho)))


def von_neumann_entropy(state: DensityMatrix | Statevector | np.ndarray, base: float = 2.0) -> float:
    """Return the von Neumann entropy ``−Tr[ρ log ρ]`` (default base 2)."""
    rho = _as_density(state)
    eigenvalues = np.linalg.eigvalsh(rho)
    eigenvalues = eigenvalues[eigenvalues > 1e-15]
    return float(-np.sum(eigenvalues * np.log(eigenvalues)) / np.log(base))
