"""Output checks made apart from the program under test.

Every function here works on plain numbers and lists, never on objects of
the program, so a check cannot inherit the fault it is meant to catch.  A
failed check raises :class:`CheckError`; the workloads collect the messages
and report ``"correct": false``.

The checks and their sources:

* the uncut expectation value comes from :func:`statevector_expectation`, a
  small NumPy statevector simulator of the benchmark's own;
* κ of a decomposition must equal the product of the per-cut overheads of
  Theorem 1 of the paper, ``2/f − 1`` for the NME cut at overlap ``f`` and 3
  for the entanglement-free (Harada) cut (:func:`check_kappa`);
* an exact (infinite-shot) reconstruction must equal the uncut value to
  1e-9, which is the unbiasedness of the cut (:func:`check_close`);
* a sampled estimate must lie within a Hoeffding radius of its expected
  value (:func:`hoeffding_radius` for a fixed allocation,
  :func:`anytime_radius` for an adaptive one); the radii are built so that a
  correct run fails with probability below :data:`RUN_FAILURE_PROBABILITY`;
* streams and reruns must match exactly (:func:`check_round_indices`,
  :func:`check_identical`);
* a noisy device's infinite-shot value must lie within
  :func:`noise_radius` of the ideal one.

README.md in this directory derives the radii.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping, Sequence

import numpy as np

#: Probability that a correct run fails any statistical check.  Each run
#: splits it evenly over its sampled estimates (a union bound).
RUN_FAILURE_PROBABILITY = 1e-6

#: Agreement required between an exact reconstruction and the uncut value.
EXACT_TOLERANCE = 1e-9

#: Relative agreement required between κ and the product of Theorem 1.
KAPPA_TOLERANCE = 1e-12

#: Per-cut κ of the optimal entanglement-free wire cut (Harada et al.).
HARADA_KAPPA = 3.0


class CheckError(AssertionError):
    """An output of the program failed a check."""


# -- the benchmark's own statevector ------------------------------------------------------

_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": _X,
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.diag([1.0, -1.0]).astype(complex),
}


def _one_qubit_matrix(name: str, params: Sequence[float]) -> np.ndarray:
    """Return the 2×2 matrix of a named one-qubit gate, ``exp(−iθP/2)`` for rotations."""
    if name == "h":
        return _H
    if name == "x":
        return _X
    theta = float(params[0])
    cos, sin = math.cos(theta / 2.0), math.sin(theta / 2.0)
    if name == "rx":
        return np.array([[cos, -1j * sin], [-1j * sin, cos]], dtype=complex)
    if name == "ry":
        return np.array([[cos, -sin], [sin, cos]], dtype=complex)
    if name == "rz":
        return np.diag([complex(cos, -sin), complex(cos, sin)])
    raise ValueError(f"the reference statevector has no gate {name!r}")


def statevector_expectation(
    num_qubits: int, ops: Sequence[tuple[str, tuple[int, ...], tuple[float, ...]]], observable: str
) -> float:
    """Return ``⟨ψ|P|ψ⟩`` for ``|ψ⟩ = ops |0…0⟩`` and the Pauli string ``observable``.

    ``ops`` lists ``(name, qubits, params)`` gates: ``h``, ``x``, ``rx``,
    ``ry``, ``rz`` and ``cx`` (control first).  Letter ``q`` of
    ``observable`` acts on qubit ``q``.
    """
    if len(observable) != num_qubits:
        raise ValueError(f"observable {observable!r} does not act on {num_qubits} qubits")
    state = np.zeros((2,) * num_qubits, dtype=complex)
    state[(0,) * num_qubits] = 1.0
    for name, qubits, params in ops:
        if name == "cx":
            control, target = qubits
            flipped = state.copy()
            index = [slice(None)] * num_qubits
            index[control] = 1
            rows = tuple(index)
            flipped[rows] = np.flip(state[rows], axis=target - (target > control))
            state = flipped
            continue
        (qubit,) = qubits
        matrix = _one_qubit_matrix(name, params)
        state = np.moveaxis(np.tensordot(matrix, state, axes=([1], [qubit])), 0, qubit)
    transformed = state
    for qubit, letter in enumerate(observable):
        if letter != "I":
            transformed = np.moveaxis(
                np.tensordot(_PAULI[letter], transformed, axes=([1], [qubit])), 0, qubit
            )
    return float(np.vdot(state, transformed).real)


# -- κ (Theorem 1) ------------------------------------------------------------------------


def nme_kappa(overlap: float) -> float:
    """Return the per-cut κ of the NME wire cut at overlap ``f``: ``2/f − 1``."""
    return 2.0 / float(overlap) - 1.0


def check_kappa(kappa: float, per_cut: Sequence[float], what: str) -> None:
    """Require ``kappa`` to equal the product of the per-cut κ values."""
    expected = math.prod(per_cut)
    if not abs(kappa - expected) <= KAPPA_TOLERANCE * max(1.0, abs(expected)):
        raise CheckError(f"{what}: κ = {kappa!r}, Theorem 1 gives {expected!r}")


# -- exact and statistical agreement ------------------------------------------------------


def check_close(value: float, reference: float, tolerance: float, what: str) -> None:
    """Require ``|value − reference| ≤ tolerance`` (NaN fails)."""
    if not abs(value - reference) <= tolerance:
        raise CheckError(
            f"{what}: {value!r} differs from {reference!r} by "
            f"{abs(value - reference)!r} > {tolerance!r}"
        )


def per_estimate_delta(num_estimates: int) -> float:
    """Return the failure probability allowed to each of ``num_estimates`` checks."""
    return RUN_FAILURE_PROBABILITY / max(1, int(num_estimates))


def _missing_terms_bias(coefficients: Sequence[float], shots: Sequence[int]) -> float:
    """Bound the bias of terms that got no shot: the program counts them as 0."""
    return float(sum(abs(c) for c, n in zip(coefficients, shots) if n <= 0))


def hoeffding_radius(coefficients: Sequence[float], shots: Sequence[int], delta: float) -> float:
    """Radius of ``Σ cᵢ m̂ᵢ`` around its mean for a fixed allocation of ±1 shots.

    ``t = sqrt(2 ln(2/δ) Σ cᵢ²/nᵢ)`` holds with probability at least ``1 − δ``
    when term ``i`` gets ``nᵢ`` independent ±1 outcomes and the ``nᵢ`` do
    not depend on the outcomes.  Terms without shots add their full
    ``|cᵢ|``.
    """
    if len(coefficients) != len(shots):
        raise ValueError("one shot count per coefficient is needed")
    spread = sum(c * c / n for c, n in zip(coefficients, shots) if n > 0)
    return math.sqrt(2.0 * math.log(2.0 / delta) * spread) + _missing_terms_bias(
        coefficients, shots
    )


def anytime_radius(
    coefficients: Sequence[float], shots: Sequence[int], max_shots: int, delta: float
) -> float:
    """Radius of ``Σ cᵢ m̂ᵢ`` when the allocation ``nᵢ`` depended on earlier outcomes.

    Adaptive rounds pick each round's shots from the rounds before, so the
    fixed-allocation bound does not apply.  Each term's running mean is
    instead bounded at every count ``n ≤ max_shots`` the term could have
    reached (a union bound over all round ends), and the terms are added
    up: ``t = Σ |cᵢ| sqrt(2 ln(2·m·M/δ)/nᵢ)`` with ``m`` terms and budget
    ``M``, which holds with probability at least ``1 − δ``.
    """
    if len(coefficients) != len(shots):
        raise ValueError("one shot count per coefficient is needed")
    log_term = math.log(2.0 * len(coefficients) * max(1, int(max_shots)) / delta)
    radius = sum(
        abs(c) * math.sqrt(2.0 * log_term / n) for c, n in zip(coefficients, shots) if n > 0
    )
    return radius + _missing_terms_bias(coefficients, shots)


# -- exact identity -----------------------------------------------------------------------


def _bits(value) -> object:
    """Return a representation equal only for bitwise-identical values."""
    if isinstance(value, float):
        return struct.pack("<d", value)
    if isinstance(value, Mapping):
        return {key: _bits(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(item) for item in value]
    return value


def check_identical(left, right, what: str) -> None:
    """Require two outputs (numbers, lists, dicts) to be bitwise identical."""
    if _bits(left) != _bits(right):
        raise CheckError(f"{what}: {left!r} is not bitwise identical to {right!r}")


def check_round_indices(indices: Sequence[int], rounds_completed: int, what: str) -> None:
    """Require round events ``0, 1, …, rounds_completed − 1``, each once and in order."""
    expected = list(range(int(rounds_completed)))
    if list(indices) != expected:
        raise CheckError(
            f"{what}: round events {list(indices)} instead of {expected} "
            f"for {rounds_completed} completed rounds"
        )


# -- noise --------------------------------------------------------------------------------


def noise_radius(
    gate_arities: Sequence[int], measured_bits: int, noise: Mapping[str, float]
) -> float:
    """Bound how far gate and readout noise can move a ±1 parity mean.

    Each gate of arity ``a`` is followed by a depolarising channel of rate
    ``p`` (``depolarizing_1q`` or ``depolarizing_2q``), whose diamond-norm
    distance from the identity is at most ``2p``, and by amplitude damping
    ``γ`` on each of its ``a`` qubits, at most ``3γ + γ²`` each.  Distances
    add up along the circuit, and a ±1 mean moves by at most the sum.  Each
    of the ``measured_bits`` recorded bits is flipped with probability at
    most ``max(p01, p10)``, which moves the parity mean by at most twice
    that.  The result is capped at 2, the range of a ±1 mean.
    """
    gamma = float(noise.get("amplitude_damping", 0.0))
    damping = 3.0 * gamma + gamma * gamma
    total = 0.0
    for arity in gate_arities:
        rate = noise.get("depolarizing_1q" if arity == 1 else "depolarizing_2q", 0.0)
        total += 2.0 * float(rate) + arity * damping
    flip = max(float(noise.get("readout_p01", 0.0)), float(noise.get("readout_p10", 0.0)))
    total += 2.0 * measured_bits * flip
    return min(total, 2.0)


def parity_mean(distribution: Mapping[str, float], bits: Sequence[int]) -> float:
    """Return the mean of ``(−1)^(parity of bits)`` under an outcome distribution.

    Character ``b`` of each bitstring is classical bit ``b``.
    """
    mean = 0.0
    for bitstring, probability in distribution.items():
        parity = sum(bitstring[bit] == "1" for bit in bits) % 2
        mean += -probability if parity else probability
    return mean
