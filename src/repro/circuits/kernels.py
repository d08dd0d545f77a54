"""Axis-local simulation kernels: gate application without full-space operators.

The simulators never embed a k-qubit gate into a full ``2^n × 2^n``
operator.  They view the state as a rank-``n`` (statevector) or rank-``2n``
(density matrix) tensor of 2-dimensional axes and contract each gate against
its *target axes only*:

* a unitary on a statevector is one ``(2^k × 2^k) @ (2^k × 2^{n-k})`` matmul,
* a unitary on a density matrix is two such matmuls (left multiply on the ket
  axes, conjugate right multiply on the bra axes) — O(4^n · 2^k) per gate
  instead of the O(8^n) full-space sandwich,
* a Kraus channel is the same contraction per Kraus operator, accumulated in
  order,
* measurement/reset/initialise move *blocks* of the state tensor instead of
  sandwiching full-space projectors, which makes them pure memory traffic.

All density-matrix kernels accept an optional leading batch axis (shape
``(batch, dim, dim)``), so the serial and vectorized simulators share one
code path and stay bitwise identical per slice.

The full-space arithmetic these kernels replace lives on only as a test
reference (``tests/reference/dense.py``), which the test suite checks every
kernel against.

Prepared-operator cache
-----------------------

:func:`prepare_operator` reshapes a gate matrix into its rank-``2k`` tensor
form, precomputes the conjugate transpose and fingerprints the payload; the
results are memoised in a process-wide LRU keyed by
``(matrix_fingerprint, k)``.  The same cache serves the gate-noise path (the
local Kraus operators of :class:`repro.devices.NoiseModel` are prepared
through it), so sweeps touching the same gates and channels thousands of
times pay the preparation cost once.

Telemetry
---------

:func:`record_gate_application` feeds two instruments on the process-global
metrics registry — a dispatch counter labelled by gate ``arity`` and a
per-gate-application latency histogram — giving ``GET /metrics`` a live view
of how many gates run and what each application costs.  Purely additive
observability: results are bitwise identical with telemetry on or off.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from collections.abc import Sequence

import numpy as np

from repro.exceptions import SimulationError
from repro.telemetry.metrics import REGISTRY

__all__ = [
    "matrix_fingerprint",
    "PreparedOperator",
    "prepare_operator",
    "prepared_cache_info",
    "clear_prepared_cache",
    "apply_unitary",
    "apply_controlled_unitary",
    "apply_kraus",
    "apply_unitary_statevector",
    "project_qubit",
    "apply_reset",
    "apply_initialize",
    "record_gate_application",
]

#: Capacity of the prepared-operator LRU (distinct (matrix, arity) payloads).
_PREPARED_CACHE_MAXSIZE = 1024

#: Dispatch counter: one increment per gate applied to one state (batched
#: applications count every slice, so serial and vectorized runs of the same
#: workload report the same totals).
_GATE_DISPATCH = REGISTRY.counter(
    "repro_kernel_gate_applications_total",
    "Gate applications by gate arity.",
    labelnames=("arity",),
)

#: Per-gate-application wall time.  Buckets reach down to 10 µs because an
#: axis-local application of a small-circuit gate is microseconds, not the
#: milliseconds of the HTTP-latency default buckets.
_GATE_SECONDS = REGISTRY.histogram(
    "repro_kernel_gate_seconds",
    "Wall-clock seconds per gate application.",
    buckets=(1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3,
             1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0),
)


def record_gate_application(arity: int, seconds: float, count: int = 1) -> None:
    """Record ``count`` gate applications of ``arity`` taking ``seconds`` total."""
    _GATE_DISPATCH.inc(count, arity=str(arity))
    _GATE_SECONDS.observe(seconds)


# -- prepared operators ------------------------------------------------------------


def matrix_fingerprint(matrix: np.ndarray) -> str:
    """Return a content hash of a numeric operator payload (shape + bytes)."""
    array = np.ascontiguousarray(matrix, dtype=complex)
    digest = hashlib.blake2b(digest_size=16)
    digest.update(str(array.shape).encode())
    digest.update(array.tobytes())
    return digest.hexdigest()


class PreparedOperator:
    """A gate matrix pre-shaped for axis-local contraction.

    Attributes
    ----------
    matrix:
        The contiguous ``(2^k, 2^k)`` operator.
    dagger:
        Its contiguous conjugate transpose.
    num_qubits:
        The operator arity ``k``.
    fingerprint:
        Content hash of the payload (the LRU key, shared with the noise
        layer's Kraus preparation).
    """

    __slots__ = ("matrix", "dagger", "num_qubits", "fingerprint")

    def __init__(self, matrix: np.ndarray, fingerprint: str):
        array = np.ascontiguousarray(matrix, dtype=complex)
        if array.ndim != 2 or array.shape[0] != array.shape[1]:
            raise SimulationError(f"operator must be square, got shape {array.shape}")
        k = int(array.shape[0]).bit_length() - 1
        if 2**k != array.shape[0]:
            raise SimulationError(
                f"operator dimension {array.shape[0]} is not a power of two"
            )
        self.matrix = array
        self.dagger = np.ascontiguousarray(array.conj().T)
        self.num_qubits = k
        self.fingerprint = fingerprint


_prepared_lock = threading.Lock()
_prepared_cache: OrderedDict[tuple[str, int], PreparedOperator] = OrderedDict()
_prepared_hits = 0
_prepared_misses = 0


def prepare_operator(matrix: np.ndarray) -> PreparedOperator:
    """Return the (memoised) :class:`PreparedOperator` for ``matrix``.

    The LRU is keyed by ``(matrix_fingerprint, k)`` and shared process-wide;
    both gate unitaries and local Kraus operators go through it.
    """
    global _prepared_hits, _prepared_misses
    array = np.ascontiguousarray(matrix, dtype=complex)
    fingerprint = matrix_fingerprint(array)
    key = (fingerprint, int(array.shape[0]).bit_length() - 1)
    with _prepared_lock:
        cached = _prepared_cache.get(key)
        if cached is not None:
            _prepared_cache.move_to_end(key)
            _prepared_hits += 1
            return cached
        _prepared_misses += 1
    prepared = PreparedOperator(array, fingerprint)
    with _prepared_lock:
        _prepared_cache[key] = prepared
        _prepared_cache.move_to_end(key)
        while len(_prepared_cache) > _PREPARED_CACHE_MAXSIZE:
            _prepared_cache.popitem(last=False)
    return prepared


def prepared_cache_info() -> dict[str, int]:
    """Return hit/miss/size counters of the prepared-operator LRU."""
    with _prepared_lock:
        return {
            "hits": _prepared_hits,
            "misses": _prepared_misses,
            "size": len(_prepared_cache),
            "maxsize": _PREPARED_CACHE_MAXSIZE,
        }


def clear_prepared_cache() -> None:
    """Drop all prepared operators and reset the hit/miss counters."""
    global _prepared_hits, _prepared_misses
    with _prepared_lock:
        _prepared_cache.clear()
        _prepared_hits = 0
        _prepared_misses = 0


# -- axis bookkeeping --------------------------------------------------------------


def _tensor_view(state: np.ndarray, num_qubits: int, rank: int) -> tuple[np.ndarray, int]:
    """Return ``state`` viewed as ``prefix + (2,)*(rank*num_qubits)`` axes.

    ``rank`` is 1 for statevectors and 2 for density matrices.  The returned
    prefix length is 1 when a leading batch axis is present, else 0.
    """
    prefix = state.ndim - rank
    if prefix not in (0, 1):
        raise SimulationError(
            f"state must have {rank} dims (plus an optional batch axis), got shape {state.shape}"
        )
    shape = state.shape[:prefix] + (2,) * (rank * num_qubits)
    return state.reshape(shape), prefix


def _axis_matmul_left(
    tensor: np.ndarray, prefix: int, op: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Contract ``op``'s columns with the given tensor axes (left multiply).

    ``axes`` are positions relative to the qubit-axis block (after the batch
    prefix); ``op`` may carry its own leading batch axis for per-slice
    operators.
    """
    k = len(axes)
    total = tensor.ndim - prefix
    abs_axes = [prefix + a for a in axes]
    rest = [prefix + a for a in range(total) if a not in axes]
    perm = list(range(prefix)) + abs_axes + rest
    moved = np.transpose(tensor, perm)
    moved_shape = moved.shape
    mat = moved.reshape(moved_shape[:prefix] + (2**k, -1))
    out = op @ mat
    out = out.reshape(moved_shape)
    return np.transpose(out, np.argsort(perm))


def _axis_matmul_right(
    tensor: np.ndarray, prefix: int, op: np.ndarray, axes: Sequence[int]
) -> np.ndarray:
    """Contract the given tensor axes with ``op``'s rows (right multiply)."""
    k = len(axes)
    total = tensor.ndim - prefix
    abs_axes = [prefix + a for a in axes]
    rest = [prefix + a for a in range(total) if a not in axes]
    perm = list(range(prefix)) + rest + abs_axes
    moved = np.transpose(tensor, perm)
    moved_shape = moved.shape
    mat = moved.reshape(moved_shape[:prefix] + (-1, 2**k))
    out = mat @ op
    out = out.reshape(moved_shape)
    return np.transpose(out, np.argsort(perm))


def _block_index(
    ndim: int, axes: Sequence[int], bits: Sequence[int], prefix: int
) -> tuple:
    """Return an index tuple fixing each of ``axes`` (post-prefix) to ``bits``."""
    index: list = [slice(None)] * ndim
    for axis, bit in zip(axes, bits):
        index[prefix + axis] = bit
    return tuple(index)


# -- density-matrix kernels --------------------------------------------------------


def apply_unitary(
    rho: np.ndarray,
    operator: PreparedOperator | np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Return ``U ρ U†`` with ``U`` contracted on the target axes only.

    ``rho`` is a ``(dim, dim)`` density matrix or a ``(batch, dim, dim)``
    stack; ``operator`` is a prepared ``2^k``-dimensional unitary or a
    ``(batch, 2^k, 2^k)`` stack of per-slice unitaries.
    """
    qubits = list(qubits)
    if isinstance(operator, PreparedOperator):
        op, op_dagger = operator.matrix, operator.dagger
    else:
        op = np.ascontiguousarray(operator, dtype=complex)
        op_dagger = np.ascontiguousarray(op.conj().swapaxes(-1, -2))
    tensor, prefix = _tensor_view(rho, num_qubits, rank=2)
    ket_axes = qubits
    bra_axes = [num_qubits + q for q in qubits]
    out = _axis_matmul_left(tensor, prefix, op, ket_axes)
    out = _axis_matmul_right(out, prefix, op_dagger, bra_axes)
    return np.ascontiguousarray(out).reshape(rho.shape)


def apply_controlled_unitary(
    rho: np.ndarray,
    operator: PreparedOperator | np.ndarray,
    qubits: Sequence[int],
    control: int,
    value: int,
    num_qubits: int,
) -> np.ndarray:
    """Return ``C ρ C†`` for ``C = |v⟩⟨v|_control ⊗ U + |1−v⟩⟨1−v|_control ⊗ I``.

    ``U`` left-multiplies only the rows whose ``control`` ket bit is ``value``
    and ``U†`` right-multiplies only the columns whose bra bit is ``value``,
    so every entry goes through the same ``2^k``-term contractions as
    :func:`apply_unitary` on the projected piece ``P_v ρ P_v`` — the
    classically conditioned gate this replaces under deferred measurement.
    ``control`` must not be one of ``qubits``.
    """
    qubits = list(qubits)
    if isinstance(operator, PreparedOperator):
        op, op_dagger = operator.matrix, operator.dagger
    else:
        op = np.ascontiguousarray(operator, dtype=complex)
        op_dagger = np.ascontiguousarray(op.conj().swapaxes(-1, -2))
    tensor, prefix = _tensor_view(rho, num_qubits, rank=2)
    out = tensor.copy()
    # Fixing the control axis drops it from the sub-tensor: later axes shift down.
    shifted = [q - (q > control) for q in qubits]
    rows = _block_index(out.ndim, (control,), (value,), prefix)
    out[rows] = _axis_matmul_left(out[rows], prefix, op, shifted)
    columns = _block_index(out.ndim, (num_qubits + control,), (value,), prefix)
    bra_axes = [num_qubits + q for q in shifted]
    out[columns] = _axis_matmul_right(out[columns], prefix, op_dagger, bra_axes)
    return out.reshape(rho.shape)


def apply_kraus(
    rho: np.ndarray,
    operators: Sequence[PreparedOperator | np.ndarray],
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Return ``Σ_i K_i ρ K_i†`` contracted on the target axes only.

    The Kraus terms are accumulated sequentially in the given order.
    """
    total: np.ndarray | None = None
    for operator in operators:
        piece = apply_unitary(rho, operator, qubits, num_qubits)
        total = piece if total is None else total + piece
    if total is None:
        raise SimulationError("apply_kraus requires at least one Kraus operator")
    return total


def project_qubit(rho: np.ndarray, qubit: int, num_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """Return the unnormalised post-measurement pieces ``(P₀ρP₀, P₁ρP₁)``.

    Implemented as axis-sliced block copies — no projector matrices are
    built, and each piece is bitwise identical to the dense projector
    sandwich (whose only products are by exact 0/1 entries).
    """
    tensor, prefix = _tensor_view(rho, num_qubits, rank=2)
    pieces = []
    for outcome in (0, 1):
        index = _block_index(tensor.ndim, (qubit, num_qubits + qubit), (outcome, outcome), prefix)
        piece = np.zeros_like(tensor)
        piece[index] = tensor[index]
        pieces.append(piece.reshape(rho.shape))
    return pieces[0], pieces[1]


def apply_reset(rho: np.ndarray, qubit: int, num_qubits: int) -> np.ndarray:
    """Return the state after resetting ``qubit`` to ``|0⟩``.

    The reset channel ``K₀=|0⟩⟨0|, K₁=|0⟩⟨1|`` folds the two diagonal blocks
    of the target axes into the ``(0, 0)`` block; the off-diagonal blocks
    vanish.  Block arithmetic matches the dense Kraus sandwich bitwise.
    """
    tensor, prefix = _tensor_view(rho, num_qubits, rank=2)
    axes = (qubit, num_qubits + qubit)
    out = np.zeros_like(tensor)
    zero_block = _block_index(tensor.ndim, axes, (0, 0), prefix)
    one_block = _block_index(tensor.ndim, axes, (1, 1), prefix)
    out[zero_block] = tensor[zero_block] + tensor[one_block]
    return out.reshape(rho.shape)


def apply_initialize(
    rho: np.ndarray,
    targets: np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Return the state after resetting ``qubits`` and preparing ``targets``.

    The reset-to-state channel ``ρ → Σ_j (|t⟩⟨j|) ρ (|j⟩⟨t|)`` is applied as
    a sum over the ``2^k`` diagonal blocks of the target axes, each block
    broadcast against the outer product of the target amplitudes — no
    identity matrix and no full-space Kraus operators are materialised.

    ``targets`` is the local ``(2^k,)`` state (or a ``(batch, 2^k)`` stack
    matching a batched ``rho``).
    """
    qubits = list(qubits)
    k = len(qubits)
    tensor, prefix = _tensor_view(rho, num_qubits, rank=2)
    targets = np.asarray(targets, dtype=complex)
    if prefix and targets.ndim == 1:
        targets = np.broadcast_to(targets, (tensor.shape[0], targets.shape[0]))
    ket_axes = qubits
    bra_axes = [num_qubits + q for q in qubits]
    rest_ket = [q for q in range(num_qubits) if q not in qubits]
    rest_bra = [num_qubits + q for q in rest_ket]

    # Work in the layout [batch?, ket_Q, rest_ket, bra_Q, rest_bra]; one final
    # inverse transpose restores the canonical axis order.
    n_rest = num_qubits - k
    ket_shape = (2,) * k
    # Target amplitudes broadcast over [ket_Q] and [bra_Q] respectively.
    batch_shape = tensor.shape[:prefix]
    t_ket = targets.reshape(batch_shape + ket_shape + (1,) * (n_rest + k + n_rest))
    t_bra = targets.conj().reshape(batch_shape + (1,) * (k + n_rest) + ket_shape + (1,) * n_rest)

    out = None
    for j in range(2**k):
        bits = [(j >> (k - 1 - position)) & 1 for position in range(k)]
        index = _block_index(tensor.ndim, ket_axes + bra_axes, bits + bits, prefix)
        block = tensor[index]  # shape: batch? + rest_ket + rest_bra
        block = block.reshape(
            batch_shape + (1,) * k + (2,) * n_rest + (1,) * k + (2,) * n_rest
        )
        # Mirror the dense Kraus sandwich's product order: (t ⊗ block) ⊗ t†.
        piece = (t_ket * block) * t_bra
        out = piece if out is None else out + piece
    # `out` axes: [batch?, ket_Q, rest_ket, bra_Q, rest_bra] → canonical order.
    order = list(qubits) + rest_ket + [num_qubits + q for q in qubits] + rest_bra
    perm = [prefix + position for position in np.argsort(order)]
    out = np.transpose(out, list(range(prefix)) + perm)
    return np.ascontiguousarray(out).reshape(rho.shape)


# -- statevector kernel ------------------------------------------------------------


def apply_unitary_statevector(
    state: np.ndarray,
    operator: PreparedOperator | np.ndarray,
    qubits: Sequence[int],
    num_qubits: int,
) -> np.ndarray:
    """Return ``U |ψ⟩`` with ``U`` contracted on the target axes only."""
    qubits = list(qubits)
    op = operator.matrix if isinstance(operator, PreparedOperator) else np.ascontiguousarray(operator, dtype=complex)
    tensor, prefix = _tensor_view(state, num_qubits, rank=1)
    out = _axis_matmul_left(tensor, prefix, op, qubits)
    return np.ascontiguousarray(out).reshape(state.shape)
