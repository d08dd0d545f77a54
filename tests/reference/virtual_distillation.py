"""Virtual entanglement distillation (Section II-C) and the Appendix-B construction.

Section II-C of the paper recalls that a maximally entangled state Φ can be
*quasiprobabilistically simulated* from an NME resource ρ with optimal
overhead ``γ̂_ρ(Φ) = 2/f(ρ) − 1`` (Eq. 17) — "virtual entanglement
distillation" [21].  Appendix B's upper-bound argument then builds a wire cut
from that simulation: teleport through the *virtually distilled* pair.

This module implements the constructive side for pure resources ``|Φ_k⟩``:

* :func:`virtual_bell_decomposition` — an explicit QPD of the maximally
  entangled two-qubit state in terms of LOCC maps applied to ``Φ_k``,
  attaining the optimal overhead ``2/f − 1``;
* :class:`DistilledTeleportWireCut` — the Appendix-B wire cut: plain
  teleportation through each term of the virtual Bell pair.  Its κ equals the
  NME cut's κ (both are optimal), but it uses different circuits; it serves
  as an independent cross-check of Theorem 1's upper bound and as an ablation
  against the *direct* Theorem-2 construction (which needs no separate
  distillation step).

The library never runs this code: it is a test reference, checked in
``tests/cutting/test_virtual_distillation.py`` against
:class:`~repro.cutting.NMEWireCut` and the exact uncut expectation.

The decomposition follows Appendix B's Figure-7 construction read forwards:
locally prepare a maximally entangled pair Φ_AB on the sender, then apply
each Theorem-2 wire-cut term to "transmit" qubit B through the NME resource
ρ_CD.  The induced linear maps on the resource,

* ``G_{1,2}(ρ) = Σ_σ ⟨Φ_σ|ρ|Φ_σ⟩ · (I ⊗ U_i σ U_i†)Φ(I ⊗ U_i σ U_i†)`` (the
  teleportation terms — operationally a local Bell measurement on the
  sender's (B, C) pair plus a conditional Pauli at the receiver, i.e. LOCC),
* ``G_3(ρ) = Tr[ρ] · ½ Σ_j |j, 1−j⟩⟨j, 1−j|`` (the measure-and-flip term,
  which consumes no entanglement),

combine as ``Φ = a·G_1(Φ_k) + a·G_2(Φ_k) − b·G_3(Φ_k)`` with
``κ = 2a + b = 2/f(Φ_k) − 1``.  The identity is verified numerically at
construction time — construction fails loudly otherwise.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import CuttingError
from repro.circuits.circuit import QuantumCircuit
from repro.cutting.base import GadgetWiring, WireCutProtocol, WireCutTerm
from repro.cutting.nme_cut import nme_coefficients
from repro.cutting.overhead import nme_overhead
from repro.quantum.bell import bell_state, phi_k_density
from repro.quantum.channels import QuantumChannel
from repro.quantum.gates import H, S
from repro.qpd.decomposition import QuasiProbDecomposition
from repro.qpd.terms import QPDTerm
from repro.teleport.protocol import bell_measurement, prepare_phi_k, teleportation_corrections

__all__ = [
    "virtual_bell_decomposition",
    "DistilledTeleportWireCut",
]


def _teleport_distillation_channel(basis_unitary: np.ndarray) -> QuantumChannel:
    """LOCC map induced by teleporting half of a fresh Φ through the resource pair.

    Kraus operators ``K_σ = |out_σ⟩⟨Φ_σ|`` with
    ``|out_σ⟩ = (I ⊗ U σ U†)|Φ⟩``: a local Bell measurement on the sender's
    qubits selects the Bell component Φ_σ of the resource, and the receiver's
    conditional Pauli leaves the rotated Bell state ``|out_σ⟩`` shared between
    the parties.  Trace preserving because both {|Φ_σ⟩} and {|out_σ⟩} are
    orthonormal bases.
    """
    from repro.quantum.bell import bell_basis_states
    from repro.quantum.gates import PAULI_MATRICES

    phi_vector = bell_state("I").data
    kraus = []
    for label, bell in bell_basis_states().items():
        rotated_pauli = basis_unitary @ PAULI_MATRICES[label] @ basis_unitary.conj().T
        out_vector = np.kron(np.eye(2, dtype=complex), rotated_pauli) @ phi_vector
        kraus.append(np.outer(out_vector, bell.data.conj()))
    return QuantumChannel(kraus)


def _flip_distillation_channel() -> QuantumChannel:
    """LOCC map of the measure-and-flip term: discard the resource, output the anti-correlated mixture."""
    kraus = []
    for j in range(2):
        out = np.zeros(4, dtype=complex)
        out[j * 2 + (1 - j)] = 1.0  # |j, 1-j>
        for m in range(4):
            bra_m = np.zeros(4, dtype=complex)
            bra_m[m] = 1.0
            kraus.append(np.sqrt(0.5) * np.outer(out, bra_m.conj()))
    return QuantumChannel(kraus)


def virtual_bell_decomposition(k: float, atol: float = 1e-9) -> QuasiProbDecomposition:
    """Return the QPD ``Φ = Σ_i c_i G_i(Φ_k)`` with LOCC maps ``G_i`` and optimal κ (Eq. 17).

    Parameters
    ----------
    k:
        Resource parameter of ``|Φ_k⟩``.
    atol:
        Verification tolerance.

    Raises
    ------
    CuttingError
        If the constructed decomposition fails to reproduce Φ exactly or does
        not attain the optimal overhead ``2/f(Φ_k) − 1`` — which would signal
        an implementation bug, so the check is always on.
    """
    if k < 0:
        raise CuttingError(f"k must be non-negative, got {k}")
    a, b = nme_coefficients(k)
    u2 = S @ H
    phi = bell_state("I").to_density_matrix().data

    terms = [
        QPDTerm(coefficient=a, channel=_teleport_distillation_channel(H), label="virtual-U1"),
        QPDTerm(coefficient=a, channel=_teleport_distillation_channel(u2), label="virtual-U2"),
    ]
    if b > 1e-15:
        terms.append(
            QPDTerm(coefficient=-b, channel=_flip_distillation_channel(), label="virtual-flip")
        )
    decomposition = QuasiProbDecomposition(terms, name=f"virtual-bell(k={k:g})")

    reconstructed = decomposition.apply_exact(phi_k_density(k).data)
    if not np.allclose(reconstructed, phi, atol=atol):
        raise CuttingError("virtual Bell decomposition failed verification")
    if abs(decomposition.kappa - nme_overhead(k)) > 1e-8:
        raise CuttingError("virtual Bell decomposition does not attain the optimal overhead")
    return decomposition


def _distilled_teleport_gadget(k: float, basis_label: str):
    """Gadget: teleport through Φ_k with the Theorem-2 basis rotation applied to the *pair*.

    Operationally identical to the NME-cut gadget (the rotations commute
    through the teleportation), but expressed as the Appendix-B order:
    distill-then-teleport.  Kept separate so the ablation benchmark can time
    both formulations and confirm they sample identical distributions.
    """

    def gadget(circuit: QuantumCircuit, wiring: GadgetWiring) -> None:
        """Append the distill-then-teleport gadget at the wired qubits."""
        sender = wiring.sender_qubit
        ancilla = wiring.ancilla_qubits[0]
        receiver = wiring.receiver_qubit
        clbit_a, clbit_b = wiring.clbit(0), wiring.clbit(1)
        # Prepare the NME pair first (the "resource" of the distillation).
        prepare_phi_k(circuit, k, ancilla, receiver)
        # Basis rotation on the sender side of the virtual pair.
        if basis_label == "U1":
            circuit.h(sender)
        else:
            circuit.sdg(sender)
            circuit.h(sender)
        bell_measurement(circuit, sender, ancilla, clbit_a, clbit_b)
        teleportation_corrections(circuit, receiver, clbit_a, clbit_b)
        if basis_label == "U1":
            circuit.h(receiver)
        else:
            circuit.h(receiver)
            circuit.s(receiver)

    return gadget


class DistilledTeleportWireCut(WireCutProtocol):
    """Appendix-B wire cut: teleportation through a virtually distilled Bell pair.

    Channel-wise identical to :class:`~repro.cutting.nme_cut.NMEWireCut`
    (both attain the Theorem-1 optimum); the gadget circuits order the
    operations as the Appendix-B proof does.  Used as an independent
    cross-check and in the formulation ablation.
    """

    name = "distilled-teleport"

    def __init__(self, k: float):
        super().__init__()
        if k < 0:
            raise CuttingError(f"k must be non-negative, got {k}")
        self.k = float(k)

    def build_terms(self) -> tuple[WireCutTerm, ...]:
        """Construct the Appendix-B terms in distill-then-teleport order."""
        from repro.cutting.nme_cut import _teleport_term_channel
        from repro.cutting.standard_cut import _flip_gadget, _flip_prepare_channel

        a, b = nme_coefficients(self.k)
        u2 = S @ H
        terms = [
            WireCutTerm(
                coefficient=a,
                channel=_teleport_term_channel(self.k, H),
                label="distilled-teleport-U1",
                gadget_builder=_distilled_teleport_gadget(self.k, "U1"),
                num_ancilla_qubits=1,
                num_gadget_clbits=2,
                consumes_entangled_pair=True,
            ),
            WireCutTerm(
                coefficient=a,
                channel=_teleport_term_channel(self.k, u2),
                label="distilled-teleport-U2",
                gadget_builder=_distilled_teleport_gadget(self.k, "U2"),
                num_ancilla_qubits=1,
                num_gadget_clbits=2,
                consumes_entangled_pair=True,
            ),
        ]
        if b > 1e-15:
            terms.append(
                WireCutTerm(
                    coefficient=-b,
                    channel=_flip_prepare_channel(),
                    label="measure-flip-prepare-Z",
                    gadget_builder=_flip_gadget,
                    num_gadget_clbits=1,
                )
            )
        return tuple(terms)

    def theoretical_overhead(self) -> float:
        """Return Corollary 1's κ for the distilled protocol."""
        return nme_overhead(self.k)
