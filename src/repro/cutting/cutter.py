"""Where a wire is cut.

A :class:`CutLocation` names one wire of an (uncut) circuit and a point in
its instruction stream.  :func:`repro.cutting.multi_wire.build_multi_cut_circuits`
applies a wire-cut protocol at each given location: the instructions before
the cut stay on the original wire (the *sender fragment*), the protocol's
gadget transfers the wire onto a fresh receiver qubit using only local
operations, classical communication and — for NME protocols — a pre-shared
resource pair, and the instructions after the cut act on the receiver (the
*receiver fragment*).  Both fragments run inside one simulator, which is
statistically equivalent to two devices exchanging classical messages.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["CutLocation"]


@dataclass(frozen=True)
class CutLocation:
    """Identifies where a wire is cut.

    Attributes
    ----------
    qubit:
        The qubit whose wire is cut.
    position:
        Number of leading instructions of the original circuit that belong to
        the sender fragment (the cut happens *after* instruction
        ``position − 1``).  ``position = len(circuit)`` cuts at the very end
        of the circuit.
    """

    qubit: int
    position: int
