"""Shot-based circuit sampling — the Qiskit Aer replacement.

The circuit is executed once, exactly, with the branching density-matrix
simulator; the exact probability distribution over classical-register values
is then sampled with a multinomial draw.  This is statistically identical to
running independent shots (each shot is an i.i.d. draw from the same outcome
distribution, feed-forward, reset and initialise included) but costs one
exact simulation per circuit instead of one state evolution per shot — the
vectorised-over-shots strategy recommended by the HPC guidance.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import SimulationError
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.counts import Counts
from repro.circuits.density_matrix_simulator import DensityMatrixSimulator
from repro.quantum.states import Statevector
from repro.utils.rng import SeedLike, as_generator

__all__ = ["ShotSimulator"]


class ShotSimulator:
    """Samples measurement outcomes of circuits containing measurements."""

    def run(
        self,
        circuit: QuantumCircuit,
        shots: int,
        seed: SeedLike = None,
        initial_state: Statevector | np.ndarray | None = None,
    ) -> Counts:
        """Execute ``circuit`` for ``shots`` shots and return outcome counts.

        The counts keys are classical-register bitstrings with clbit 0 as the
        leftmost character.
        """
        if shots < 0:
            raise ValueError(f"shots must be non-negative, got {shots}")
        if circuit.num_clbits == 0:
            raise SimulationError("circuit has no classical bits to sample")
        if shots == 0:
            return Counts({}, num_clbits=circuit.num_clbits)
        rng = as_generator(seed)
        result = DensityMatrixSimulator().run(circuit, initial_state)
        return Counts.from_probabilities(
            result.classical_distribution(),
            shots=shots,
            num_clbits=circuit.num_clbits,
            seed=rng,
        )

