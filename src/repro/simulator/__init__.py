"""Quantum state simulation engines.

Four engines are provided: a statevector simulator (pure states, fast
path for VQE objective evaluation), its batched sibling (leading batch
axis over parameter sets), a density-matrix simulator (mixed states,
Kraus noise channels compiled to per-site superoperators; validates the
energy-level noise approximations of the transient backend), and a
batched quantum-trajectory simulator (stochastic channel unraveling over
an ensemble of pure states, sharing the batched gate kernels).

All four route gate application through :mod:`repro.simulator.kernels`:
bit-indexed in-place kernels, with the reshape + ``tensordot`` reference
(:func:`apply_gate_tensordot`) as the route for small states. The two
statevector engines run plans of at most 7 qubits as a precompiled
layered program instead (:mod:`repro.simulator.small_state`).
"""

from repro.simulator import kernels
from repro.simulator.kernels import apply_gate_tensordot
from repro.simulator.statevector import StatevectorSimulator, simulate_statevector
from repro.simulator.batched import (
    BatchedStatevectorSimulator,
    simulate_statevectors,
)
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.trajectory import TrajectorySimulator, unravel_channel_batched
from repro.simulator.sampling import (
    counts_from_probabilities,
    counts_from_trajectory_rows,
    sample_counts,
    sample_plan,
)
from repro.simulator.expectation import (
    expectation_from_counts,
    expectation_of_matrix,
    expectation_of_pauli_sum,
)

__all__ = [
    "apply_gate_tensordot",
    "kernels",
    "StatevectorSimulator",
    "simulate_statevector",
    "BatchedStatevectorSimulator",
    "simulate_statevectors",
    "DensityMatrixSimulator",
    "TrajectorySimulator",
    "unravel_channel_batched",
    "counts_from_probabilities",
    "counts_from_trajectory_rows",
    "sample_counts",
    "sample_plan",
    "expectation_from_counts",
    "expectation_of_matrix",
    "expectation_of_pauli_sum",
]
