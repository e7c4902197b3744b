"""Batched statevector simulation.

The serial simulator (:mod:`repro.simulator.statevector`) executes one
parameter vector at a time, so a VQE iteration's SPSA pair, a population
of seeds, or a sweep of candidate points each pays the full Python
per-gate dispatch cost. This engine carries a *leading batch axis*
through every gate application: states are rank-``n+1`` tensors of shape
``(B, 2, ..., 2)`` and each gate is applied to all ``B`` states in one
NumPy contraction, amortizing the per-gate overhead across the batch.

Two contraction kinds cover a compiled plan:

* static gates share one matrix across the batch — one kernel call over
  the (shifted-by-one) qubit axes;
* parameterized gates have a *different* matrix per batch element — the
  whole ``(B, num_param_ops)`` angle table is built in one affine map
  (:meth:`repro.compiler.GatePlan.bind_angles_batch`), each op's matrices
  are stacked into ``(B, 2**k, 2**k)`` and applied elementwise.

Plans of at most
:data:`~repro.simulator.small_state.SMALL_STATE_MAX_QUBITS` qubits run as
the plan's layered program, the one the serial simulator runs with a
batch of one, so each row is bitwise equal to its serial run
(``tests/test_small_state.py``). Wider plans run through the fused run
loop and agree with per-element serial simulation to floating-point
reassociation (``<= 1e-12`` absolute on amplitudes and energies — see
``tests/test_batched_equivalence.py``).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import (
    STACKED_GATE_BUILDERS as BATCHED_GATE_BUILDERS,
    stacked_gate_matrices as batched_gate_matrices,
)
from repro.compiler import GatePlan, compile_plan
from repro.obs import TRACER
from repro.simulator import kernels, small_state

__all__ = [
    "BATCHED_GATE_BUILDERS",
    "BatchedStatevectorSimulator",
    "batched_gate_matrices",
    "simulate_statevectors",
]


class BatchedStatevectorSimulator:
    """Executes compiled plans on a whole batch of parameter sets.

    States are ``(B,) + (2,) * n`` tensors; qubit ``q`` lives on tensor
    axis ``q + 1``. One :meth:`run_plan` call pushes all ``B`` parameter
    vectors through the ansatz in a single NumPy pass per gate.
    """

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits

    def zero_states(self, batch: int) -> np.ndarray:
        if batch < 1:
            raise ValueError("batch must be >= 1")
        states = np.zeros((batch,) + (2,) * self.num_qubits, dtype=complex)
        states[(slice(None),) + (0,) * self.num_qubits] = 1.0
        return states

    def _initial(
        self, batch: int, initial_states: Optional[np.ndarray]
    ) -> np.ndarray:
        if initial_states is None:
            return self.zero_states(batch)
        return np.array(initial_states, dtype=complex).reshape(
            (batch,) + (2,) * self.num_qubits
        )

    def run_plan(
        self,
        plan: GatePlan,
        thetas: np.ndarray,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a gate plan for a ``(B, P)`` parameter batch.

        The whole ``(B, num_param_ops)`` angle table is one affine NumPy
        map. Small plans run as their layered program
        (:mod:`repro.simulator.small_state`); wider ones build per-op
        matrix stacks with the vectorized constructors in
        :mod:`repro.circuits.gates` and apply them, static ops their
        shared matrix, through the fused run loop
        (:func:`repro.simulator.kernels.run_fused`). Returns the final
        ``(B,) + (2,) * n`` state tensor batch.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan qubit count mismatch")
        angles = plan.bind_angles_batch(thetas)
        batch = angles.shape[0]
        span = TRACER.span(
            "sim.batched.run_plan", category="kernel",
            ops=len(plan.ops), batch=batch,
            state_size=2**plan.num_qubits,
        )
        if plan.num_qubits <= small_state.SMALL_STATE_MAX_QUBITS:
            initial = (
                None
                if initial_states is None
                else np.asarray(initial_states, dtype=complex).reshape(batch, -1)
            )
            with span:
                states = small_state.layered_program(plan).run(angles, initial)
            return states.reshape((batch,) + (2,) * self.num_qubits)
        states = self._initial(batch, initial_states)
        matrices = [
            batched_gate_matrices(name, angles[:, slot])
            for slot, name in enumerate(plan.slot_gate_names)
        ]
        with span:
            return kernels.run_fused(
                plan, matrices, states, batch_axes=1,
                gate_span="kernel.batched.gate",
            )

    def run_flat(
        self,
        plan: GatePlan,
        thetas: np.ndarray,
        initial_states: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Like :meth:`run_plan` but returns ``(B, 2**n)`` flat vectors."""
        states = self.run_plan(plan, thetas, initial_states)
        return states.reshape(states.shape[0], -1)


def simulate_statevectors(
    circuit_or_plan: Union[QuantumCircuit, GatePlan],
    thetas: np.ndarray,
) -> np.ndarray:
    """Convenience wrapper: ``(B, P)`` parameters to ``(B, 2**n)`` vectors.

    The batched sibling of
    :func:`repro.simulator.statevector.simulate_statevector`. Circuits
    compile through the shared plan cache.
    """
    if isinstance(circuit_or_plan, GatePlan):
        plan = circuit_or_plan
    else:
        plan = compile_plan(circuit_or_plan)
    simulator = BatchedStatevectorSimulator(plan.num_qubits)
    return simulator.run_flat(plan, np.asarray(thetas, dtype=float))
