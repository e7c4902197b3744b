"""Statevector simulation.

States are stored as rank-``n`` tensors of shape ``(2,) * n`` with qubit 0
as the *first* tensor axis. Bitstring conventions elsewhere in the library
print qubit 0 as the leftmost character.

Execution consumes the compiler's :class:`~repro.compiler.GatePlan` IR;
``run_circuit`` compiles through the shared plan cache, so repeated
bound-circuit runs are compile-free. Plans of at most
:data:`~repro.simulator.small_state.SMALL_STATE_MAX_QUBITS` qubits run as
the plan's layered program with a batch of one; wider plans run through
the shared fused run loop, :func:`repro.simulator.kernels.run_fused`.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import GatePlan, compile_plan
from repro.obs import TRACER
from repro.simulator import kernels, small_state


class StatevectorSimulator:
    """Executes gate plans and circuits on pure states."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits

    def zero_state(self) -> np.ndarray:
        state = np.zeros((2,) * self.num_qubits, dtype=complex)
        state[(0,) * self.num_qubits] = 1.0
        return state

    def _initial(self, initial_state: Optional[np.ndarray]) -> np.ndarray:
        if initial_state is None:
            return self.zero_state()
        return np.array(initial_state, dtype=complex).reshape(
            (2,) * self.num_qubits
        )

    def run_plan(
        self,
        plan: GatePlan,
        theta: Sequence[float] = (),
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a compiled gate plan and return the final state tensor."""
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan qubit count mismatch")
        angles = plan.bind_angles(theta)
        span = TRACER.span(
            "sim.statevector.run_plan", category="kernel",
            ops=len(plan.ops), state_size=2**plan.num_qubits,
        )
        if plan.num_qubits <= small_state.SMALL_STATE_MAX_QUBITS:
            initial = (
                None
                if initial_state is None
                else np.asarray(initial_state, dtype=complex).reshape(1, -1)
            )
            with span:
                state = small_state.layered_program(plan).run(angles[None, :], initial)
            return state.reshape((2,) * self.num_qubits)
        state = self._initial(initial_state)
        matrices = plan.slot_matrices(angles)
        with span:
            return kernels.run_fused(plan, matrices, state)

    def run_circuit(
        self,
        circuit: QuantumCircuit,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a fully bound circuit (compiled through the plan cache)."""
        if circuit.num_parameters:
            raise ValueError("circuit has unbound parameters; bind it first")
        plan = compile_plan(circuit)
        return self.run_plan(plan, np.empty(0), initial_state)


def simulate_statevector(
    circuit_or_plan: Union[QuantumCircuit, GatePlan],
    theta: Sequence[float] = (),
) -> np.ndarray:
    """Convenience wrapper returning the flat statevector of length 2**n.

    The flattening uses qubit 0 as the most-significant bit, consistent with
    the tensor layout. Accepts a circuit (compiled through the plan cache)
    or a :class:`GatePlan`.
    """
    if isinstance(circuit_or_plan, GatePlan):
        plan = circuit_or_plan
        state = StatevectorSimulator(plan.num_qubits).run_plan(plan, theta)
    else:
        circuit = circuit_or_plan
        sim = StatevectorSimulator(circuit.num_qubits)
        if circuit.num_parameters:
            state = sim.run_plan(compile_plan(circuit), theta)
        else:
            state = sim.run_circuit(circuit)
    return state.reshape(-1)
