"""Quantum circuit intermediate representation.

The IR is deliberately small: a :class:`QuantumCircuit` is an ordered list
of gate instructions over named qubits, with optional symbolic
:class:`Parameter` angles. For hot loops (VQE objective evaluations), a
circuit compiles down to a :class:`~repro.compiler.GatePlan` that the
simulators execute without re-touching Python-level instruction objects.
"""

from repro.circuits.parameter import Parameter, ParameterExpression, ParameterVector
from repro.circuits.gates import GATES, GateSpec, gate_matrix
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.library import (
    bell_pair,
    ghz_circuit,
    layered_cx_circuit,
    random_circuit,
)

__all__ = [
    "Parameter",
    "ParameterExpression",
    "ParameterVector",
    "GATES",
    "GateSpec",
    "gate_matrix",
    "Instruction",
    "QuantumCircuit",
    "bell_pair",
    "ghz_circuit",
    "layered_cx_circuit",
    "random_circuit",
]
