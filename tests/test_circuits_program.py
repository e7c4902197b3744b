"""Lowering symbolic circuits into executable gate plans."""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.compiler import compile_plan
from repro.simulator.statevector import simulate_statevector


def test_compiled_matches_bound_circuit():
    theta = Parameter("t")
    phi = Parameter("p")
    qc = QuantumCircuit(2)
    qc.ry(theta, 0)
    qc.cx(0, 1)
    qc.rz(phi, 1)
    plan = compile_plan(qc, cache=False)
    values = [0.4, -0.9]
    sv_plan = simulate_statevector(plan, values)
    sv_bound = simulate_statevector(qc.bind(values))
    assert np.allclose(sv_plan, sv_bound, atol=1e-12)


def test_explicit_parameter_order():
    a, b = Parameter("a"), Parameter("b")
    qc = QuantumCircuit(1)
    qc.ry(a, 0)
    qc.rz(b, 0)
    plan = compile_plan(qc, parameters=[b, a], cache=False)
    # values now ordered (b, a)
    sv = simulate_statevector(plan, [0.3, 0.7])
    ref = simulate_statevector(qc.bind({a: 0.7, b: 0.3}))
    assert np.allclose(sv, ref)


def test_affine_expression_compiles():
    theta = Parameter("t")
    qc = QuantumCircuit(1)
    qc.ry(2.0 * theta + 0.5, 0)
    plan = compile_plan(qc, cache=False)
    np.testing.assert_array_equal(plan.coeffs, [2.0])
    np.testing.assert_array_equal(plan.offsets, [0.5])
    sv = simulate_statevector(plan, [0.25])
    ref = simulate_statevector(qc.bind({theta: 0.25}))
    assert np.allclose(sv, ref)


def test_barriers_skipped():
    qc = QuantumCircuit(1)
    qc.x(0)
    qc.barrier()
    plan = compile_plan(qc, fusion=False, cache=False)
    assert len(plan.ops) == 1


def test_missing_parameter_raises():
    a, b = Parameter("a"), Parameter("b")
    qc = QuantumCircuit(1)
    qc.ry(a, 0)
    with pytest.raises(KeyError):
        compile_plan(qc, parameters=[b], cache=False)


def test_wrong_theta_shape():
    theta = Parameter("t")
    qc = QuantumCircuit(1)
    qc.ry(theta, 0)
    plan = compile_plan(qc, cache=False)
    with pytest.raises(ValueError):
        list(plan.op_matrices([0.1, 0.2]))


def test_multi_param_gate_rejected():
    qc = QuantumCircuit(1)
    t = Parameter("t")
    qc.u(t, 0.0, 0.0, 0)
    with pytest.raises(ValueError):
        compile_plan(qc, cache=False)
