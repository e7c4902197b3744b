"""The GatePlan IR, vectorized binding, and the shared plan cache.

Fusion *correctness* (fused vs unfused parity across simulators) lives in
``tests/test_compiler_fusion.py``; this module covers the structural
contracts: lowering, the one-affine-map binding, cache keying/LRU
behavior, and the ``fusion=`` and ``cache=`` arguments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import random_circuit
from repro.circuits.parameter import Parameter
from repro.compiler import (
    PLAN_CACHE,
    GatePlan,
    PlanCache,
    clear_plan_cache,
    compile_plan,
    plan_cache_stats,
)
from repro.simulator.statevector import StatevectorSimulator


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _param_circuit() -> QuantumCircuit:
    a, b = Parameter("a"), Parameter("b")
    qc = QuantumCircuit(3)
    qc.h(0)
    qc.ry(a, 0)
    qc.cx(0, 1)
    qc.rz(2 * b + 0.5, 2)
    qc.sx(1)
    qc.rx(b, 1)
    qc.crz(-1.0 * a + 0.25, 1, 2)
    return qc


# -- lowering --------------------------------------------------------------------


def test_plan_records_source_gate_counts():
    qc = _param_circuit()
    plan = compile_plan(qc, fusion=True, cache=False)
    # 5 single-qubit ops + cx + crz, regardless of fusion.
    assert plan.source_gate_counts == (5, 2)
    assert plan.num_1q_gates == 5
    assert plan.num_2q_gates == 2


def test_barriers_are_dropped_in_lowering():
    qc = QuantumCircuit(2)
    qc.h(0)
    qc.barrier()
    qc.cx(0, 1)
    plan = compile_plan(qc, fusion=False, cache=False)
    assert len(plan.ops) == 2


# -- vectorized binding ----------------------------------------------------------


def test_bind_angles_is_affine_map():
    qc = _param_circuit()
    plan = compile_plan(qc, fusion=False, cache=False)
    theta = np.array([0.4, 1.1])
    angles = plan.bind_angles(theta)
    expected = plan.coeffs * theta[plan.param_indices] + plan.offsets
    np.testing.assert_array_equal(angles, expected)
    # ry(a), rz(2b+0.5), rx(b), crz(-a+0.25)
    np.testing.assert_allclose(
        angles, [0.4, 2 * 1.1 + 0.5, 1.1, -0.4 + 0.25], atol=1e-15
    )


def test_bind_angles_batch_matches_rowwise():
    qc = _param_circuit()
    plan = compile_plan(qc, cache=False)
    rng = np.random.default_rng(7)
    thetas = rng.uniform(-np.pi, np.pi, (5, plan.num_parameters))
    batch = plan.bind_angles_batch(thetas)
    assert batch.shape == (5, plan.num_param_ops)
    for i, theta in enumerate(thetas):
        np.testing.assert_array_equal(batch[i], plan.bind_angles(theta))


def test_bind_angles_validates_shape():
    plan = compile_plan(_param_circuit(), cache=False)
    with pytest.raises(ValueError, match="expected 2 parameters"):
        plan.bind_angles(np.zeros(3))
    with pytest.raises(ValueError, match=r"expected thetas of shape \(B, 2\)"):
        plan.bind_angles_batch(np.zeros((4, 3)))


def test_vectorized_program_matches_scalar_constructors():
    # The plan's kind-grouped stacked builders must be bit-identical to
    # a per-op scalar build.
    from repro.circuits.gates import GATES

    plan = compile_plan(_param_circuit(), fusion=False, cache=False)
    theta = np.array([-0.9, 2.2])
    for op, (qubits, matrix) in zip(plan.ops, plan.op_matrices(theta)):
        assert qubits == op.qubits
        if op.matrix is not None:
            np.testing.assert_array_equal(matrix, op.matrix)
        else:
            slot = op.slot
            angle = (
                plan.coeffs[slot] * theta[plan.param_indices[slot]]
                + plan.offsets[slot]
            )
            np.testing.assert_array_equal(
                matrix, GATES[op.gate_name].matrix((angle,))
            )


# -- plan cache ------------------------------------------------------------------


def test_repeated_compile_hits_cache():
    qc = random_circuit(3, 12, seed=3)
    first = compile_plan(qc)
    before = plan_cache_stats()
    second = compile_plan(qc)
    after = plan_cache_stats()
    assert first is second
    assert after["hits"] == before["hits"] + 1


def test_structurally_identical_circuits_share_plans():
    plan_a = EfficientSU2(4, reps=2).plan
    plan_b = EfficientSU2(4, reps=2).plan
    assert plan_a is plan_b
    assert EfficientSU2(4, reps=3).plan is not plan_a


def test_run_circuit_is_compile_free_on_repeat():
    qc = random_circuit(4, 20, seed=11).copy()
    sim = StatevectorSimulator(4)
    first = sim.run_circuit(qc)
    misses_after_first = plan_cache_stats()["misses"]
    for _ in range(3):
        again = sim.run_circuit(qc)
    assert plan_cache_stats()["misses"] == misses_after_first
    np.testing.assert_array_equal(first, again)


def test_cache_lru_eviction():
    cache = PlanCache(capacity=2)
    for key in ("a", "b", "c"):
        cache.get_or_build(key, lambda key=key: key)
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["evictions"] == 1
    # Oldest entry ("a") was evicted: building it again misses.
    cache.get_or_build("a", lambda: "a")
    assert cache.stats()["misses"] == 4
    # A hit on "c" makes "a" the oldest, so inserting "d" evicts "a".
    cache.get_or_build("c", lambda: "c")
    cache.get_or_build("d", lambda: "d")
    cache.get_or_build("c", lambda: "c")
    stats = cache.stats()
    assert (stats["hits"], stats["misses"], stats["evictions"]) == (2, 5, 3)


def test_uncached_compile_builds_fresh_plans():
    qc = random_circuit(2, 5, seed=1)
    first = compile_plan(qc, cache=False)
    second = compile_plan(qc, cache=False)
    assert first is not second
    assert first.key == second.key
    assert plan_cache_stats()["size"] == 0


def test_cache_keys_separate_fused_and_unfused():
    qc = random_circuit(3, 15, seed=9)
    fused = compile_plan(qc, fusion=True)
    unfused = compile_plan(qc, fusion=False)
    assert fused is not unfused
    assert fused.fused and not unfused.fused
    assert len(PLAN_CACHE) == 2


# -- the fusion= argument ------------------------------------------------------


def test_fusion_disabled_produces_unfused_plan():
    qc = random_circuit(3, 20, seed=5)
    fused = compile_plan(qc, cache=False)
    unfused = compile_plan(qc, fusion=False, cache=False)
    assert fused.fused and not unfused.fused
    assert len(unfused.ops) == sum(1 for inst in qc if inst.name != "barrier")
    assert len(fused.ops) < len(unfused.ops)


def test_plan_repr_and_key():
    qc = random_circuit(2, 4, seed=2)
    plan = compile_plan(qc)
    assert isinstance(plan, GatePlan)
    assert plan.key and plan.key.startswith("plan:")
    assert "GatePlan" in repr(plan)
