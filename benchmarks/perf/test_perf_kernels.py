"""Perf benchmarks for the v2 gate kernels (pair vs. tensordot).

Each statevector workload is timed twice: through the simulator's fused
run loop on the bit-indexed pair kernels, and as a benchmark-side loop
over the tensordot reference kernels (``*_tensordot``), one reference
call per plan op. The kernel family gates on the *derived speedup
ratios* (``kernel_speedup_16q >= 4x`` is the headline acceptance gate,
``kernel_speedup_20q >= 3x`` rides along — see ``tools/check_bench.py``).
Every entry is its own ``reference``, which exempts the family from the
generic normalized-regression gate: the explicit speedup floors are the
tighter, variance-tolerant check.

Three workloads:

* ``kernel_vqe_iteration_16q`` — one batched VQE iteration: 8 parameter
  sets through a 16-qubit EfficientSU2(reps=2) plan on the flat batched
  simulator. This is the paper-scale hot loop the kernels exist for.
* ``kernel_statevector_20q`` — a single 20-qubit serial plan execution
  (16 MiB statevector), exercising the chunked cache-blocked path.
* ``kernel_trajectory_16q`` — 4 noisy trajectories at 16 qubits; Kraus
  unraveling dominates its runtime, so it has no reference sibling and
  no floor.

Every entry records a ``bytes_touched`` estimate (from the
``kernel.*.bytes`` counters) for one workload execution, which makes
the benchmark roofline-readable: ``bytes_touched / min_s`` approximates
the sustained memory bandwidth of the gate loop. The reference loops
bypass the dispatcher, so they record zero.
"""

from __future__ import annotations

from typing import Callable, Dict

import numpy as np

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.gates import stacked_gate_matrices
from repro.compiler import compile_noise_plan
from repro.noise.noise_model import NoiseModel
from repro.obs.metrics import METRICS
from repro.simulator.batched import BatchedStatevectorSimulator
from repro.simulator.kernels.reference import (
    apply_gate_tensordot,
    apply_gates_elementwise_reference,
)
from repro.simulator.statevector import StatevectorSimulator
from repro.simulator.trajectory import TrajectorySimulator

_CACHE: Dict[str, object] = {}


def _workload_16q():
    if "16q" not in _CACHE:
        plan = EfficientSU2(16, reps=2).plan
        thetas = np.random.default_rng(2023).uniform(
            -np.pi, np.pi, (8, plan.num_parameters)
        )
        _CACHE["16q"] = (plan, thetas)
    return _CACHE["16q"]


def _workload_20q():
    if "20q" not in _CACHE:
        plan = EfficientSU2(20, reps=1).plan
        theta = np.random.default_rng(7).uniform(
            -np.pi, np.pi, plan.num_parameters
        )
        _CACHE["20q"] = (plan, theta)
    return _CACHE["20q"]


def _workload_traj_16q():
    if "traj" not in _CACHE:
        ansatz = EfficientSU2(16, reps=2)
        circuit = ansatz.bind(
            np.random.default_rng(2023).uniform(
                -np.pi, np.pi, ansatz.num_parameters
            )
        )
        _CACHE["traj"] = compile_noise_plan(
            circuit, NoiseModel(0.004, 0.03), cache=False
        )
    return _CACHE["traj"]


def _kernel_bytes(func: Callable) -> int:
    """Total ``kernel.*.bytes`` delta for one execution of ``func``."""

    def total() -> int:
        return sum(
            value
            for name, value in METRICS.snapshot()["counters"].items()
            if name.startswith("kernel.") and name.endswith(".bytes")
        )

    before = total()
    func()
    return total() - before


def _bench(record_benchmark, name: str, func: Callable, rounds: int, **metadata):
    """Record ``func`` as its own reference, with its kernel traffic."""
    return record_benchmark(
        name,
        func,
        rounds=rounds,
        reference=name,
        bytes_touched=_kernel_bytes(func),
        **metadata,
    )


def _reference_batched(plan, thetas):
    """Batched plan execution as one tensordot-reference call per op."""
    angles = plan.bind_angles_batch(thetas)
    states = BatchedStatevectorSimulator(plan.num_qubits).zero_states(len(thetas))
    for op in plan.ops:
        if op.matrix is not None:
            states = apply_gate_tensordot(states, op.matrix, op.qubits, 1)
        else:
            matrices = stacked_gate_matrices(op.gate_name, angles[:, op.slot])
            states = apply_gates_elementwise_reference(states, matrices, op.qubits)
    return states.reshape(len(thetas), -1)


def _reference_serial(plan, theta):
    """Serial plan execution as one tensordot-reference call per op."""
    state = StatevectorSimulator(plan.num_qubits).zero_state()
    for qubits, matrix in plan.op_matrices(theta):
        state = apply_gate_tensordot(state, matrix, qubits)
    return state


def test_kernel_vqe_iteration_16q_tensordot(record_benchmark):
    plan, thetas = _workload_16q()
    states = _bench(
        record_benchmark,
        "kernel_vqe_iteration_16q_tensordot",
        lambda: _reference_batched(plan, thetas),
        rounds=5,
        qubits=16,
        batch=8,
        engine="tensordot",
    )
    assert np.isfinite(states).all()


def test_kernel_vqe_iteration_16q_pair(record_benchmark):
    plan, thetas = _workload_16q()
    sim = BatchedStatevectorSimulator(16)
    states = _bench(
        record_benchmark,
        "kernel_vqe_iteration_16q",
        lambda: sim.run_flat(plan, thetas),
        rounds=10,
        qubits=16,
        batch=8,
        engine="pair",
    )
    assert np.isfinite(states).all()
    np.testing.assert_allclose(
        states, _reference_batched(plan, thetas), atol=1e-10
    )


def test_kernel_statevector_20q_tensordot(record_benchmark):
    plan, theta = _workload_20q()
    state = _bench(
        record_benchmark,
        "kernel_statevector_20q_tensordot",
        lambda: _reference_serial(plan, theta),
        rounds=3,
        qubits=20,
        engine="tensordot",
    )
    assert np.isfinite(state).all()


def test_kernel_statevector_20q_pair(record_benchmark):
    plan, theta = _workload_20q()
    sim = StatevectorSimulator(20)
    state = _bench(
        record_benchmark,
        "kernel_statevector_20q",
        lambda: sim.run_plan(plan, theta),
        rounds=5,
        qubits=20,
        engine="pair",
    )
    assert np.isfinite(state).all()


def test_kernel_trajectory_16q_pair(record_benchmark):
    plan = _workload_traj_16q()

    def run():
        return TrajectorySimulator(16, seed=7).run_noise_plan(plan, 4)

    states = _bench(
        record_benchmark,
        "kernel_trajectory_16q",
        run,
        rounds=3,
        qubits=16,
        trajectories=4,
        engine="pair",
    )
    assert np.isfinite(states).all()
