"""Fusion correctness: fused execution must match unfused to <= 1e-12.

Property tests over random 2-8 qubit circuits across every simulator
consuming :class:`~repro.compiler.GatePlan` (statevector, batched,
density-matrix, sampling), plus fused-vs-unfused parity on the SPSA/VQE
hot path — the acceptance contract of the unified compiler pipeline.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.library import random_circuit
from repro.circuits.parameter import Parameter
from repro.compiler import clear_plan_cache, compile_plan, fuse_plan
from repro.compiler.passes import _expand_matrix, fuse_static_ops
from repro.compiler.ir import PlanOp
from repro.hamiltonians.tfim import tfim_hamiltonian
from repro.optimizers.spsa import SPSA
from repro.simulator.batched import BatchedStatevectorSimulator
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.sampling import sample_plan
from repro.simulator.statevector import StatevectorSimulator, simulate_statevector
from repro.vqa.objective import EnergyObjective
from repro.vqa.vqe import VQE

TOLERANCE = 1e-12


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_plan_cache()
    yield
    clear_plan_cache()


def _random_parameterized(num_qubits: int, depth: int, seed: int) -> QuantumCircuit:
    """A random circuit mixing static gates and symbolic rotations."""
    rng = np.random.default_rng(seed)
    params = [Parameter(f"t{i}") for i in range(max(2, depth // 4))]
    qc = QuantumCircuit(num_qubits)
    static_1q = ("h", "sx", "s", "x", "t")
    rotations = ("rx", "ry", "rz")
    for _ in range(depth):
        roll = rng.random()
        if num_qubits >= 2 and roll < 0.3:
            a, b = rng.choice(num_qubits, size=2, replace=False)
            qc.cx(int(a), int(b))
        elif roll < 0.6:
            qc.append(str(rng.choice(static_1q)), (int(rng.integers(num_qubits)),))
        else:
            param = params[int(rng.integers(len(params)))]
            coeff = float(rng.choice((1.0, -1.0, 2.0, 0.5)))
            offset = float(rng.uniform(-1.0, 1.0))
            qc.append(
                str(rng.choice(rotations)),
                (int(rng.integers(num_qubits)),),
                (coeff * param + offset,),
            )
    return qc


@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6, 7, 8])
def test_fused_statevector_matches_unfused(num_qubits):
    for seed in range(3):
        depth = 10 + 6 * num_qubits
        qc = _random_parameterized(num_qubits, depth, seed=100 * num_qubits + seed)
        theta = np.random.default_rng(seed).uniform(-np.pi, np.pi, qc.num_parameters)
        params = qc.parameters
        fused = compile_plan(qc, params, fusion=True, cache=False)
        unfused = compile_plan(qc, params, fusion=False, cache=False)
        assert fused.fused and len(fused.ops) < len(unfused.ops)
        sim = StatevectorSimulator(num_qubits)
        sv_fused = sim.run_plan(fused, theta).reshape(-1)
        sv_unfused = sim.run_plan(unfused, theta).reshape(-1)
        np.testing.assert_allclose(sv_fused, sv_unfused, atol=TOLERANCE, rtol=0.0)


@pytest.mark.parametrize("num_qubits", [2, 4, 6])
def test_fused_batched_matches_unfused(num_qubits):
    qc = _random_parameterized(num_qubits, 30, seed=num_qubits)
    params = qc.parameters
    thetas = np.random.default_rng(5).uniform(-np.pi, np.pi, (6, len(params)))
    fused = compile_plan(qc, params, fusion=True, cache=False)
    unfused = compile_plan(qc, params, fusion=False, cache=False)
    sim = BatchedStatevectorSimulator(num_qubits)
    np.testing.assert_allclose(
        sim.run_flat(fused, thetas),
        sim.run_flat(unfused, thetas),
        atol=TOLERANCE,
        rtol=0.0,
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_density_matrix_matches_unfused(seed):
    qc = random_circuit(4, 30, seed=seed)
    fused = compile_plan(qc, fusion=True, cache=False)
    unfused = compile_plan(qc, fusion=False, cache=False)
    dm = DensityMatrixSimulator(4)
    rho_fused = dm.to_matrix(dm.run_plan(fused))
    rho_unfused = dm.to_matrix(dm.run_plan(unfused))
    np.testing.assert_allclose(rho_fused, rho_unfused, atol=TOLERANCE, rtol=0.0)


def test_noiseless_run_circuit_matches_instruction_walk():
    # The DM simulator's plan fast path must agree with the legacy
    # per-instruction walk (exercised via an identity-noise-free run).
    from repro.circuits.gates import GATES

    qc = random_circuit(3, 25, seed=7)
    dm = DensityMatrixSimulator(3)
    rho_plan = dm.to_matrix(dm.run_circuit(qc))
    rho_legacy = dm.zero_state()
    for inst in qc:
        if inst.name == "barrier":
            continue
        matrix = GATES[inst.name].matrix(tuple(float(p) for p in inst.params))
        rho_legacy = dm.apply_unitary(rho_legacy, matrix, inst.qubits)
    np.testing.assert_allclose(
        rho_plan, dm.to_matrix(rho_legacy), atol=TOLERANCE, rtol=0.0
    )


@pytest.mark.parametrize("seed", [3, 8])
def test_fused_sampling_matches_unfused(seed):
    qc = random_circuit(5, 40, seed=seed)
    fused = compile_plan(qc, fusion=True, cache=False)
    unfused = compile_plan(qc, fusion=False, cache=False)
    counts_fused = sample_plan(fused, shots=4096, seed=seed)
    counts_unfused = sample_plan(unfused, shots=4096, seed=seed)
    assert counts_fused == counts_unfused


def test_simulate_statevector_circuit_entry_is_fused_and_correct():
    qc = _random_parameterized(3, 24, seed=42)
    theta = np.linspace(-1.0, 1.0, qc.num_parameters)
    via_circuit = simulate_statevector(qc, theta)
    via_unfused = simulate_statevector(
        compile_plan(qc, qc.parameters, fusion=False, cache=False), theta
    )
    np.testing.assert_allclose(via_circuit, via_unfused, atol=TOLERANCE, rtol=0.0)


# -- fusion internals ------------------------------------------------------------


def test_expand_matrix_embeds_identity_on_extras():
    from repro.circuits.gates import gate_matrix

    h = gate_matrix("h")
    # H on qubit 1 inside support (0, 1): I (x) H in (q0, q1) axis order.
    expanded = _expand_matrix(h, (1,), (0, 1))
    np.testing.assert_allclose(expanded, np.kron(np.eye(2), h), atol=0)
    # H on qubit 0 inside support (0, 1): H (x) I.
    expanded = _expand_matrix(h, (0,), (0, 1))
    np.testing.assert_allclose(expanded, np.kron(h, np.eye(2)), atol=0)


def test_fusion_collapses_native_1q_runs():
    # rz sx rz sx rz (a basis-translated unitary) must fuse to ONE op.
    qc = QuantumCircuit(1)
    qc.rz(0.3, 0)
    qc.sx(0)
    qc.rz(1.1, 0)
    qc.sx(0)
    qc.rz(-0.4, 0)
    plan = compile_plan(qc, fusion=True, cache=False)
    assert len(plan.ops) == 1


def test_fusion_barrier_at_parameterized_ops():
    theta = Parameter("theta")
    qc = QuantumCircuit(1)
    qc.h(0)
    qc.ry(theta, 0)
    qc.h(0)
    plan = compile_plan(qc, (theta,), fusion=True, cache=False)
    # The parameterized ry blocks fusion of the surrounding H gates.
    assert len(plan.ops) == 3


def test_fusion_does_not_merge_across_intervening_touch():
    ops = (
        PlanOp((0, 1), matrix=np.eye(4, dtype=complex)),  # CX-like on (0,1)
        PlanOp((1,), gate_name="ry", slot=0),  # parameterized barrier on q1
        PlanOp((1,), matrix=np.eye(2, dtype=complex)),  # must NOT fuse into op0
    )
    fused = fuse_static_ops(ops, 2)
    assert len(fused) == 3


def test_fuse_plan_is_idempotent():
    qc = random_circuit(3, 20, seed=1)
    plan = compile_plan(qc, fusion=True, cache=False)
    assert fuse_plan(plan) is plan


# -- SPSA/VQE hot-path parity (fusion=False) ------------------------------------


class _UnfusedSU2(EfficientSU2):
    """EfficientSU2 executing its unfused plan (one op per source gate)."""

    @property
    def plan(self):
        return compile_plan(self.circuit, self.parameters, fusion=False)


def _vqe_energies(ansatz, num_iterations: int = 8) -> list:
    objective = EnergyObjective(ansatz, tfim_hamiltonian(4))
    from repro.backends.ideal import IdealBackend

    vqe = VQE(objective, IdealBackend(objective), SPSA(seed=11))
    result = vqe.run(num_iterations, seed=23)
    return [record.machine_energy for record in result.records]


def test_vqe_hot_path_parity_with_fusion_kill_switch():
    unfused = _UnfusedSU2(4, reps=2)
    assert not unfused.plan.fused
    fused_energies = _vqe_energies(EfficientSU2(4, reps=2))
    unfused_energies = _vqe_energies(unfused)
    assert len(fused_energies) == len(unfused_energies)
    np.testing.assert_allclose(
        fused_energies, unfused_energies, atol=1e-10, rtol=0.0
    )
