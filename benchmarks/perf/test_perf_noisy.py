"""Perf benchmarks for the vectorized noisy-execution engine.

One cost family, normalized within itself (see ``tools/check_bench.py``):
``noisy_counts_walk_8q`` — the pre-engine shot path (per-instruction
density-matrix Kraus walk, gate matrices and channel operator lists
rebuilt per call, explicit Python loop over Kraus operators) — is the
family's unit of measurement. Against it runs ``noisy_counts_8q``, the
shot-level :class:`~repro.backends.counts.CountsBackend` hot path on the
compiled :class:`~repro.compiler.NoisePlan` (channel-aware fusion,
unitary absorption, one superoperator contraction per channel site,
content-cached lowering). The derived ``noisy_engine_speedup_8q`` ratio
is gated in CI with a 5x floor.

The workload is the paper-shaped 8-qubit native-basis ansatz under a
device-style depolarizing model with *virtual* (noiseless) ``rz`` —
IBM's rz is a software frame change, which is exactly what makes
between-channel fusion physical.
"""

from __future__ import annotations

import numpy as np

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.backends.counts import CountsBackend
from repro.noise.noise_model import NoiseModel
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.sampling import counts_from_probabilities
from repro.transpiler.basis import translate_to_basis

QUBITS = 8
SHOTS = 4096


def _noise_model() -> NoiseModel:
    return NoiseModel(
        single_qubit_error=0.004,
        two_qubit_error=0.03,
        gate_overrides={"rz": 0.0},
    )


def _bound_circuit():
    ansatz = EfficientSU2(QUBITS, reps=2)
    theta = np.random.default_rng(2023).uniform(
        -np.pi, np.pi, ansatz.num_parameters
    )
    return translate_to_basis(ansatz.bind(theta))


def test_noisy_counts_walk_8q(record_benchmark):
    """The pre-engine shot path: per-instruction Kraus walk + sampling."""
    circuit = _bound_circuit()
    model = _noise_model()
    simulator = DensityMatrixSimulator(QUBITS)
    rng = np.random.default_rng(7)

    def walk_and_sample():
        rho = simulator.run_circuit_walk(circuit, model)
        return counts_from_probabilities(
            simulator.probabilities(rho), SHOTS, rng
        )

    counts = record_benchmark(
        "noisy_counts_walk_8q",
        walk_and_sample,
        rounds=3,
        reference="noisy_counts_walk_8q",
        qubits=QUBITS,
        shots=SHOTS,
    )
    assert sum(counts.values()) == SHOTS


def test_noisy_counts_8q(record_benchmark):
    """The vectorized engine's shot path, plan-cached and fused."""
    circuit = _bound_circuit()
    backend = CountsBackend(noise_model=_noise_model(), seed=7)
    backend.run(circuit, SHOTS)  # warm the lowering/plan caches

    counts = record_benchmark(
        "noisy_counts_8q",
        lambda: backend.run(circuit, SHOTS),
        rounds=5,
        reference="noisy_counts_walk_8q",
        qubits=QUBITS,
        shots=SHOTS,
    )
    assert sum(counts.values()) == SHOTS
    # Sanity: the engine's distribution matches the walk's to 1e-12.
    simulator = DensityMatrixSimulator(QUBITS)
    walk_probs = simulator.probabilities(
        simulator.run_circuit_walk(circuit, _noise_model())
    )
    np.testing.assert_allclose(
        backend.probabilities(circuit), walk_probs, atol=1e-12, rtol=0.0
    )
