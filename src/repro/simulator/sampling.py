"""Shot sampling: probabilities -> measurement counts."""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.utils.rng import SeedLike, ensure_rng


def _bitstring(index: int, num_qubits: int) -> str:
    """Index -> bitstring with qubit 0 as the leftmost character."""
    return format(index, f"0{num_qubits}b")


def counts_from_probabilities(
    probabilities: np.ndarray, shots: int, seed: SeedLike = None
) -> Dict[str, int]:
    """Multinomially sample ``shots`` outcomes from a distribution."""
    probs = np.asarray(probabilities, dtype=float)
    if probs.ndim != 1:
        raise ValueError("probabilities must be one-dimensional")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    num_qubits = int(np.log2(probs.size))
    if 2**num_qubits != probs.size:
        raise ValueError("probability vector length must be a power of two")
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if total <= 0:
        raise ValueError("probabilities sum to zero")
    probs = probs / total
    rng = ensure_rng(seed)
    draws = rng.multinomial(shots, probs)
    return {
        _bitstring(i, num_qubits): int(count)
        for i, count in enumerate(draws)
        if count > 0
    }


def sample_counts(
    state_or_probs: np.ndarray, shots: int, seed: SeedLike = None
) -> Dict[str, int]:
    """Sample counts from either a statevector or a probability vector.

    Complex input is interpreted as a statevector (probabilities are its
    squared magnitudes); real input as a probability vector.
    """
    arr = np.asarray(state_or_probs)
    if np.iscomplexobj(arr):
        probs = np.abs(arr.reshape(-1)) ** 2
    else:
        probs = arr.reshape(-1).astype(float)
    return counts_from_probabilities(probs, shots, seed)


def probabilities_from_counts(counts: Dict[str, int]) -> Dict[str, float]:
    """Normalize counts into empirical probabilities."""
    total = sum(counts.values())
    if total <= 0:
        raise ValueError("counts are empty")
    return {bits: value / total for bits, value in counts.items()}


def sample_plan(
    plan_or_circuit,
    theta=(),
    shots: int = 1024,
    seed: SeedLike = None,
) -> Dict[str, int]:
    """Sample measurement counts from a compiled plan (or circuit).

    The sampling layer's :class:`~repro.compiler.GatePlan` consumer:
    circuits compile through the shared plan cache, so repeated sampling
    of the same circuit never recompiles.
    """
    from repro.simulator.statevector import simulate_statevector

    state = simulate_statevector(plan_or_circuit, theta)
    return sample_counts(state, shots, seed)
