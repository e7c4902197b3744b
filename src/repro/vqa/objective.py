"""The VQE energy objective: ansatz + Hamiltonian -> E(theta)."""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.ansatz.base import Ansatz
from repro.operators.pauli_sum import PauliSum
from repro.simulator.batched import BatchedStatevectorSimulator
from repro.simulator.statevector import StatevectorSimulator

#: Up to this many qubits the Hamiltonian is cached as a dense matrix
#: (one matrix-vector product per evaluation). Above it, densification
#: would cost ``O(4**n)`` memory — 67 MB at 11 qubits, 268 MB at 12 — so
#: evaluation routes through the matrix-free bitmask Pauli path instead
#: (``O(terms * 2**n)`` per evaluation, no large cache).
_DENSE_LIMIT_QUBITS = 10

#: How many of its latest serial energies an objective remembers for
#: :meth:`EnergyObjective.energy_at`. A VQE run re-asks for points it
#: has just evaluated (the accepted point's true energy, QISMET's rerun
#: of the previous circuit), and these sit among the last few serial
#: evaluations.
ENERGY_MEMO_SIZE = 4


def _memo_key(theta) -> Tuple[Tuple[int, ...], bytes]:
    theta = np.asarray(theta, dtype=float)
    return theta.shape, theta.tobytes()


class EnergyObjective:
    """Exact (transient-free, noise-free) energy evaluation.

    For small systems the Hamiltonian is cached as a dense matrix — built
    *lazily* on first exact evaluation, so constructing an objective for
    sampled (counts-based) estimation stays O(terms) — and each evaluation
    is one circuit simulation plus one matrix-vector product. Larger
    systems use the matrix-free Pauli-application fast path.

    :meth:`batch_energies` evaluates a whole ``(B, P)`` block of parameter
    sets through the batched simulator in one NumPy pass; results match
    serial :meth:`ideal_energy` calls to within floating-point
    reassociation (<= 1e-12 absolute), and bit for bit on the
    small-state route (:mod:`repro.simulator.small_state`).

    :meth:`ideal_energy` always simulates and remembers its last
    :data:`ENERGY_MEMO_SIZE` results, keyed on the exact bytes of
    ``theta``; :meth:`energy_at` serves a remembered point from that
    memo, so a repeat costs a dict lookup and returns the very float the
    simulation returned.
    """

    def __init__(self, ansatz: Ansatz, hamiltonian: PauliSum):
        if ansatz.num_qubits != hamiltonian.num_qubits:
            raise ValueError(
                f"ansatz acts on {ansatz.num_qubits} qubits but the "
                f"Hamiltonian on {hamiltonian.num_qubits}"
            )
        self.ansatz = ansatz
        self.hamiltonian = hamiltonian
        #: The compiled (fused, cached) execution form of the ansatz.
        self._plan = ansatz.plan
        self._simulator = StatevectorSimulator(ansatz.num_qubits)
        self._batched_simulator = BatchedStatevectorSimulator(ansatz.num_qubits)
        self._dense: Optional[np.ndarray] = None
        self._memo: Dict[Tuple[Tuple[int, ...], bytes], float] = {}
        self.evaluations = 0

    @property
    def num_parameters(self) -> int:
        return self.ansatz.num_parameters

    @property
    def num_qubits(self) -> int:
        return self.ansatz.num_qubits

    @property
    def uses_dense_hamiltonian(self) -> bool:
        """Whether exact evaluation uses the dense-matrix cache."""
        return self.num_qubits <= _DENSE_LIMIT_QUBITS

    def _dense_matrix(self) -> np.ndarray:
        """The dense Hamiltonian, built on first use and cached."""
        if self._dense is None:
            self._dense = self.hamiltonian.to_matrix()
        return self._dense

    def statevector(self, theta: np.ndarray) -> np.ndarray:
        state = self._simulator.run_plan(self._plan, theta)
        return state.reshape(-1)

    def ideal_energy(self, theta: np.ndarray) -> float:
        """Exact ``<psi(theta)|H|psi(theta)>``, simulated on every call."""
        self.evaluations += 1
        state = self._simulator.run_plan(self._plan, theta)
        psi = state.reshape(-1)
        if self.uses_dense_hamiltonian:
            dense = self._dense_matrix()
            energy = float(np.real(np.vdot(psi, dense @ psi)))
        else:
            energy = self.hamiltonian.expectation(psi)
        if ENERGY_MEMO_SIZE > 0:
            key = _memo_key(theta)
            self._memo.pop(key, None)
            self._memo[key] = energy
            while len(self._memo) > ENERGY_MEMO_SIZE:
                del self._memo[next(iter(self._memo))]
        return energy

    def energy_at(self, theta: np.ndarray) -> float:
        """:meth:`ideal_energy`, unless a recent one already computed it.

        Only serial evaluations fill the memo; a miss simulates.
        """
        energy = self._memo.get(_memo_key(theta))
        if energy is None:
            return self.ideal_energy(theta)
        return energy

    def batch_energies(self, thetas: np.ndarray) -> np.ndarray:
        """Exact energies for a ``(B, P)`` batch of parameter vectors.

        The whole batch runs through the ansatz in one vectorized pass
        (one NumPy contraction per gate instead of ``B``), which is the
        hot-path lever for SPSA pairs, resampled gradients and multi-seed
        populations. ``batch_energies(thetas)[i]`` equals
        ``ideal_energy(thetas[i])`` bit for bit on the small-state route
        and up to fp reassociation (<= 1e-12) above it. Batched rows do
        not fill the :meth:`energy_at` memo.
        """
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected thetas of shape (B, {self.num_parameters}), "
                f"got {thetas.shape}"
            )
        self.evaluations += thetas.shape[0]
        states = self._batched_simulator.run_flat(self._plan, thetas)
        if self.uses_dense_hamiltonian:
            dense = self._dense_matrix()
            # Per-element matvec keeps the reduction order of the serial
            # path (dgemv, not one big dgemm); the simulation is where the
            # batch speedup lives, and at <= 2**10 dims this loop is noise.
            return np.array(
                [float(np.real(np.vdot(psi, dense @ psi))) for psi in states]
            )
        return np.asarray(self.hamiltonian.batch_expectations(states), dtype=float)

    def batch_statevectors(self, thetas: np.ndarray) -> np.ndarray:
        """Flat ``(B, 2**n)`` statevectors for a ``(B, P)`` batch."""
        thetas = np.asarray(thetas, dtype=float)
        return self._batched_simulator.run_flat(self._plan, thetas)

    def __call__(self, theta: np.ndarray) -> float:
        return self.ideal_energy(theta)

    # Characteristics used by static-noise modelling -------------------------

    def gate_counts(self) -> tuple:
        """(single-qubit, two-qubit) gate counts of the ansatz circuit.

        Read from the plan's *pre-fusion* source counts, so static-noise
        survival factors always see the physical circuit regardless of
        how the execution schedule was fused.
        """
        return self._plan.source_gate_counts

    def mixed_state_energy(self) -> float:
        """Energy of the maximally mixed state (identity coefficient)."""
        return self.hamiltonian.maximally_mixed_expectation()

    def initial_point(self, seed=None, scale: float = 0.1) -> np.ndarray:
        return self.ansatz.initial_point(seed=seed, scale=scale)
