"""Density-matrix simulation with Kraus noise channels.

The state is a rank-``2n`` tensor: axes ``0..n-1`` are ket indices and axes
``n..2n-1`` the corresponding bra indices. Gate application conjugates by
the unitary; channels apply a sum over Kraus operators. Intended for small
systems (n <= ~10), which covers every workload in the paper.

Noisy execution consumes the compiler's channel-aware
:class:`~repro.compiler.noise_plan.NoisePlan` IR: gate runs between
channel sites arrive pre-fused, adjacent unitaries arrive absorbed into
the channel Kraus stacks, and each channel site carries a pre-compiled
superoperator so applying it is ONE tensordot regardless of how many
Kraus operators the channel has (a two-qubit depolarizing channel has 16;
the historic loop paid 32 full-state contractions per site — it survives
as :meth:`~DensityMatrixSimulator.apply_kraus_loop`, the parity
reference).
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATES
from repro.compiler import GatePlan, NoisePlan, compile_noise_plan, compile_plan
from repro.compiler.ir import KERNEL_DIAGONAL
from repro.compiler.noise_plan import kraus_superoperator
from repro.obs import TRACER
from repro.simulator import kernels
from repro.simulator.kernels import apply_gate_tensordot


class DensityMatrixSimulator:
    """Executes circuits on mixed states, optionally with a noise model."""

    def __init__(self, num_qubits: int):
        if num_qubits < 1:
            raise ValueError("need at least one qubit")
        self.num_qubits = num_qubits

    # -- state helpers ---------------------------------------------------------

    def zero_state(self) -> np.ndarray:
        dim = 2**self.num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho.reshape((2,) * (2 * self.num_qubits))

    def to_matrix(self, rho: np.ndarray) -> np.ndarray:
        dim = 2**self.num_qubits
        return rho.reshape(dim, dim)

    def _as_tensor(self, initial_state: Optional[np.ndarray]) -> np.ndarray:
        if initial_state is None:
            return self.zero_state()
        return np.array(initial_state, dtype=complex).reshape(
            (2,) * (2 * self.num_qubits)
        )

    # -- evolution ---------------------------------------------------------------

    def _bra(self, qubits: Tuple[int, ...]) -> Tuple[int, ...]:
        """Tensor axes of the bra indices of ``qubits``."""
        return tuple(self.num_qubits + q for q in qubits)

    def apply_unitary(
        self, rho: np.ndarray, matrix: np.ndarray, qubits: Tuple[int, ...]
    ) -> np.ndarray:
        """``U rho U^dagger`` through the tensordot reference."""
        rho = apply_gate_tensordot(rho, matrix, qubits)
        return apply_gate_tensordot(rho, matrix.conj(), self._bra(qubits))

    def _apply_unitary_pair(
        self,
        rho: np.ndarray,
        matrix: np.ndarray,
        qubits: Tuple[int, ...],
        kernel_class: Optional[str],
        scratch: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Left/right multiplication through the bit-indexed kernels.

        The rank-``2n`` density tensor is a ``2n``-qubit state to the
        kernels: the left multiply targets the ket axes ``qubits``, the
        right multiply applies the conjugate matrix on the bra axes
        ``n + q`` (conjugation preserves the kernel class).  Returns the
        updated ``(rho, scratch)`` ping-pong pair.
        """
        for target, operator in ((qubits, matrix), (self._bra(qubits), matrix.conj())):
            out = kernels.apply_gate(
                rho, operator, target, kernel_class=kernel_class,
                scratch=scratch, in_place=True,
            )
            if out is not rho:
                rho, scratch = out, rho
        return rho, scratch

    def apply_superop(
        self, rho: np.ndarray, superop: np.ndarray, qubits: Tuple[int, ...]
    ) -> np.ndarray:
        """Apply a pre-compiled ``(4**k, 4**k)`` channel superoperator.

        The superoperator acts on the site's combined ket/bra axes, so a
        whole channel — however many Kraus operators it folded in — is
        ONE tensordot over ``2k`` tensor axes, the same cost shape as a
        ``2k``-qubit gate on a statevector.
        """
        return apply_gate_tensordot(
            rho, superop, tuple(qubits) + self._bra(qubits)
        )

    def apply_kraus(
        self,
        rho: np.ndarray,
        kraus_ops: Union[np.ndarray, Iterable[np.ndarray]],
        qubits: Tuple[int, ...],
    ) -> np.ndarray:
        """Apply a channel given by Kraus operators on ``qubits``.

        ``kraus_ops`` may be a pre-stacked ``(K, 2**k, 2**k)`` array (the
        :class:`~repro.compiler.noise_plan.ChannelOp` form) or any
        iterable of matrices. The stack is folded into its superoperator
        with one stacked tensordot + operator-axis sum
        (:func:`~repro.compiler.noise_plan.kraus_superoperator`) and
        applied as a single contraction — replacing the historic Python
        loop of ``2K`` full-state contractions per channel.
        """
        if isinstance(kraus_ops, np.ndarray):
            kraus = np.asarray(kraus_ops, dtype=complex)
        else:
            kraus = np.asarray(list(kraus_ops), dtype=complex)
        if kraus.ndim != 3 or kraus.shape[0] == 0:
            raise ValueError("Kraus operators must stack to a (K, d, d) array")
        return self.apply_superop(rho, kraus_superoperator(kraus), qubits)

    def apply_kraus_loop(
        self,
        rho: np.ndarray,
        kraus_ops: Iterable[np.ndarray],
        qubits: Tuple[int, ...],
    ) -> np.ndarray:
        """Explicit per-operator channel application.

        The pre-vectorization reference implementation, kept for the
        stacked-vs-loop parity contract (``<= 1e-12``; see
        ``tests/test_noise_plan.py``) and the perf baseline.
        """
        result = None
        for op in kraus_ops:
            term = self.apply_unitary(rho, op, qubits)
            result = term if result is None else result + term
        if result is None:
            raise ValueError("empty Kraus operator list")
        return result

    def run_plan(
        self,
        plan: GatePlan,
        theta: Sequence[float] = (),
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Unitary evolution of a compiled gate plan (no noise channels).

        Noisy execution goes through :meth:`run_noise_plan`, whose
        channel-aware IR keeps the per-physical-gate channel sites that a
        plain fused plan no longer exposes.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan qubit count mismatch")
        rho = self._as_tensor(initial_state)
        matrices = plan.slot_matrices(plan.bind_angles(theta))
        scratch = np.empty_like(rho)
        with TRACER.span(
            "sim.density_matrix.run_plan", category="kernel",
            ops=len(plan.ops), state_size=4**plan.num_qubits,
        ):
            for op in plan.ops:
                matrix = op.matrix if op.matrix is not None else matrices[op.slot]
                rho, scratch = self._apply_unitary_pair(
                    rho, matrix, op.qubits, op.kernel_class, scratch
                )
        return rho

    def run_noise_plan(
        self,
        plan: NoisePlan,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Execute a channel-aware noise plan.

        Unitary ops (pre-fused between channel sites) conjugate the
        state through the bit-indexed kernels; channel sites apply their
        pre-compiled superoperator as one contraction
        (:meth:`apply_superop`) or, when it is diagonal (pure dephasing),
        as one in-place multiply on the combined ket/bra axes.
        """
        if plan.num_qubits != self.num_qubits:
            raise ValueError("plan qubit count mismatch")
        rho = self._as_tensor(initial_state)
        scratch = np.empty_like(rho)

        def superop_site(op) -> None:
            nonlocal rho, scratch
            if op.superop_class == KERNEL_DIAGONAL:
                out = kernels.apply_gate(
                    rho, op.superop, tuple(op.qubits) + self._bra(op.qubits),
                    kernel_class=KERNEL_DIAGONAL, scratch=scratch,
                    in_place=True,
                )
                if out is not rho:
                    rho, scratch = out, rho
            else:
                rho = self.apply_superop(rho, op.superop, op.qubits)
                if not rho.flags.c_contiguous:
                    np.copyto(scratch, rho)
                    rho, scratch = scratch, rho

        def step(op) -> None:
            nonlocal rho, scratch
            if op.matrix is not None:
                rho, scratch = self._apply_unitary_pair(
                    rho, op.matrix, op.qubits, op.kernel_class, scratch
                )
            else:
                superop_site(op)

        with TRACER.span(
            "sim.density_matrix.run_noise_plan", category="kernel",
            ops=len(plan.ops), state_size=4**plan.num_qubits,
        ):
            for op in plan.ops:
                step(op)
        return rho

    def run_circuit(
        self,
        circuit: QuantumCircuit,
        noise_model=None,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Run a bound circuit, applying per-gate noise if a model is given.

        ``noise_model`` follows the ``repro.noise.NoiseModel`` protocol:
        ``channels_for(gate_name, qubits)`` yields ``(kraus_ops, qubits)``
        pairs applied after the ideal gate. Both the noise-free and the
        noisy path compile through the shared plan cache — noisy circuits
        lower to a channel-aware :class:`~repro.compiler.NoisePlan` with
        static-gate fusion *between* channel sites.
        """
        if circuit.num_parameters:
            raise ValueError("circuit has unbound parameters; bind it first")
        if noise_model is None:
            return self.run_plan(
                compile_plan(circuit), np.empty(0), initial_state
            )
        return self.run_noise_plan(
            compile_noise_plan(circuit, noise_model), initial_state
        )

    def run_circuit_walk(
        self,
        circuit: QuantumCircuit,
        noise_model=None,
        initial_state: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """The pre-plan per-instruction noisy walk (parity/perf reference).

        Rebuilds each gate matrix and channel Kraus list per instruction
        and applies channels through the explicit operator loop — exactly
        the historic noisy ``run_circuit`` path. Kept as the reference
        implementation the vectorized engine is benchmarked and
        parity-tested against.
        """
        if circuit.num_parameters:
            raise ValueError("circuit has unbound parameters; bind it first")
        rho = self._as_tensor(initial_state)
        for inst in circuit:
            if inst.name == "barrier":
                continue
            matrix = GATES[inst.name].matrix(tuple(float(p) for p in inst.params))
            rho = self.apply_unitary(rho, matrix, inst.qubits)
            if noise_model is None:
                continue
            for kraus_ops, qubits in noise_model.channels_for(
                inst.name, inst.qubits
            ):
                rho = self.apply_kraus_loop(rho, kraus_ops, qubits)
        return rho

    # -- measurement ----------------------------------------------------------------

    def probabilities(self, rho: np.ndarray) -> np.ndarray:
        """Computational-basis outcome probabilities (length 2**n)."""
        mat = self.to_matrix(rho)
        probs = np.real(np.diag(mat)).copy()
        probs[probs < 0] = 0.0
        total = probs.sum()
        if total > 0:
            probs /= total
        return probs

    def expectation(self, rho: np.ndarray, observable: np.ndarray) -> float:
        """``tr(rho O)`` for a dense observable matrix."""
        mat = self.to_matrix(rho)
        return float(np.real(np.trace(mat @ observable)))

    def purity(self, rho: np.ndarray) -> float:
        mat = self.to_matrix(rho)
        return float(np.real(np.trace(mat @ mat)))
