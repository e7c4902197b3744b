"""Gate-application kernel dispatch for every simulation engine.

The three simulators (serial / batched statevector and the
density-matrix left/right multiplications) route gate application
through :func:`apply_gate` / :func:`apply_gates_elementwise` here.
Dispatch is a table lookup on the op's pre-lowered *kernel class*
(:mod:`repro.compiler.ir`): diagonal and permutation matrices update the
state **in place**, dense 1q/2q gates GEMM into a ping-pong ``scratch``
buffer, and dense ``k >= 3`` operators — like every state smaller than
:data:`PAIR_MIN_STATE_SIZE` — take the tensordot reference
(:mod:`repro.simulator.kernels.reference`).  The serial and batched
statevector simulators share one fused run loop, :func:`run_fused`, for
plans wider than the small-state boundary; smaller plans run as a
layered program (:mod:`repro.simulator.small_state`), which bumps the
same counters once per execution from its step histogram.

Call convention for the run loops::

    out = apply_gate(state, matrix, qubits, kernel_class=op.kernel_class,
                     scratch=scratch, in_place=True)
    if out is not state:
        state, scratch = out, state

With ``in_place=False`` (the default, and the public API contract) the
input array is never mutated: in-place classes copy first, dense classes
write a fresh buffer.

Every application bumps ``kernel.<class>.calls`` and an estimated
``kernel.<class>.bytes`` counter in :data:`repro.obs.METRICS` —
``python -m repro.obs report`` folds them into a per-class scoreboard.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.compiler.ir import (
    KERNEL_1Q_PAIR,
    KERNEL_2Q_QUAD,
    KERNEL_CLASSES,
    KERNEL_DENSE,
    KERNEL_DIAGONAL,
    GatePlan,
    kernel_class_of_matrix,
)
from repro.obs.metrics import METRICS
from repro.simulator.kernels.pair import (
    ELEMENTWISE_MIN_SIZE,
    apply_dense_elementwise,
    apply_dense_shared,
    apply_diagonal_elementwise,
    apply_diagonal_shared,
    apply_permutation_shared,
    is_permutation,
    sort_diagonal,
    sort_operator,
)
from repro.simulator.kernels.reference import (
    apply_gate_tensordot,
    apply_gates_elementwise_reference,
)

__all__ = [
    "FusionWindow",
    "KERNEL_CLASSES",
    "MAX_FUSED_SPAN",
    "PassthroughWindow",
    "PendingOneQubitGates",
    "fusion_window",
    "absorb_pending_2q",
    "apply_gate",
    "apply_gate_tensordot",
    "apply_gates_elementwise",
    "apply_gates_elementwise_reference",
    "flush_pending_paired",
    "kron_1q",
    "run_fused",
]

#: States smaller than this many elements route to the tensordot
#: reference even under the pair engine: below ~12 serial qubits the
#: whole state lives in L1/L2 and per-op dispatch overhead (operator
#: sorting, permutation detection, block bookkeeping) dominates the
#: arithmetic, so the reference's single fused einsum wins. Measured
#: crossover on the 8q fused-plan benchmark: pair 1.9 ms vs. reference
#: 0.8 ms; at 16q the pair kernels win by >4x.
PAIR_MIN_STATE_SIZE = 1 << 12


def _bump(kernel_class: str, nbytes: float) -> None:
    METRICS.counter(f"kernel.{kernel_class}.calls").inc()
    METRICS.counter(f"kernel.{kernel_class}.bytes").inc(int(nbytes))


def _dense_fallback(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    batch_axes: int,
    scratch: Optional[np.ndarray],
) -> np.ndarray:
    """Tensordot fallback that keeps the pair loops' ping-pong contiguous."""
    result = apply_gate_tensordot(state, matrix, qubits, batch_axes)
    if scratch is not None:
        np.copyto(scratch, result)
        return scratch
    return result


def apply_gate(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    *,
    batch_axes: int = 0,
    kernel_class: Optional[str] = None,
    scratch: Optional[np.ndarray] = None,
    in_place: bool = False,
) -> np.ndarray:
    """Apply one shared ``(2**k, 2**k)`` matrix to a state tensor.

    ``state`` has ``batch_axes`` leading batch axes followed by one
    tensor axis per qubit (the density-matrix simulator passes its
    rank-``2n`` tensor with bra qubits numbered ``n..2n-1``).  Returns
    the updated array — ``state`` itself for in-place classes, the
    ``scratch`` (or a fresh) buffer for dense classes.
    """
    if kernel_class is None:
        kernel_class = kernel_class_of_matrix(matrix)
    nbytes = state.nbytes
    n = state.ndim - batch_axes
    k = len(qubits)
    if (
        state.size < PAIR_MIN_STATE_SIZE
        or not state.flags.c_contiguous
        or matrix.shape[0] != 1 << k
    ):
        _bump(kernel_class, 4 * nbytes)
        return _dense_fallback(state, matrix, qubits, batch_axes, scratch)
    if kernel_class == KERNEL_DIAGONAL:
        if not in_place:
            state = state.copy()
        diag, sorted_qubits = sort_diagonal(np.diagonal(matrix), qubits)
        touched = apply_diagonal_shared(
            state.reshape(-1), diag, sorted_qubits, n
        )
        _bump(kernel_class, 2 * nbytes * touched / (1 << k))
        return state
    contiguous_dense = (
        kernel_class == KERNEL_DENSE and max(qubits) - min(qubits) == k - 1
    )
    if kernel_class in (KERNEL_1Q_PAIR, KERNEL_2Q_QUAD) or contiguous_dense:
        sorted_matrix, sorted_qubits = sort_operator(matrix, qubits)
        if is_permutation(sorted_matrix):
            if not in_place:
                state = state.copy()
            spare = (
                scratch.reshape(-1)
                if scratch is not None and scratch.flags.c_contiguous
                else None
            )
            moved = apply_permutation_shared(
                state.reshape(-1), sorted_matrix, sorted_qubits, n, spare
            )
            _bump(kernel_class, 2 * nbytes * moved / (1 << k))
            return state
        out = scratch if scratch is not None else np.empty_like(state)
        apply_dense_shared(
            state.reshape(-1), out.reshape(-1), sorted_matrix, sorted_qubits, n
        )
        _bump(kernel_class, 2 * nbytes)
        return out
    _bump(KERNEL_DENSE, 4 * nbytes)
    return _dense_fallback(state, matrix, qubits, batch_axes, scratch)


def _elementwise_class(matrices: np.ndarray) -> str:
    """Kernel class of a per-element matrix stack (all-diagonal or dense)."""
    dim = matrices.shape[1]
    off_diagonal = matrices[:, ~np.eye(dim, dtype=bool)]
    if not np.any(off_diagonal):
        return KERNEL_DIAGONAL
    return {2: KERNEL_1Q_PAIR, 4: KERNEL_2Q_QUAD}.get(dim, KERNEL_DENSE)


def apply_gates_elementwise(
    states: np.ndarray,
    matrices: np.ndarray,
    qubits: Tuple[int, ...],
    *,
    kernel_class: Optional[str] = None,
    scratch: Optional[np.ndarray] = None,
    in_place: bool = False,
) -> np.ndarray:
    """Apply per-batch-element matrices ``(B, 2**k, 2**k)``.

    Diagonal stacks update in place as one broadcast multiply; dense
    stacks either loop the shared GEMM kernels over the (contiguous)
    batch elements — when each element is large enough to amortize the
    per-call cost — or take the batched-matmul reference path.
    """
    if kernel_class is None:
        kernel_class = _elementwise_class(matrices)
    nbytes = states.nbytes
    n = states.ndim - 1
    k = len(qubits)
    if not states.flags.c_contiguous or matrices.shape[1] != 1 << k:
        _bump(kernel_class, 4 * nbytes)
        result = apply_gates_elementwise_reference(states, matrices, qubits)
        if scratch is not None:
            np.copyto(scratch, result)
            return scratch
        return result
    if kernel_class == KERNEL_DIAGONAL:
        if not in_place:
            states = states.copy()
        diags = np.diagonal(matrices, axis1=1, axis2=2)
        if list(qubits) != sorted(qubits):
            order = sorted(range(k), key=lambda i: qubits[i])
            diags = (
                diags.reshape((diags.shape[0],) + (2,) * k)
                .transpose((0,) + tuple(i + 1 for i in order))
                .reshape(diags.shape[0], -1)
            )
            qubits = tuple(qubits[i] for i in order)
        touched = apply_diagonal_elementwise(states, diags, qubits, n)
        _bump(kernel_class, 2 * nbytes * touched / (1 << k))
        return states
    element_size = 1 << n
    contiguous_dense = (
        kernel_class == KERNEL_DENSE and max(qubits) - min(qubits) == k - 1
    )
    if (
        kernel_class in (KERNEL_1Q_PAIR, KERNEL_2Q_QUAD) or contiguous_dense
    ) and element_size >= ELEMENTWISE_MIN_SIZE:
        if list(qubits) != sorted(qubits):
            order = sorted(range(k), key=lambda i: qubits[i])
            perm = tuple(i + 1 for i in order) + tuple(i + 1 + k for i in order)
            matrices = np.ascontiguousarray(
                matrices.reshape((matrices.shape[0],) + (2,) * (2 * k))
                .transpose((0,) + perm)
                .reshape(matrices.shape)
            )
            qubits = tuple(qubits[i] for i in order)
        out = scratch if scratch is not None else np.empty_like(states)
        apply_dense_elementwise(states, out, matrices, qubits, n)
        _bump(kernel_class, 2 * nbytes)
        return out
    _bump(kernel_class, 4 * nbytes)
    result = apply_gates_elementwise_reference(states, matrices, qubits)
    if scratch is not None:
        np.copyto(scratch, result)
        return scratch
    return result


class PendingOneQubitGates:
    """Lazily accumulated single-qubit gates, merged per target qubit.

    Consecutive 1q ops on the same qubit compose as a single 2x2 (or
    per-element ``(B, 2, 2)``) product before touching the state, and 1q
    ops on *different* qubits commute — so a whole ansatz layer of
    ``ry`` + ``rz`` rotations flushes as one dense update per qubit.
    Multi-qubit ops flush their target qubits first; plan end flushes
    the rest (ascending qubit order, so results are deterministic).
    """

    __slots__ = ("matrices", "classes", "active")

    def __init__(self, num_qubits: int):
        self.matrices = [None] * num_qubits
        self.classes = [None] * num_qubits
        self.active: list = []

    def push(self, qubit: int, matrix: np.ndarray, kernel_class: str) -> None:
        held = self.matrices[qubit]
        if held is None:
            self.matrices[qubit] = matrix
            self.classes[qubit] = kernel_class
            self.active.append(qubit)
            return
        # matmul broadcasts shared (2, 2) against per-element (B, 2, 2).
        self.matrices[qubit] = np.matmul(matrix, held)
        if not (
            kernel_class == KERNEL_DIAGONAL
            and self.classes[qubit] == KERNEL_DIAGONAL
        ):
            self.classes[qubit] = KERNEL_1Q_PAIR

    def pop(self, qubit: int):
        """``(matrix, kernel_class)`` for ``qubit``, or ``None``."""
        matrix = self.matrices[qubit]
        if matrix is None:
            return None
        self.matrices[qubit] = None
        self.active.remove(qubit)
        return matrix, self.classes[qubit]

    def pop_all(self):
        """Yield ``(qubit, matrix, kernel_class)``, ascending by qubit."""
        for qubit in sorted(self.active):
            matrix = self.matrices[qubit]
            self.matrices[qubit] = None
            yield qubit, matrix, self.classes[qubit]
        self.active.clear()


_IDENTITY_1Q = np.eye(2, dtype=complex)


def kron_1q(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two 1q matrices, shared or per-element.

    Either factor may be a shared ``(2, 2)`` matrix or a per-element
    ``(B, 2, 2)`` stack; mixed shapes broadcast to ``(B, 4, 4)``.
    """
    if a.ndim == 2 and b.ndim == 2:
        return np.kron(a, b)
    stack_a = a if a.ndim == 3 else a[None]
    stack_b = b if b.ndim == 3 else b[None]
    product = stack_a[:, :, None, :, None] * stack_b[:, None, :, None, :]
    return product.reshape(product.shape[0], 4, 4)


def absorb_pending_2q(
    pending: "PendingOneQubitGates",
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    kernel_class: Optional[str],
):
    """Fold pending 1q gates on a 2q op's qubits into the op's matrix.

    A whole rotation layer followed by an entangler then costs one fused
    quad update instead of two 1q flush passes plus the entangler's own
    pass.  Returns ``(matrix, kernel_class)`` — unchanged (preserving the
    permutation fast path for bare ``cx``) when nothing is pending.
    """
    held_a = pending.pop(qubits[0])
    held_b = pending.pop(qubits[1])
    if held_a is None and held_b is None:
        return matrix, kernel_class
    matrix_a, class_a = held_a if held_a is not None else (
        _IDENTITY_1Q, KERNEL_DIAGONAL,
    )
    matrix_b, class_b = held_b if held_b is not None else (
        _IDENTITY_1Q, KERNEL_DIAGONAL,
    )
    merged = np.matmul(matrix, kron_1q(matrix_a, matrix_b))
    if kernel_class == class_a == class_b == KERNEL_DIAGONAL:
        return merged, KERNEL_DIAGONAL
    return merged, KERNEL_2Q_QUAD


#: Fused multi-qubit blocks never grow past this many qubits: composing
#: two overlapping quads into a span-3 block costs the same FLOPs but
#: halves the state passes, while span 4+ doubles the FLOPs per pass.
MAX_FUSED_SPAN = 3

_RUN_CLASSES = {1: KERNEL_1Q_PAIR, 2: KERNEL_2Q_QUAD}


def _embed_run(
    matrix: np.ndarray, qubits: Tuple[int, ...], target: Tuple[int, ...]
) -> np.ndarray:
    """Embed a contiguous-run operator into a wider contiguous run."""
    left = 1 << (qubits[0] - target[0])
    right = 1 << (target[-1] - qubits[-1])
    if left == 1 and right == 1:
        return matrix
    if matrix.ndim == 2:
        return np.kron(np.kron(np.eye(left), matrix), np.eye(right))
    eye_l = np.eye(left)
    eye_r = np.eye(right)
    product = (
        eye_l[None, :, None, None, :, None, None]
        * matrix[:, None, :, None, None, :, None]
        * eye_r[None, None, None, :, None, None, :]
    )
    dim = left * matrix.shape[-1] * right
    return product.reshape(matrix.shape[0], dim, dim)


class FusionWindow:
    """Merges overlapping contiguous multi-qubit ops into one block.

    Consecutive entangler steps of a linear chain overlap on one qubit;
    composing two quads into a span-3 block costs the same FLOPs but
    halves the state passes (span is capped at :data:`MAX_FUSED_SPAN`).
    Ops on non-ascending or non-contiguous qubits bypass the window.
    ``apply`` is the run loop's ``(matrix, qubits, kernel_class)``
    callback.
    """

    __slots__ = ("apply", "matrix", "qubits", "kernel_class")

    def __init__(self, apply):
        self.apply = apply
        self.matrix = None
        self.qubits = None
        self.kernel_class = None

    def flush(self) -> None:
        if self.matrix is not None:
            self.apply(self.matrix, self.qubits, self.kernel_class)
            self.matrix = None

    def _hold(self, matrix, qubits, kernel_class) -> None:
        self.matrix = matrix
        self.qubits = qubits
        self.kernel_class = kernel_class

    def push(
        self,
        matrix: np.ndarray,
        qubits: Tuple[int, ...],
        kernel_class: Optional[str],
    ) -> None:
        k = len(qubits)
        ascending_run = all(
            qubits[i + 1] == qubits[i] + 1 for i in range(k - 1)
        )
        if not ascending_run:
            self.flush()
            self.apply(matrix, qubits, kernel_class)
            return
        if self.matrix is None:
            self._hold(matrix, qubits, kernel_class)
            return
        lo = min(self.qubits[0], qubits[0])
        hi = max(self.qubits[-1], qubits[-1])
        overlap = qubits[0] <= self.qubits[-1] and self.qubits[0] <= qubits[-1]
        if not overlap or hi - lo + 1 > MAX_FUSED_SPAN:
            self.flush()
            self._hold(matrix, qubits, kernel_class)
            return
        target = tuple(range(lo, hi + 1))
        held = _embed_run(self.matrix, self.qubits, target)
        merged = np.matmul(_embed_run(matrix, qubits, target), held)
        if self.kernel_class == kernel_class == KERNEL_DIAGONAL:
            merged_class = KERNEL_DIAGONAL
        else:
            merged_class = _RUN_CLASSES.get(len(target), KERNEL_DENSE)
        self._hold(merged, target, merged_class)


class PassthroughWindow:
    """Window stand-in that applies every op directly (no fusion).

    Below :data:`PAIR_MIN_STATE_SIZE` a state pass costs next to nothing
    while the window's ``np.kron`` embeddings dominate the run, so small
    states skip block fusion entirely.
    """

    __slots__ = ("apply",)

    def __init__(self, apply):
        self.apply = apply

    def flush(self) -> None:
        pass

    def push(self, matrix, qubits, kernel_class) -> None:
        self.apply(matrix, qubits, kernel_class)


def fusion_window(apply, state_size: int):
    """The block-fusion window for large states, passthrough for small."""
    if state_size >= PAIR_MIN_STATE_SIZE:
        return FusionWindow(apply)
    return PassthroughWindow(apply)


def flush_pending_paired(pending: "PendingOneQubitGates", apply) -> None:
    """Flush all pending 1q gates, pairing adjacent qubits into quads.

    Two pending gates on qubits ``q`` and ``q + 1`` merge into one
    ``kron`` quad update — one state pass instead of two.  ``apply`` is
    the run loop's ``(matrix, qubits, kernel_class)`` callback.
    """
    items = list(pending.pop_all())
    index = 0
    while index < len(items):
        qubit, matrix, kernel_class = items[index]
        if index + 1 < len(items) and items[index + 1][0] == qubit + 1:
            other, matrix_b, class_b = items[index + 1]
            merged_class = (
                KERNEL_DIAGONAL
                if kernel_class == class_b == KERNEL_DIAGONAL
                else KERNEL_2Q_QUAD
            )
            apply(kron_1q(matrix, matrix_b), (qubit, other), merged_class)
            index += 2
        else:
            apply(matrix, (qubit,), kernel_class)
            index += 1


def run_fused(
    plan: GatePlan,
    slot_matrices: Sequence[np.ndarray],
    state: np.ndarray,
    batch_axes: int = 0,
) -> np.ndarray:
    """Execute a gate plan on a state (or state batch) with run-loop fusion.

    The run loop of the serial and batched statevector simulators for
    plans wider than :data:`repro.simulator.small_state.
    SMALL_STATE_MAX_QUBITS` qubits (smaller plans run as a layered
    program, for which this loop is the test oracle).
    Single-qubit ops accumulate per target qubit
    (:class:`PendingOneQubitGates`); a two-qubit op absorbs the pending
    gates on its qubits (:func:`absorb_pending_2q`) and passes through
    the block-fusion window (:func:`fusion_window`); wider ops flush
    their qubits first; plan end flushes the window, then the pending
    gates paired into quads (:func:`flush_pending_paired`).

    ``slot_matrices[slot]`` is a parameterized op's matrix — shared
    ``(2**k, 2**k)``, or a per-element ``(B, 2**k, 2**k)`` stack when
    ``state`` carries ``batch_axes=1`` leading batch axis.  Matrices
    apply through the dispatcher with a ping-pong scratch buffer.
    """
    scratch = np.empty_like(state)
    pending = PendingOneQubitGates(plan.num_qubits)

    def apply(matrix, qubits, kernel_class):
        nonlocal state, scratch
        if matrix.ndim == 3:
            out = apply_gates_elementwise(
                state, matrix, qubits, kernel_class=kernel_class,
                scratch=scratch, in_place=True,
            )
        else:
            out = apply_gate(
                state, matrix, qubits, batch_axes=batch_axes,
                kernel_class=kernel_class, scratch=scratch, in_place=True,
            )
        if out is not state:
            state, scratch = out, state

    window = fusion_window(apply, state.size)
    for op in plan.ops:
        matrix = op.matrix if op.matrix is not None else slot_matrices[op.slot]
        if len(op.qubits) == 1:
            pending.push(op.qubits[0], matrix, op.kernel_class)
            continue
        kernel_class = op.kernel_class
        if len(op.qubits) == 2:
            matrix, kernel_class = absorb_pending_2q(
                pending, matrix, op.qubits, kernel_class
            )
        else:
            window.flush()
            for qubit in op.qubits:
                held = pending.pop(qubit)
                if held is not None:
                    apply(held[0], (qubit,), held[1])
        window.push(matrix, op.qubits, kernel_class)
    window.flush()
    flush_pending_paired(pending, apply)
    return state
