"""The tensordot reference kernels.

One shared implementation of the historic reshape + ``tensordot`` +
axis-restore gate application that ``statevector.py`` and ``batched.py``
each used to carry a near-identical copy of.  The ``batch_axes``
parameter generalizes over their layouts:

* ``batch_axes=0`` — a rank-``n`` state tensor ``(2,) * n`` (the serial
  statevector layout; also the density matrix viewed as a ``2n``-qubit
  state for left/right multiplications);
* ``batch_axes=1`` — a leading batch axis, ``(B,) + (2,) * n`` (the
  batched layout, where qubit ``q`` lives on tensor axis ``q + 1``).

The dispatcher routes states below ``PAIR_MIN_STATE_SIZE`` (and
non-contiguous dense operators) through these functions, and the tests
use them as the oracle the pair kernels (:mod:`repro.simulator.kernels.
pair`) and the fused run loop must match to <= 1e-12.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def apply_gate_tensordot(
    state: np.ndarray,
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    batch_axes: int = 0,
) -> np.ndarray:
    """Apply one shared ``(2**k, 2**k)`` matrix via tensordot.

    Contracts the gate's input indices with the state's qubit axes and
    moves the resulting output axes back to the qubit positions.
    Returns a new array; callers must use the return value.
    """
    k = len(qubits)
    tensor = matrix.reshape((2,) * (2 * k))
    axes = tuple(q + batch_axes for q in qubits)
    state = np.tensordot(tensor, state, axes=(tuple(range(k, 2 * k)), axes))
    return np.moveaxis(state, tuple(range(k)), axes)


def apply_gates_elementwise_reference(
    states: np.ndarray, matrices: np.ndarray, qubits: Tuple[int, ...]
) -> np.ndarray:
    """Apply per-batch-element matrices ``(B, 2**k, 2**k)``.

    The target qubit axes are moved up front, the state is flattened to
    ``(B, 2**k, rest)``, and batched ``matmul`` contracts each element
    with its own matrix.
    """
    k = len(qubits)
    axes = tuple(q + 1 for q in qubits)
    moved = np.moveaxis(states, axes, tuple(range(1, k + 1)))
    shape = moved.shape
    flat = moved.reshape(shape[0], 2**k, -1)
    out = np.matmul(matrices, flat).reshape(shape)
    return np.moveaxis(out, tuple(range(1, k + 1)), axes)
