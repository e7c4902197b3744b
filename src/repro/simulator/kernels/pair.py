"""Bit-indexed, cache-aware gate kernels (the ``pair`` engine).

Gate application here never transposes or reshape-copies the full
state.  A qubit ``q`` of an ``n``-qubit state tensor owns the flat-index
stride ``2**(n - 1 - q)``, so reshaping the *flat, contiguous* buffer
exposes the amplitude pairs (1q) / quads (2q) a gate couples as plain
strided views — with a leading batch axis folded into the leading view
dimension, since every qubit stride divides the per-element state size.

Four kernel families, chosen per op by its pre-lowered kernel class
(:mod:`repro.compiler.ir`):

* **diagonal** — in-place strided multiply, skipping unit entries
  (``rz``/``cphase``/``rzz`` touch at most half the state per non-unit
  diagonal entry);
* **permutation** (a dense-class matrix with one non-zero per row and
  column, e.g. ``x``/``cx``/``swap``) — in-place cycle decomposition
  over the bit-indexed blocks with a single temporary block copy;
* **dense 1q/2q** — GEMM on the strided pair/quad views into a caller
  ping-pong scratch buffer.  The GEMM form is stride-dependent: large
  strides contract as ``matmul(matrix, view)`` directly, while small
  strides (where per-GEMM dispatch overhead dominates) merge the gate
  with the stride identity (``kron(matrix, I_s)``) into one wide GEMM
  over rows of ``2k * s`` amplitudes;
* **dense non-adjacent 2q** — blockwise accumulation through the
  four-block views (no transpose; zero matrix entries skipped).

Chunking (:data:`KERNEL_CHUNK`) tiles the dense GEMMs over disjoint
row (or column) ranges so 20+-qubit updates stay cache-resident; tiles
are elementwise-disjoint, so chunked results are bit-identical to
unchunked ones.
"""

from __future__ import annotations

from typing import Callable, List, Tuple

import numpy as np

#: Below this qubit stride, per-GEMM dispatch overhead on the ``(R, 2, s)``
#: views dominates and the kron-merged wide GEMM wins (measured
#: crossover).  Multi-qubit runs halve the crossover per extra qubit.
MATMUL_MIN_STRIDE_1Q = 32
#: Per-element states smaller than this fall back to the batched-matmul
#: reference — a Python loop of tiny GEMMs per batch element costs more
#: than the moveaxis round trip it avoids.
ELEMENTWISE_MIN_SIZE = 1 << 14
#: Adjacent-run per-element updates at or above this qubit stride use one
#: broadcast ``matmul`` over the whole batch instead of the per-element
#: loop (measured crossover against the per-element stride strategies).
BROADCAST_MIN_STRIDE = 32
#: Tile size of the chunked dense GEMMs, in state elements (complex128
#: => 1 MiB tiles, which keep 20+-qubit updates cache-resident).
#: Smaller states run as one tile.
KERNEL_CHUNK = 65536


def sort_operator(
    matrix: np.ndarray, qubits: Tuple[int, ...]
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Permute a ``(2**k, 2**k)`` operator to ascending qubit order."""
    k = len(qubits)
    order = sorted(range(k), key=lambda i: qubits[i])
    if order == list(range(k)):
        return matrix, tuple(qubits)
    tensor = matrix.reshape((2,) * (2 * k))
    perm = tuple(order) + tuple(i + k for i in order)
    return (
        tensor.transpose(perm).reshape(matrix.shape),
        tuple(qubits[i] for i in order),
    )


def sort_diagonal(
    diag: np.ndarray, qubits: Tuple[int, ...]
) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Permute a length-``2**k`` diagonal to ascending qubit order."""
    k = len(qubits)
    order = sorted(range(k), key=lambda i: qubits[i])
    if order == list(range(k)):
        return diag, tuple(qubits)
    reordered = diag.reshape((2,) * k).transpose(order).reshape(-1)
    return reordered, tuple(qubits[i] for i in order)


def is_permutation(matrix: np.ndarray) -> bool:
    """True for matrices with exactly one non-zero per row and column."""
    nonzero = matrix != 0
    return bool(
        nonzero.sum() == matrix.shape[0]
        and (nonzero.sum(axis=0) == 1).all()
        and (nonzero.sum(axis=1) == 1).all()
    )


# -- bit-indexed block views ---------------------------------------------------


def _qubit_block_view(flat: np.ndarray, qubits: Tuple[int, ...], n: int) -> np.ndarray:
    """View of the flat buffer with each target qubit on its own axis.

    ``qubits`` must be ascending.  Shape is ``(lead, 2, M1, 2, ..., Mk-1,
    2, trail)`` — qubit ``i`` sits on axis ``2i + 1``; any batch prefix
    folds into the leading dimension (every stride divides ``2**n``).
    """
    shape: List[int] = [-1, 2]
    for prev, q in zip(qubits, qubits[1:]):
        shape += [1 << (q - prev - 1), 2]
    shape.append(1 << (n - 1 - qubits[-1]))
    return flat.reshape(shape)


def _block(view: np.ndarray, index: int, k: int) -> np.ndarray:
    """The block of amplitudes whose target-qubit bits spell ``index``."""
    idx: List[object] = [slice(None)] * (2 * k + 1)
    for i in range(k):
        idx[2 * i + 1] = (index >> (k - 1 - i)) & 1
    return view[tuple(idx)]


# -- chunked GEMM helpers ------------------------------------------------------


def _for_each_tile(
    total: int, per_tile: int, body: Callable[[int, int], None]
) -> None:
    """Run ``body(start, stop)`` over disjoint tiles of ``range(total)``."""
    for start in range(0, total, per_tile):
        body(start, min(start + per_tile, total))


def _dense_gemm(
    flat: np.ndarray,
    out: np.ndarray,
    matrix: np.ndarray,
    dim: int,
    stride: int,
    min_stride: int,
    chunk: int,
) -> None:
    """Shared dense update on the ``(R, dim, stride)`` strided views."""
    if stride >= min_stride:
        view = flat.reshape(-1, dim, stride)
        dest = out.reshape(-1, dim, stride)
        rows = view.shape[0]
        if rows == 1:
            # Highest-order target on a serial state: tile columns instead.
            per_tile = max(1, chunk // dim)

            def body_cols(start: int, stop: int) -> None:
                np.matmul(
                    matrix, view[0, :, start:stop], out=dest[0, :, start:stop]
                )

            _for_each_tile(stride, per_tile, body_cols)
            return
        per_tile = max(1, chunk // (dim * stride))

        def body_rows(start: int, stop: int) -> None:
            np.matmul(matrix, view[start:stop], out=dest[start:stop])

        _for_each_tile(rows, per_tile, body_rows)
        return
    # Small strides: merge the stride identity into the gate and contract
    # whole rows of dim * stride amplitudes in one wide GEMM.
    wide = np.kron(matrix, np.eye(stride)).T
    view2 = flat.reshape(-1, dim * stride)
    dest2 = out.reshape(-1, dim * stride)
    per_tile = max(1, chunk // (dim * stride))

    def body_wide(start: int, stop: int) -> None:
        np.matmul(view2[start:stop], wide, out=dest2[start:stop])

    _for_each_tile(view2.shape[0], per_tile, body_wide)


def _dense_blockwise(
    flat: np.ndarray,
    out: np.ndarray,
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    n: int,
) -> None:
    """Non-adjacent dense update: accumulate through bit-indexed blocks."""
    k = len(qubits)
    dim = 1 << k
    src_view = _qubit_block_view(flat, qubits, n)
    dst_view = _qubit_block_view(out, qubits, n)
    for row in range(dim):
        dst = _block(dst_view, row, k)
        started = False
        for col in range(dim):
            coeff = matrix[row, col]
            if coeff == 0:
                continue
            src = _block(src_view, col, k)
            if started:
                dst += src * coeff
            else:
                np.multiply(src, coeff, out=dst)
                started = True
        if not started:
            dst[...] = 0


def apply_dense_shared(
    flat: np.ndarray,
    out: np.ndarray,
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    n: int,
    chunk: int = KERNEL_CHUNK,
) -> None:
    """Dense update into ``out``; ``qubits`` must be ascending.

    Contiguous qubit runs (any ``k``) GEMM directly on the
    ``(R, 2**k, stride)`` views, in tiles of about ``chunk`` elements;
    non-adjacent multi-qubit operators accumulate through bit-indexed
    blocks.
    """
    k = len(qubits)
    if k == 1:
        stride = 1 << (n - 1 - qubits[0])
        _dense_gemm(flat, out, matrix, 2, stride, MATMUL_MIN_STRIDE_1Q, chunk)
        return
    if qubits[-1] - qubits[0] == k - 1:
        stride = 1 << (n - 1 - qubits[-1])
        # The direct-vs-kron crossover halves with each extra qubit: the
        # kron-merged GEMM's FLOPs grow with dim * stride while the
        # direct path's per-GEMM dispatch overhead shrinks with dim.
        min_stride = max(1, MATMUL_MIN_STRIDE_1Q >> (k - 1))
        _dense_gemm(flat, out, matrix, 1 << k, stride, min_stride, chunk)
    else:
        _dense_blockwise(flat, out, matrix, qubits, n)


# -- in-place kernels ----------------------------------------------------------


def apply_diagonal_shared(
    flat: np.ndarray, diag: np.ndarray, qubits: Tuple[int, ...], n: int
) -> int:
    """In-place diagonal multiply; returns the number of touched blocks."""
    k = len(qubits)
    view = _qubit_block_view(flat, qubits, n)
    touched = 0
    for index in range(1 << k):
        entry = diag[index]
        if entry != 1:
            block = _block(view, index, k)
            block *= entry
            touched += 1
    return touched


def apply_permutation_shared(
    flat: np.ndarray,
    matrix: np.ndarray,
    qubits: Tuple[int, ...],
    n: int,
    spare_flat: np.ndarray = None,
) -> int:
    """In-place permutation (with phases) via block cycle decomposition.

    ``out[i] = phase[i] * in[src[i]]`` — each cycle moves its blocks with
    one temporary block copy (staged in ``spare_flat``'s matching block
    when the caller lends its scratch buffer, avoiding a fresh
    allocation); identity rows are skipped entirely.  Returns the number
    of moved/scaled blocks.
    """
    k = len(qubits)
    dim = 1 << k
    view = _qubit_block_view(flat, qubits, n)
    spare_view = (
        _qubit_block_view(spare_flat, qubits, n)
        if spare_flat is not None
        else None
    )
    src = np.argmax(matrix != 0, axis=1)
    phases = matrix[np.arange(dim), src]
    moved = 0
    visited = [False] * dim
    for start in range(dim):
        if visited[start]:
            continue
        cycle = [start]
        visited[start] = True
        node = int(src[start])
        while node != start:
            cycle.append(node)
            visited[node] = True
            node = int(src[node])
        if len(cycle) == 1:
            phase = phases[start]
            if phase != 1:
                block = _block(view, start, k)
                block *= phase
                moved += 1
            continue
        if spare_view is None:
            spare = _block(view, cycle[0], k).copy()
        else:
            spare = _block(spare_view, cycle[0], k)
            np.copyto(spare, _block(view, cycle[0], k))
        for position in range(len(cycle) - 1):
            dst = _block(view, cycle[position], k)
            source = _block(view, cycle[position + 1], k)
            phase = phases[cycle[position]]
            if phase == 1:
                dst[...] = source
            else:
                np.multiply(source, phase, out=dst)
        last = cycle[-1]
        dst = _block(view, last, k)
        phase = phases[last]
        if phase == 1:
            dst[...] = spare
        else:
            np.multiply(spare, phase, out=dst)
        moved += len(cycle)
    return moved


# -- per-batch-element kernels -------------------------------------------------


def apply_diagonal_elementwise(
    states: np.ndarray, diags: np.ndarray, qubits: Tuple[int, ...], n: int
) -> int:
    """In-place per-element diagonal multiply on ``(B,) + (2,) * n`` states.

    ``diags`` is ``(B, 2**k)`` in ascending-qubit bit order; the update
    broadcasts each batch column over its strided block in one vectorized
    in-place multiply.  Returns the number of touched blocks.
    """
    k = len(qubits)
    batch = states.shape[0]
    shape: List[int] = [batch, 1 << qubits[0], 2]
    for prev, q in zip(qubits, qubits[1:]):
        shape += [1 << (q - prev - 1), 2]
    shape.append(1 << (n - 1 - qubits[-1]))
    view = states.reshape(shape)
    touched = 0
    for index in range(1 << k):
        column = diags[:, index]
        if np.all(column == 1):
            continue
        idx: List[object] = [slice(None)] * (2 * k + 2)
        for i in range(k):
            idx[2 * i + 2] = (index >> (k - 1 - i)) & 1
        block = view[tuple(idx)]
        block *= column.reshape((batch,) + (1,) * (block.ndim - 1))
        touched += 1
    return touched


def apply_dense_elementwise(
    states: np.ndarray,
    out: np.ndarray,
    matrices: np.ndarray,
    qubits: Tuple[int, ...],
    n: int,
) -> None:
    """Per-element dense update: one shared-kernel call per batch element.

    Each ``states[b]`` is a contiguous slice, so the stride-strategy GEMMs
    apply directly; profitable only for large per-element states (the
    dispatcher gates on :data:`ELEMENTWISE_MIN_SIZE`).  Adjacent qubit
    runs at large stride skip the per-element loop entirely: one
    broadcast ``matmul`` contracts the whole ``(B, R, dim, stride)``
    view against the ``(B, 1, dim, dim)`` matrix stack.
    """
    k = len(qubits)
    dim = 1 << k
    adjacent = all(qubits[i + 1] == qubits[i] + 1 for i in range(k - 1))
    if adjacent:
        batch = states.shape[0]
        stride = 1 << (n - 1 - qubits[-1])
        if stride >= max(8, BROADCAST_MIN_STRIDE >> (k - 1)):
            view = states.reshape(batch, -1, dim, stride)
            np.matmul(
                matrices[:, None], view, out=out.reshape(batch, -1, dim, stride)
            )
            return
        # Small strides: merge the stride identity into each element's
        # matrix and contract whole rows in one batched wide GEMM.
        wide = np.stack([np.kron(m, np.eye(stride)).T for m in matrices])
        view = states.reshape(batch, -1, dim * stride)
        np.matmul(view, wide, out=out.reshape(batch, -1, dim * stride))
        return
    for b in range(states.shape[0]):
        apply_dense_shared(
            states[b].reshape(-1), out[b].reshape(-1), matrices[b], qubits, n
        )
