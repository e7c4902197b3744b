"""The small-state evaluator: a gate plan precompiled into a layered program.

Every Table-1 application is a 6-qubit ansatz: 64 amplitudes, where a
gate's arithmetic costs a few microseconds and the per-op dispatch of
:func:`repro.simulator.kernels.run_fused` costs the rest. Plans of at
most :data:`SMALL_STATE_MAX_QUBITS` qubits are therefore lowered once
into a :class:`LayeredProgram` of few, wide steps:

* **gather** — consecutive static monomial ops (a permutation times
  phases; every CX chain is one) compose into one full-state gather
  index plus an optional phase vector;
* **rotation** — the 1q ops between static runs (parameterized, or
  static like ``h``/``sx``) fold per qubit into one 2x2 product. The
  products of all layers are built at once from the bound angles, two
  adjacent qubits share one 4x4 Kronecker block, and each block applies
  as one matrix product per batch row;
* **dense** — anything else (parameterized ``rzz``/``rxx``/``crx``/
  ``crz``, non-monomial static multi-qubit ops) is one step through
  :func:`repro.simulator.kernels.apply_gates_elementwise_reference`.

Layout. A rotation block always acts on the *leading* qubits of the
flat index, so its operand is a contiguous ``(B, 2**k, 2**n / 2**k)``
view; it writes its output transposed, which rotates the qubit order
left by ``k``. After a full layer the order is back where it started;
a gather absorbs any rotation into its index for free, and a copy step
rotates the order where nothing else does (before a block whose qubit
is not in front, and at the end).

States are C-contiguous ``(B, 2**n)`` arrays and every step computes
each row on its own, so a batch row is bitwise equal to the same
parameters run alone; the serial simulator runs the program with
``B = 1``. Building costs ``O(ops * 2**n)`` (no dense ``2**n x 2**n``
products), and each plan is built once, on first use, under a lock.
:func:`repro.simulator.kernels.run_fused` stays the route above the
boundary and is the program's test oracle (agreement to 1e-12).
"""

from __future__ import annotations

import threading
import weakref
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.gates import stacked_gate_matrices
from repro.compiler.ir import (
    KERNEL_1Q_PAIR,
    KERNEL_2Q_QUAD,
    KERNEL_DENSE,
    KERNEL_DIAGONAL,
    GatePlan,
)
from repro.obs.metrics import METRICS
from repro.simulator.kernels.reference import apply_gates_elementwise_reference

#: Plans on at most this many qubits run as a :class:`LayeredProgram`;
#: wider plans take :func:`repro.simulator.kernels.run_fused`. The
#: program is faster at every size up to 11 qubits, serially and at
#: B = 8; the boundary sits below 8 qubits because there the serial
#: program gains ~10x and a batch of 8 only ~4x, so a batch of 8 would
#: no longer beat 8 serial calls by the 3x floor that
#: ``tools/check_bench.py`` holds the 8-qubit benchmarks to.
SMALL_STATE_MAX_QUBITS = 7

_AMPLITUDE_BYTES = np.dtype(complex).itemsize
_IDENTITY = np.eye(2, dtype=complex)
_SUPPORT_CLASSES = {1: KERNEL_1Q_PAIR, 2: KERNEL_2Q_QUAD}

# Step kinds of a lowered program.
_BLOCK, _GATHER, _ROTATE, _DENSE = range(4)


def _monomial(matrix: np.ndarray) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(columns, values)`` of a monomial matrix's nonzeros, or ``None``."""
    dim = matrix.shape[0]
    if np.count_nonzero(matrix) != dim:
        return None
    columns = np.argmax(matrix != 0, axis=1)
    values = matrix[np.arange(dim), columns]
    if np.count_nonzero(values) != dim or np.unique(columns).size != dim:
        return None
    return columns, values


def _rotate_left(index: np.ndarray, shift: int, n: int) -> np.ndarray:
    """Rotate ``n``-bit flat indices left by ``shift`` bits."""
    shift %= n
    if not shift:
        return index
    return ((index << shift) | (index >> (n - shift))) & ((1 << n) - 1)


class _Gather:
    """A run of static monomial ops: ``new[i] = phases[i] * old[index[i]]``."""

    __slots__ = ("index", "phases", "qubits")

    def __init__(self, n: int):
        self.index = np.arange(1 << n)
        self.phases = np.ones(1 << n, dtype=complex)
        self.qubits: set = set()

    def compose(self, monomial, qubits: Tuple[int, ...], n: int) -> None:
        """Append a k-qubit monomial op (``qubits[0]`` its index MSB)."""
        columns, values = monomial
        k = len(qubits)
        flat = np.arange(1 << n)
        shifts = [n - 1 - q for q in qubits]
        row = np.zeros_like(flat)
        for j, shift in enumerate(shifts):
            row |= ((flat >> shift) & 1) << (k - 1 - j)
        source = columns[row]
        index = flat & ~sum(1 << shift for shift in shifts)
        for j, shift in enumerate(shifts):
            index |= ((source >> (k - 1 - j)) & 1) << shift
        self.phases = values[row] * self.phases[index]
        self.index = self.index[index]
        self.qubits.update(qubits)


class LayeredProgram:
    """A gate plan lowered into gather, rotation and dense steps.

    Build with :func:`layered_program` (cached per plan); run with
    :meth:`run`. ``histogram`` maps each kernel class to its number of
    gate steps and ``bytes_per_row`` to the state bytes those steps read
    and write per batch row; :meth:`run` bumps the ``kernel.<class>``
    counters from them once per execution.
    """

    def __init__(self, plan: GatePlan):
        self.num_qubits = n = plan.num_qubits
        self._slot_names = plan.slot_gate_names
        self.histogram: Dict[str, int] = {}
        # Rotation table: the 1q slot matrices grouped by gate kind, then
        # the static factors (the identity first, which pads entries).
        self._kinds: List[Tuple[str, np.ndarray]] = []
        by_kind: Dict[str, List[int]] = {}
        for op in plan.ops:
            if not op.is_static and len(op.qubits) == 1:
                by_kind.setdefault(op.gate_name, []).append(op.slot)
        table_position: Dict[int, int] = {}
        for kind, slots in by_kind.items():
            for slot in slots:
                table_position[slot] = len(table_position)
            self._kinds.append((kind, np.asarray(slots, dtype=np.intp)))
        self._table_slots = len(table_position)
        self._constants: List[np.ndarray] = [_IDENTITY]
        self._entries: List[List[int]] = []
        # Rotation blocks by size (1 or 2 qubits): lists of entry tuples.
        self._blocks_of: Dict[int, List[Tuple[int, ...]]] = {1: [], 2: []}
        self._steps: List[tuple] = []
        self._lower(self._schedule(plan, table_position), n)
        self._finish_tables()

    # -- build: canonical schedule ------------------------------------------

    def _schedule(self, plan: GatePlan, table_position: Dict[int, int]):
        """Walk the plan into canonical ``layer``/``gather``/``dense`` items.

        Pending 1q factors (a *layer*) always precede the open gather:
        a 1q op on a qubit the gather has not touched commutes past it,
        a monomial op extends the gather, and anything else closes both.
        """
        n = self.num_qubits
        items: List[tuple] = []
        layer: Dict[int, list] = {}
        gather: Optional[_Gather] = None

        def close() -> None:
            nonlocal gather
            if layer:
                items.append(("layer", dict(layer)))
                layer.clear()
            if gather is not None:
                items.append(("gather", gather))
                gather = None

        for op in plan.ops:
            if len(op.qubits) == 1:
                qubit = op.qubits[0]
                if gather is not None and qubit in gather.qubits:
                    monomial = _monomial(op.matrix) if op.is_static else None
                    if monomial is not None:
                        gather.compose(monomial, op.qubits, n)
                        continue
                    close()
                factor = op.matrix if op.is_static else table_position[op.slot]
                layer.setdefault(qubit, []).append(factor)
                continue
            monomial = _monomial(op.matrix) if op.is_static else None
            if monomial is not None:
                if gather is None:
                    gather = _Gather(n)
                gather.compose(monomial, op.qubits, n)
            else:
                close()
                items.append(("dense", op))
        close()
        return items

    # -- build: layout and steps --------------------------------------------

    def _lower(self, items: List[tuple], n: int) -> None:
        """Turn canonical items into steps, tracking the qubit rotation."""
        rotation = 0
        for kind, payload in items:
            if kind == "layer":
                rotation = self._lower_layer(payload, rotation, n)
            elif kind == "gather":
                self._lower_gather(payload, rotation, n)
                rotation = 0
            else:
                op = payload
                axes = tuple((q - rotation) % n for q in op.qubits)
                self._add_step((_DENSE, axes, op.matrix, op.slot), op.kernel_class)
        if rotation:
            self._steps.append((_ROTATE, n - rotation, None, None))

    def _lower_layer(self, layer: Dict[int, list], rotation: int, n: int) -> int:
        entries = {}
        for qubit, factors in layer.items():
            entry = self._entry(factors)
            if entry is not None:
                entries[qubit] = entry
        order = sorted(entries, key=lambda q: (q - rotation) % n)
        index = 0
        while index < len(order):
            qubit = order[index]
            skip = (qubit - rotation) % n
            if skip:
                self._steps.append((_ROTATE, skip, None, None))
            block = [entries[qubit]]
            if index + 1 < len(order) and order[index + 1] == (qubit + 1) % n:
                block.append(entries[order[index + 1]])
            size = len(block)
            self._add_step(
                (_BLOCK, size, len(self._blocks_of[size]), None),
                _SUPPORT_CLASSES[size],
            )
            self._blocks_of[size].append(tuple(block))
            rotation = (qubit + size) % n
            index += size
        return rotation

    def _entry(self, factors: list) -> Optional[int]:
        """Register one qubit's factor list; ``None`` if it is the identity.

        Consecutive static factors multiply at build time; the rest are
        rotation-table positions (static ones after the slot matrices).
        """
        table: List[int] = []
        held: Optional[np.ndarray] = None
        for factor in factors:
            if isinstance(factor, np.ndarray):
                held = factor if held is None else factor @ held
                continue
            if held is not None:
                table.append(self._constant(held))
                held = None
            table.append(factor)
        if held is not None:
            if not table and np.array_equal(held, _IDENTITY):
                return None
            table.append(self._constant(held))
        self._entries.append(table)
        return len(self._entries) - 1

    def _constant(self, matrix: np.ndarray) -> int:
        self._constants.append(matrix)
        return self._table_slots + len(self._constants) - 1

    def _lower_gather(self, gather: _Gather, rotation: int, n: int) -> None:
        """Emit a gather that reads layout ``rotation`` and writes the
        canonical qubit order."""
        index = _rotate_left(gather.index, rotation, n)
        phases = gather.phases
        in_place = np.array_equal(index, np.arange(1 << n))
        if np.all(phases == 1):
            if in_place:
                return
            phases = None
        if in_place:
            kernel_class = KERNEL_DIAGONAL
        else:
            kernel_class = _SUPPORT_CLASSES.get(len(gather.qubits), KERNEL_DENSE)
        self._add_step(
            (_GATHER, None if in_place else index, phases, None), kernel_class
        )

    def _add_step(self, step: tuple, kernel_class: str) -> None:
        self._steps.append(step)
        self.histogram[kernel_class] = self.histogram.get(kernel_class, 0) + 1

    def _finish_tables(self) -> None:
        """Index arrays that turn the rotation table into block matrices.

        ``_depth_indices[d]`` picks every entry's ``d``-th factor (the
        identity pads short entries); blocks of one and two entries are
        kept per size so each size builds in one vectorized call.
        """
        depth = max((len(entry) for entry in self._entries), default=0)
        identity = self._table_slots
        self._depth_indices = [
            np.array(
                [e[d] if d < len(e) else identity for e in self._entries],
                dtype=np.intp,
            )
            for d in range(depth)
        ]
        self._with_constants = any(
            np.any(indices >= self._table_slots) for indices in self._depth_indices
        )
        self._constant_stack = np.stack(self._constants)[:, None]
        self._block_entries = {
            size: np.asarray(blocks, dtype=np.intp).reshape(-1, size)
            for size, blocks in self._blocks_of.items()
        }
        # Each gate step reads and writes the whole state once.
        step_bytes = 2 * _AMPLITUDE_BYTES << self.num_qubits
        self.bytes_per_row = {
            kernel_class: count * step_bytes
            for kernel_class, count in self.histogram.items()
        }

    # -- run -------------------------------------------------------------------

    def _blocks(self, angles: np.ndarray, batch: int) -> Dict[int, np.ndarray]:
        """Per-row block matrices by size: ``(blocks, B, 2**k, 2**k)``."""
        parts = [
            stacked_gate_matrices(kind, angles[:, slots].T).reshape(
                len(slots), batch, 2, 2
            )
            for kind, slots in self._kinds
        ]
        if self._with_constants:
            parts.append(
                np.broadcast_to(
                    self._constant_stack, (len(self._constants), batch, 2, 2)
                )
            )
        table = parts[0] if len(parts) == 1 else np.concatenate(parts)
        product = table[self._depth_indices[0]]
        for indices in self._depth_indices[1:]:
            terms = table[indices, :, :, :, None] * product[:, :, None, :, :]
            product = terms[:, :, :, 0] + terms[:, :, :, 1]
        pairs = self._block_entries[2]
        high = product[pairs[:, 0], :, :, None, :, None]
        low = product[pairs[:, 1], :, None, :, None, :]
        return {
            1: product[self._block_entries[1][:, 0]],
            2: (high * low).reshape(-1, batch, 4, 4),
        }

    def run(
        self, angles: np.ndarray, initial: Optional[np.ndarray] = None
    ) -> np.ndarray:
        """Run the program on a ``(B, num_param_ops)`` angle table.

        ``initial`` is an optional ``(B, 2**n)`` start state (default
        ``|0...0>``). Returns the final states as a C-contiguous
        ``(B, 2**n)`` array.
        """
        batch = angles.shape[0]
        n = self.num_qubits
        size = 1 << n
        buffers = (
            np.zeros((batch, size), dtype=complex),
            np.empty((batch, size), dtype=complex),
        )
        if initial is None:
            buffers[0][:, 0] = 1.0
        else:
            buffers[0][...] = initial
        # Per buffer and block size k: the operand view with the k
        # leading qubits split off, and the transposed output view that
        # moves them to the back (rotating the qubit order by k).
        views = [
            {
                k: (
                    buffer.reshape(batch, 1 << k, size >> k),
                    buffer.reshape(batch, size >> k, 1 << k).transpose(0, 2, 1),
                )
                for k in (1, 2)
                if k <= n
            }
            for buffer in buffers
        ]
        if self._entries:
            blocks = self._blocks(angles, batch)
        current = 0
        for kind, first, second, third in self._steps:
            state = buffers[current]
            spare = buffers[1 - current]
            if kind == _BLOCK:
                np.matmul(
                    blocks[first][second],
                    views[current][first][0],
                    out=views[1 - current][first][1],
                )
            elif kind == _GATHER:
                if first is None:
                    np.multiply(state, second, out=state)
                    continue
                np.take(state, first, axis=1, out=spare)
                if second is not None:
                    np.multiply(spare, second, out=spare)
            elif kind == _ROTATE:
                high = 1 << first
                np.copyto(
                    spare.reshape(batch, size // high, high).transpose(0, 2, 1),
                    state.reshape(batch, high, size // high),
                )
            else:
                if second is None:
                    matrices = stacked_gate_matrices(
                        self._slot_names[third], angles[:, third]
                    )
                else:
                    matrices = np.broadcast_to(second, (batch,) + second.shape)
                tensor_shape = (batch,) + (2,) * n
                np.copyto(
                    spare.reshape(tensor_shape),
                    apply_gates_elementwise_reference(
                        state.reshape(tensor_shape), matrices, first
                    ),
                )
            current = 1 - current
        for kernel_class, count in self.histogram.items():
            METRICS.counter(f"kernel.{kernel_class}.calls").inc(count)
            METRICS.counter(f"kernel.{kernel_class}.bytes").inc(
                self.bytes_per_row[kernel_class] * batch
            )
        return buffers[current]


_PROGRAMS: "weakref.WeakKeyDictionary[GatePlan, LayeredProgram]" = (
    weakref.WeakKeyDictionary()
)
_PROGRAMS_LOCK = threading.Lock()


def layered_program(plan: GatePlan) -> LayeredProgram:
    """The plan's :class:`LayeredProgram`, built on first use.

    Programs are cached per plan object, so every run sharing a cached
    plan (and every thread running it) shares one program.
    """
    program = _PROGRAMS.get(plan)
    if program is None:
        with _PROGRAMS_LOCK:
            program = _PROGRAMS.get(plan)
            if program is None:
                program = LayeredProgram(plan)
                _PROGRAMS[plan] = program
    return program
