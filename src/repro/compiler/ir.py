"""The :class:`GatePlan` intermediate representation.

A gate plan is the executable form every simulation layer consumes: an
ordered tuple of :class:`PlanOp` records (static ops carry a precomputed —
possibly fused — matrix; parameterized ops carry a *slot* into a
structure-of-arrays parameter table) plus the SoA table itself:

* ``param_indices`` — which entry of ``theta`` each parameterized op reads,
* ``coeffs`` / ``offsets`` — the affine map per op,
* ``slot_gate_names`` — the gate kind per op, grouped so matrices build
  per kind through the stacked constructors.

Binding a parameter vector is therefore ONE NumPy affine map
``angles = coeffs * theta[param_indices] + offsets`` (with a batched
``(B, P)`` variant used by :class:`~repro.simulator.batched.
BatchedStatevectorSimulator`) instead of a per-op Python branch.
:class:`~repro.compiler.passes.LowerToPlan` builds plans straight from
circuits.

Plans also remember their *pre-fusion* single-/two-qubit gate counts so
noise modelling (global-depolarizing survival factors) keeps seeing the
physical circuit, not the fused execution schedule.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.gates import stacked_gate_matrices
from repro.circuits.parameter import Parameter

# -- kernel classes -----------------------------------------------------------
#
# Every op lowers to exactly one kernel class, so the simulators dispatch
# gate application with a table lookup instead of per-gate matrix
# inspection (see ``repro.simulator.kernels``). Classification lives here
# (not in the kernels package) because the compiler may not import the
# simulator layer.

#: Diagonal matrix — applies as a pure elementwise multiply.
KERNEL_DIAGONAL = "diagonal"
#: Dense single-qubit gate — bit-indexed amplitude-pair update.
KERNEL_1Q_PAIR = "1q-pair"
#: Dense two-qubit gate — bit-indexed amplitude-quad update.
KERNEL_2Q_QUAD = "2q-quad"
#: Dense k>=3 qubit operator — falls back to the tensordot reference.
KERNEL_DENSE = "dense-k"

KERNEL_CLASSES = (KERNEL_DIAGONAL, KERNEL_1Q_PAIR, KERNEL_2Q_QUAD, KERNEL_DENSE)

#: Kernel class of each parameterized gate kind, keyed by gate name.
#: Parameterized ops carry no matrix at lowering time, so their class
#: comes from this table instead of matrix inspection.
PARAM_GATE_KERNEL_CLASSES: Dict[str, str] = {
    "rz": KERNEL_DIAGONAL,
    "p": KERNEL_DIAGONAL,
    "rzz": KERNEL_DIAGONAL,
    "crz": KERNEL_DIAGONAL,
    "rx": KERNEL_1Q_PAIR,
    "ry": KERNEL_1Q_PAIR,
    "u": KERNEL_1Q_PAIR,
    "rxx": KERNEL_2Q_QUAD,
    "crx": KERNEL_2Q_QUAD,
}

_DENSE_CLASS_BY_DIM = {2: KERNEL_1Q_PAIR, 4: KERNEL_2Q_QUAD}


def kernel_class_of_matrix(matrix: np.ndarray) -> str:
    """Classify an operator matrix into one of the four kernel classes.

    Diagonality is decided structurally (exact zeros off the diagonal),
    which is stable because gate constructors and fusion products build
    their zeros exactly. Dimensions other than 2/4 (including channel
    superoperators viewed as ``2k``-qubit operators) classify as
    ``dense-k`` unless diagonal.
    """
    matrix = np.asarray(matrix)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        return KERNEL_DENSE
    dim = matrix.shape[0]
    off_diagonal = matrix[~np.eye(dim, dtype=bool)]
    if not np.any(off_diagonal):
        return KERNEL_DIAGONAL
    return _DENSE_CLASS_BY_DIM.get(dim, KERNEL_DENSE)


def kernel_class_of_gate(gate_name: str, num_qubits: int) -> str:
    """Kernel class of a parameterized gate kind (table lookup)."""
    try:
        return PARAM_GATE_KERNEL_CLASSES[gate_name]
    except KeyError:
        return _DENSE_CLASS_BY_DIM.get(2**num_qubits, KERNEL_DENSE)


@dataclass(frozen=True)
class PlanOp:
    """One executable plan operation.

    ``matrix`` is set for static ops (possibly the product of several
    fused source gates). Parameterized ops set ``gate_name`` and ``slot``
    — the row of the plan's parameter table holding their affine map.
    ``kernel_class`` is derived at construction (matrix structure for
    static ops, the gate-kind table for parameterized ops), so execution
    dispatch is a plain table lookup.
    """

    qubits: Tuple[int, ...]
    matrix: Optional[np.ndarray] = None
    gate_name: Optional[str] = None
    slot: int = -1
    kernel_class: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kernel_class is not None:
            return
        if self.matrix is not None:
            derived = kernel_class_of_matrix(self.matrix)
        elif self.gate_name is not None:
            derived = kernel_class_of_gate(self.gate_name, len(self.qubits))
        else:
            derived = _DENSE_CLASS_BY_DIM.get(2 ** len(self.qubits), KERNEL_DENSE)
        object.__setattr__(self, "kernel_class", derived)

    @property
    def is_static(self) -> bool:
        return self.matrix is not None


class GatePlan:
    """Structure-of-arrays executable form of a circuit."""

    def __init__(
        self,
        num_qubits: int,
        ops: Sequence[PlanOp],
        parameters: Tuple[Parameter, ...],
        param_indices: np.ndarray,
        coeffs: np.ndarray,
        offsets: np.ndarray,
        slot_gate_names: Tuple[str, ...],
        *,
        source_gate_counts: Tuple[int, int],
        fused: bool = False,
        key: Optional[str] = None,
    ):
        self.num_qubits = num_qubits
        self.ops: Tuple[PlanOp, ...] = tuple(ops)
        self.parameters = parameters
        self.param_indices = np.asarray(param_indices, dtype=np.intp)
        self.coeffs = np.asarray(coeffs, dtype=float)
        self.offsets = np.asarray(offsets, dtype=float)
        self.slot_gate_names = tuple(slot_gate_names)
        #: (single-qubit, two-qubit) gate counts of the *source* circuit,
        #: stable under fusion — noise models consume these.
        self.source_gate_counts = source_gate_counts
        self.fused = fused
        #: Content-hash cache key (set when compiled through the cache).
        self.key = key
        kind_slots: Dict[str, List[int]] = {}
        for slot, name in enumerate(self.slot_gate_names):
            kind_slots.setdefault(name, []).append(slot)
        self._kind_slots = {
            name: np.asarray(slots, dtype=np.intp)
            for name, slots in kind_slots.items()
        }

    # -- shape -----------------------------------------------------------------

    @property
    def num_parameters(self) -> int:
        return len(self.parameters)

    @property
    def num_param_ops(self) -> int:
        return int(self.param_indices.size)

    @property
    def num_static_ops(self) -> int:
        return sum(1 for op in self.ops if op.is_static)

    @property
    def num_1q_gates(self) -> int:
        return self.source_gate_counts[0]

    @property
    def num_2q_gates(self) -> int:
        return self.source_gate_counts[1]

    # -- parameter binding -----------------------------------------------------

    def bind_angles(self, theta: Sequence[float]) -> np.ndarray:
        """Per-slot angles for one parameter vector — a single affine map."""
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.num_parameters,):
            raise ValueError(
                f"expected {self.num_parameters} parameters, got shape {theta.shape}"
            )
        return self.coeffs * theta[self.param_indices] + self.offsets

    def bind_angles_batch(self, thetas: np.ndarray) -> np.ndarray:
        """``(B, num_param_ops)`` angles for a ``(B, P)`` parameter batch."""
        thetas = np.asarray(thetas, dtype=float)
        if thetas.ndim != 2 or thetas.shape[1] != self.num_parameters:
            raise ValueError(
                f"expected thetas of shape (B, {self.num_parameters}), "
                f"got {thetas.shape}"
            )
        return self.coeffs * thetas[:, self.param_indices] + self.offsets

    # -- materialization -------------------------------------------------------

    def slot_matrices(self, angles: np.ndarray) -> List[np.ndarray]:
        """One matrix per parameterized op, built per gate kind.

        ``angles`` is the output of :meth:`bind_angles`; kinds sharing a
        builder are constructed in one stacked call each.
        """
        matrices: List[Optional[np.ndarray]] = [None] * self.num_param_ops
        for kind, slots in self._kind_slots.items():
            stacked = stacked_gate_matrices(kind, angles[slots])
            for position, slot in enumerate(slots):
                matrices[slot] = stacked[position]
        return matrices

    def op_matrices(
        self, theta: Sequence[float]
    ) -> Iterator[Tuple[Tuple[int, ...], np.ndarray]]:
        """Yield ``(qubits, matrix)`` pairs for a parameter vector."""
        matrices = self.slot_matrices(self.bind_angles(theta))
        for op in self.ops:
            yield op.qubits, (op.matrix if op.matrix is not None else matrices[op.slot])

    def __repr__(self) -> str:
        return (
            f"GatePlan(qubits={self.num_qubits}, ops={len(self.ops)}, "
            f"params={self.num_parameters}, fused={self.fused})"
        )

