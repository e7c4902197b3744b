"""Staged lowering passes and the :class:`Pipeline` that runs them.

A pipeline carries a :class:`CompilationUnit` through explicit stages:

1. **circuit-level** device lowering — layout selection, swap routing and
   native-basis translation, absorbed from :mod:`repro.transpiler` as
   passes (:class:`SelectLayout`, :class:`RouteCircuit`,
   :class:`TranslateToBasis`);
2. **lowering** — :class:`LowerToPlan` turns the circuit into the
   structure-of-arrays :class:`~repro.compiler.ir.GatePlan` IR;
3. **plan-level** optimization — :class:`FuseStaticGates` multiplies
   adjacent static gates on shared (<= ``max_support``-qubit) supports
   into single matrices, which collapses the rz-sx-rz-sx-rz runs that
   native-basis translation produces into one 2x2 matrix each.

Fusion is semantics-preserving by construction: a static gate merges into
the *most recent* op only when that op was the last to touch every one of
the gate's qubits, so any op between the two acts on disjoint qubits of
the gate (it may share qubits with the merge target's other operands, but
the expanded gate acts as identity there and commutes through). Fused and
unfused execution agree to <= 1e-12 — floating-point reassociation only.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATES
from repro.circuits.parameter import Parameter, ParameterExpression
from repro.compiler.ir import GatePlan, PlanOp
from repro.obs import METRICS, TRACER
from repro.transpiler.basis import translate_to_basis
from repro.transpiler.layout import (
    Layout,
    apply_layout,
    linear_chain_layout,
    trivial_layout,
)
from repro.transpiler.routing import route_circuit

#: Largest qubit support a fused matrix may span (4x4 matrices).
MAX_FUSION_SUPPORT = 2


@dataclass
class CompilationUnit:
    """Mutable state a pipeline threads through its passes."""

    circuit: QuantumCircuit
    parameters: Optional[Tuple[Parameter, ...]] = None
    coupling: Optional[object] = None
    plan: Optional[GatePlan] = None
    layout: Optional[Layout] = None
    final_permutation: Optional[Dict[int, int]] = None
    num_swaps: int = 0
    metadata: Dict[str, object] = field(default_factory=dict)


def _gate_count(unit: CompilationUnit) -> int:
    """Gate count of the unit's current representation (plan wins)."""
    if unit.plan is not None:
        return len(unit.plan.ops)
    return len(unit.circuit)


class Pass:
    """Base class: one named transformation of a :class:`CompilationUnit`."""

    name = "pass"

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        raise NotImplementedError


class Pipeline:
    """An explicit ordered list of passes."""

    def __init__(self, passes: Sequence[Pass], name: str = "pipeline"):
        self.passes = tuple(passes)
        self.name = name

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        tracer = TRACER
        if not tracer.enabled:
            for pipeline_pass in self.passes:
                unit = pipeline_pass.run(unit)
            return unit
        with tracer.span(
            f"compile.{self.name}", category="compile",
            qubits=unit.circuit.num_qubits,
        ):
            for pipeline_pass in self.passes:
                before = _gate_count(unit)
                with tracer.span(
                    f"compile.{pipeline_pass.name}", category="compile",
                    gates_before=before,
                ) as span:
                    unit = pipeline_pass.run(unit)
                    span.set(gates_after=_gate_count(unit))
        return unit

    def compile(
        self,
        circuit: QuantumCircuit,
        parameters: Optional[Sequence[Parameter]] = None,
        coupling=None,
    ) -> GatePlan:
        """Run the pipeline and return the resulting plan."""
        unit = self.run(
            CompilationUnit(
                circuit=circuit,
                parameters=tuple(parameters) if parameters is not None else None,
                coupling=coupling,
            )
        )
        if unit.plan is None:
            raise RuntimeError(
                f"pipeline {self.name!r} produced no plan; add a LowerToPlan pass"
            )
        return unit.plan

    def __repr__(self) -> str:
        names = ", ".join(p.name for p in self.passes)
        return f"Pipeline({self.name!r}: [{names}])"


# -- circuit-level device passes (absorbed from repro.transpiler) --------------


class SelectLayout(Pass):
    """Place virtual qubits onto physical ones (chain or trivial)."""

    name = "select-layout"

    def __init__(self, method: str = "chain"):
        if method not in ("chain", "trivial"):
            raise ValueError(f"unknown layout method {method!r}")
        self.method = method

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        if unit.coupling is None:
            raise ValueError("SelectLayout requires a coupling map")
        if self.method == "chain":
            unit.layout = linear_chain_layout(unit.circuit, unit.coupling)
        else:
            unit.layout = trivial_layout(unit.circuit, unit.coupling)
        unit.circuit = apply_layout(unit.circuit, unit.layout)
        return unit


class RouteCircuit(Pass):
    """Insert SWAPs so two-qubit gates act on coupled qubits."""

    name = "route"

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        if unit.coupling is None:
            raise ValueError("RouteCircuit requires a coupling map")
        unit.circuit, unit.final_permutation = route_circuit(
            unit.circuit, unit.coupling
        )
        unit.num_swaps = unit.circuit.count_ops().get("swap", 0)
        return unit


class TranslateToBasis(Pass):
    """Rewrite gates into the IBM native set {rz, sx, x, cx}."""

    name = "basis-translation"

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        unit.circuit = translate_to_basis(unit.circuit)
        return unit


class TrimIdleWires(Pass):
    """Drop device qubits the routed circuit never touches.

    A 3-qubit ansatz laid out on a 27-qubit machine must not execute (or
    simulate!) at width 27 — a density matrix at that width is ``4**27``
    complex entries. This pass relabels the circuit onto its *live*
    qubits (gate supports plus every logical qubit's final position) and
    records ``logical_positions`` — where each logical qubit sits in the
    trimmed circuit at measurement time — in the unit metadata.

    Runs after :class:`RouteCircuit` (it needs the layout and the final
    permutation) and before lowering.
    """

    name = "trim-idle-wires"

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        if unit.layout is None:
            raise ValueError("TrimIdleWires requires a layout (run SelectLayout)")
        circuit = unit.circuit
        permutation = unit.final_permutation or {}
        touched = {
            q
            for inst in circuit
            if inst.name != "barrier"
            for q in inst.qubits
        }
        logical_end = [
            permutation.get(unit.layout.physical(v), unit.layout.physical(v))
            for v in unit.layout.virtual_qubits()
        ]
        keep = sorted(touched | set(logical_end))
        index = {q: i for i, q in enumerate(keep)}
        trimmed = QuantumCircuit(max(1, len(keep)), name=circuit.name)
        for inst in circuit:
            mapped = tuple(index[q] for q in inst.qubits if q in index)
            if inst.name == "barrier":
                if mapped:
                    trimmed.barrier(*mapped)
                continue
            trimmed.append(inst.name, mapped, inst.params)
        unit.circuit = trimmed
        unit.metadata["logical_positions"] = tuple(index[p] for p in logical_end)
        # Trimmed index -> physical device qubit, consumed by result
        # bookkeeping and the coupling-conformance verifier.
        unit.metadata["trimmed_physical_qubits"] = tuple(keep)
        return unit


# -- lowering and plan-level passes --------------------------------------------


class LowerToPlan(Pass):
    """Lower the circuit to the SoA :class:`GatePlan` IR.

    Barriers are dropped. Fixed gates pre-compute their matrices; each
    single-parameter gate becomes one row ``angle = coeff *
    theta[param_index] + offset`` of the plan's parameter table, indexed
    against ``unit.parameters`` (default: the circuit's first-appearance
    order). Gates with several symbolic parameters must be bound first.
    """

    name = "lower"

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        circuit = unit.circuit
        parameters = (
            circuit.parameters if unit.parameters is None else unit.parameters
        )
        index_of = {param: i for i, param in enumerate(parameters)}
        ops: List[PlanOp] = []
        param_indices: List[int] = []
        coeffs: List[float] = []
        offsets: List[float] = []
        slot_gate_names: List[str] = []
        singles = twos = 0
        for inst in circuit:
            if inst.name == "barrier":
                continue
            if len(inst.qubits) == 2:
                twos += 1
            else:
                singles += 1
            spec = GATES[inst.name]
            if not inst.is_parameterized:
                matrix = spec.matrix(tuple(float(p) for p in inst.params))
                ops.append(PlanOp(inst.qubits, matrix=matrix))
                continue
            if spec.num_params != 1:
                raise ValueError(
                    f"parameterized gate {inst.name!r} with {spec.num_params}"
                    " params is not supported in compiled plans; bind it first"
                )
            expr = inst.params[0]
            if not isinstance(expr, ParameterExpression):
                raise TypeError("expected a ParameterExpression")
            if expr.parameter not in index_of:
                raise KeyError(
                    f"parameter {expr.parameter.name!r} missing from "
                    "parameter ordering"
                )
            ops.append(
                PlanOp(inst.qubits, gate_name=inst.name, slot=len(param_indices))
            )
            param_indices.append(index_of[expr.parameter])
            coeffs.append(expr.coeff)
            offsets.append(expr.offset)
            slot_gate_names.append(inst.name)
        unit.plan = GatePlan(
            circuit.num_qubits,
            ops,
            tuple(parameters),
            np.asarray(param_indices, dtype=np.intp),
            np.asarray(coeffs, dtype=float),
            np.asarray(offsets, dtype=float),
            tuple(slot_gate_names),
            source_gate_counts=(singles, twos),
        )
        return unit


class FuseStaticGates(Pass):
    """Multiply adjacent static gates on shared supports into one matrix."""

    name = "fuse-static"

    def __init__(self, max_support: int = MAX_FUSION_SUPPORT):
        if max_support < 1:
            raise ValueError("max_support must be >= 1")
        self.max_support = max_support

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        if unit.plan is None:
            raise ValueError("FuseStaticGates requires a lowered plan")
        before = len(unit.plan.ops)
        unit.plan = fuse_plan(unit.plan, max_support=self.max_support)
        # Fusion efficacy as a metric, not folklore: total ops folded
        # away by static fusion, process-wide.
        METRICS.counter("compile.fusion.ops_before").inc(before)
        METRICS.counter("compile.fusion.ops_after").inc(len(unit.plan.ops))
        return unit


def _expand_matrix(
    matrix: np.ndarray, qubits: Tuple[int, ...], union: Tuple[int, ...]
) -> np.ndarray:
    """Embed a gate matrix on ``qubits`` into the larger ``union`` support."""
    if qubits == union:
        return matrix
    k = len(union)
    extras = tuple(q for q in union if q not in qubits)
    # kron appends identity axes after the gate's own: axis order is
    # (qubits..., extras...); permute tensor axes into union order.
    full = np.kron(matrix, np.eye(2 ** len(extras), dtype=complex))
    order = qubits + extras
    perm = tuple(order.index(q) for q in union)
    tensor = full.reshape((2,) * (2 * k))
    tensor = np.transpose(tensor, axes=perm + tuple(k + p for p in perm))
    return np.ascontiguousarray(tensor.reshape(2**k, 2**k))


def fuse_static_ops(
    ops: Sequence[PlanOp], num_qubits: int, max_support: int = MAX_FUSION_SUPPORT
) -> Tuple[PlanOp, ...]:
    """Greedy adjacent static-gate fusion over a plan's op list.

    A static op merges into the most recent emitted op when (a) that op
    was the last to touch *every* qubit of the new op (or the qubit is so
    far untouched), (b) it is itself static, and (c) the union support
    stays within ``max_support`` qubits. Parameterized ops act as fusion
    barriers on their qubits.
    """
    fused: List[PlanOp] = []
    last_touch = [-1] * num_qubits

    for op in ops:
        if op.matrix is not None:
            owners = {last_touch[q] for q in op.qubits}
            owners.discard(-1)
            if len(owners) == 1:
                target_index = owners.pop()
                target = fused[target_index]
                union = target.qubits + tuple(
                    q for q in op.qubits if q not in target.qubits
                )
                if target.matrix is not None and len(union) <= max_support:
                    product = _expand_matrix(op.matrix, op.qubits, union) @ (
                        _expand_matrix(target.matrix, target.qubits, union)
                    )
                    fused[target_index] = PlanOp(union, matrix=product)
                    for q in op.qubits:
                        last_touch[q] = target_index
                    continue
        fused.append(op)
        index = len(fused) - 1
        for q in op.qubits:
            last_touch[q] = index

    return tuple(fused)


def fuse_plan(plan: GatePlan, max_support: int = MAX_FUSION_SUPPORT) -> GatePlan:
    """A fused copy of ``plan`` (shares the SoA parameter tables)."""
    if plan.fused:
        return plan
    fused_ops = fuse_static_ops(plan.ops, plan.num_qubits, max_support)
    return GatePlan(
        plan.num_qubits,
        fused_ops,
        plan.parameters,
        plan.param_indices,
        plan.coeffs,
        plan.offsets,
        plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
        fused=True,
        key=plan.key,
    )


class VerifyPlan(Pass):
    """Statically verify the lowered plan (opt-in, ``REPRO_VERIFY=1``).

    Runs the Tier-1 verifiers of :mod:`repro.analysis.verify` over the
    compilation unit — plan structure, affine-map completeness, unitarity
    of every (possibly fused) static matrix, and, on device pipelines,
    post-routing coupling/basis/measurement conformance. Error-severity
    diagnostics raise :class:`~repro.analysis.verify.
    PlanVerificationError` so a corrupted plan never reaches a simulator.
    """

    name = "verify"

    def __init__(self, atol: Optional[float] = None):
        self.atol = atol

    def run(self, unit: CompilationUnit) -> CompilationUnit:
        # Imported lazily: repro.analysis depends on the compiler IR.
        from repro.analysis.verify import (
            DEFAULT_ATOL,
            PlanVerificationError,
            verify_compilation_unit,
        )

        report = verify_compilation_unit(
            unit, atol=self.atol if self.atol is not None else DEFAULT_ATOL
        )
        if report.has_errors:
            raise PlanVerificationError(report, context=unit.circuit.name)
        return unit


def verification_enabled() -> bool:
    """Whether plans are verified at build time (``REPRO_VERIFY=1``).

    Pipelines append :class:`VerifyPlan`, and noise plans run the same
    verifiers; :mod:`repro.analysis` re-exports this function.
    """
    value = os.environ.get("REPRO_VERIFY", "").strip().lower()
    return value in ("1", "on", "true", "yes")


def default_pipeline(fusion: bool = True) -> Pipeline:
    """The standard simulation pipeline: lower, then (optionally) fuse."""
    passes: List[Pass] = [LowerToPlan()]
    if fusion:
        passes.append(FuseStaticGates())
    if verification_enabled():
        passes.append(VerifyPlan())
    return Pipeline(passes, name="default")


def device_pipeline(layout_method: str = "chain", fusion: bool = True) -> Pipeline:
    """The device-aware pipeline: layout, route, trim, basis, lower, fuse."""
    passes: List[Pass] = [
        SelectLayout(layout_method),
        RouteCircuit(),
        TrimIdleWires(),
        TranslateToBasis(),
        LowerToPlan(),
    ]
    if fusion:
        passes.append(FuseStaticGates())
    if verification_enabled():
        passes.append(VerifyPlan())
    return Pipeline(passes, name=f"device-{layout_method}")
