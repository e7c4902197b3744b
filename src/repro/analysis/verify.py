"""Tier 1 — structural and physics verifiers over the compiler IRs.

Every invariant the execution engines silently assume is checked here
*before a single state vector is allocated*:

* :func:`verify_circuit` — qubit bounds/arity, known gates, finite bound
  parameters;
* :func:`verify_gate_plan` — plan-op structure, affine-map completeness
  (every slot backed by a ``param_idx`` inside the parameter table, every
  table row owned by exactly one op), unitarity of every static (possibly
  fused) matrix, and cache-key soundness against the source circuit;
* :func:`verify_noise_plan` — everything above plus CPTP validation of
  every pre-stacked Kraus site, superoperator consistency, and the
  noise-model fingerprint actually folded into the cache key;
* :func:`verify_device_compilation` — post-routing conformance: native
  basis membership, coupling-map adjacency (through the trimmed->physical
  qubit map) and logical measurement coverage.

The compiler runs these as the opt-in :class:`~repro.compiler.passes.
VerifyPlan` pipeline pass behind ``REPRO_VERIFY=1`` (always-on in the
test suite); ``python -m repro.analysis verify --all-apps`` sweeps every
Table-1 registry app through compile+verify with and without a noise
model.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analysis.diagnostics import AnalysisReport
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import GATES
from repro.circuits.parameter import ParameterExpression

#: Numeric tolerance for unitarity / CPTP / consistency checks.
DEFAULT_ATOL = 1e-8


class PlanVerificationError(RuntimeError):
    """Raised by the ``VerifyPlan`` pass when a plan fails verification."""

    def __init__(self, report: AnalysisReport, context: str = "plan"):
        self.report = report
        super().__init__(
            f"{context} failed static verification:\n" + report.render_text()
        )


# -- circuit-level -------------------------------------------------------------


def verify_circuit(
    circuit: QuantumCircuit, report: Optional[AnalysisReport] = None
) -> AnalysisReport:
    """Structural checks over a :class:`QuantumCircuit`."""
    report = report if report is not None else AnalysisReport()
    width = circuit.num_qubits
    for index, inst in enumerate(circuit):
        locus = f"{circuit.name}[{index}]({inst.name})"
        for qubit in inst.qubits:
            if not 0 <= qubit < width:
                report.add(
                    "RPR001",
                    f"qubit {qubit} out of range for width {width}",
                    locus=locus,
                )
        if len(set(inst.qubits)) != len(inst.qubits):
            report.add(
                "RPR002", f"duplicate qubit operands {inst.qubits}", locus=locus
            )
        if inst.name == "barrier":
            continue
        spec = GATES.get(inst.name)
        if spec is None:
            report.add("RPR002", f"unknown gate {inst.name!r}", locus=locus)
            continue
        if len(inst.qubits) != spec.num_qubits:
            report.add(
                "RPR002",
                f"gate {inst.name!r} takes {spec.num_qubits} qubits, "
                f"got {len(inst.qubits)}",
                locus=locus,
            )
        if len(inst.params) != spec.num_params:
            report.add(
                "RPR004",
                f"gate {inst.name!r} takes {spec.num_params} params, "
                f"got {len(inst.params)}",
                locus=locus,
            )
        for param in inst.params:
            if not isinstance(param, ParameterExpression) and not np.isfinite(
                float(param)
            ):
                report.add(
                    "RPR004", f"non-finite bound parameter {param!r}", locus=locus
                )
    return report


# -- shared op checks ----------------------------------------------------------


def _check_static_matrix(
    matrix: np.ndarray, qubits: Tuple[int, ...], locus: str,
    report: AnalysisReport, atol: float,
) -> None:
    dim = 2 ** len(qubits)
    matrix = np.asarray(matrix)
    if matrix.shape != (dim, dim):
        report.add(
            "RPR003",
            f"matrix shape {matrix.shape} does not match "
            f"{len(qubits)}-qubit support (expected {(dim, dim)})",
            locus=locus,
        )
        return
    if not np.allclose(
        matrix.conj().T @ matrix, np.eye(dim), atol=max(atol, 1e-12)
    ):
        deviation = float(
            np.max(np.abs(matrix.conj().T @ matrix - np.eye(dim)))
        )
        report.add(
            "RPR005",
            f"static matrix is not unitary (max |U^dag U - I| = {deviation:.3e})",
            locus=locus,
            hint="a fused product of unitaries must stay unitary; "
            "check the fusion pass inputs",
        )


def _check_op_qubits(
    qubits: Tuple[int, ...], num_qubits: int, locus: str, report: AnalysisReport
) -> bool:
    ok = True
    for qubit in qubits:
        if not 0 <= qubit < num_qubits:
            report.add(
                "RPR001",
                f"qubit {qubit} out of range for plan width {num_qubits}",
                locus=locus,
            )
            ok = False
    if len(set(qubits)) != len(qubits):
        report.add("RPR002", f"duplicate qubit operands {qubits}", locus=locus)
        ok = False
    if not qubits:
        report.add("RPR002", "op has an empty qubit support", locus=locus)
        ok = False
    return ok


# -- gate plans ----------------------------------------------------------------


def verify_gate_plan(
    plan,
    source_circuit: Optional[QuantumCircuit] = None,
    parameters: Optional[Sequence] = None,
    *,
    atol: float = DEFAULT_ATOL,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Verify a :class:`~repro.compiler.ir.GatePlan`.

    With ``source_circuit`` given, the plan's cache key is recomputed from
    content and compared (RPR011).
    """
    report = report if report is not None else AnalysisReport()
    name = "GatePlan"
    num_slots = plan.num_param_ops
    table_lengths = {
        "param_indices": int(plan.param_indices.size),
        "coeffs": int(plan.coeffs.size),
        "offsets": int(plan.offsets.size),
        "slot_gate_names": len(plan.slot_gate_names),
    }
    if len(set(table_lengths.values())) > 1:
        report.add(
            "RPR004",
            f"parameter table arrays disagree in length: {table_lengths}",
            locus=name,
        )
    if plan.param_indices.size and (
        plan.param_indices.min() < 0
        or plan.param_indices.max() >= plan.num_parameters
    ):
        report.add(
            "RPR004",
            f"param_idx outside [0, {plan.num_parameters}) — the affine map "
            "reads past the parameter vector",
            locus=f"{name}.param_indices",
        )
    if plan.coeffs.size and not (
        np.all(np.isfinite(plan.coeffs)) and np.all(np.isfinite(plan.offsets))
    ):
        report.add(
            "RPR004", "non-finite affine coefficients/offsets", locus=name
        )
    used_slots = set()
    for index, op in enumerate(plan.ops):
        locus = f"{name}.ops[{index}]"
        _check_op_qubits(op.qubits, plan.num_qubits, locus, report)
        if op.is_static:
            _check_static_matrix(op.matrix, op.qubits, locus, report, atol)
            continue
        if not 0 <= op.slot < num_slots:
            report.add(
                "RPR004",
                f"parameterized op slot {op.slot} outside table of "
                f"{num_slots} rows",
                locus=locus,
            )
            continue
        if op.slot in used_slots:
            report.add(
                "RPR004",
                f"slot {op.slot} referenced by more than one op",
                locus=locus,
            )
        used_slots.add(op.slot)
        if op.gate_name != plan.slot_gate_names[op.slot]:
            report.add(
                "RPR004",
                f"op gate {op.gate_name!r} disagrees with table row "
                f"{plan.slot_gate_names[op.slot]!r}",
                locus=locus,
            )
    missing_slots = set(range(num_slots)) - used_slots
    if missing_slots:
        report.add(
            "RPR004",
            f"parameter-table rows {sorted(missing_slots)} not owned by any op",
            locus=name,
        )
    if plan.num_parameters:
        referenced = set(int(i) for i in plan.param_indices)
        unused = [
            plan.parameters[i].name
            for i in range(plan.num_parameters)
            if i not in referenced
        ]
        if unused:
            report.add(
                "RPR012",
                f"declared parameters never bound by the plan: {unused}",
                locus=name,
            )
    if source_circuit is not None and plan.key is not None:
        _check_plan_key(plan, source_circuit, parameters, report)
    return report


def _check_plan_key(plan, circuit, parameters, report: AnalysisReport) -> None:
    from repro.compiler.cache import circuit_fingerprint

    expected = "plan:" + circuit_fingerprint(
        circuit, parameters, extra=("fused" if plan.fused else "raw",)
    )
    if plan.key != expected:
        report.add(
            "RPR011",
            f"plan key {plan.key!r} does not match recomputed content key "
            f"{expected!r}",
            locus="GatePlan.key",
            hint="stale cache entry or fingerprint drift; the plan cache "
            "would serve this plan for the wrong circuit",
        )


# -- noise plans ---------------------------------------------------------------


def verify_kraus_site(
    op, locus: str, report: AnalysisReport, *, atol: float = DEFAULT_ATOL
) -> None:
    """CPTP + superoperator consistency of one :class:`ChannelOp`."""
    from repro.compiler.noise_plan import kraus_superoperator

    kraus = np.asarray(op.kraus)
    dim = 2 ** len(op.qubits)
    if kraus.ndim != 3 or kraus.shape[1:] != (dim, dim):
        report.add(
            "RPR003",
            f"Kraus stack shape {kraus.shape} does not match "
            f"{len(op.qubits)}-qubit support (expected (K, {dim}, {dim}))",
            locus=locus,
        )
        return
    total = np.einsum("kij,kil->jl", kraus.conj(), kraus)
    if not np.allclose(total, np.eye(dim), atol=atol):
        deviation = float(np.max(np.abs(total - np.eye(dim))))
        report.add(
            "RPR006",
            f"Kraus stack is not trace preserving "
            f"(max |sum K^dag K - I| = {deviation:.3e})",
            locus=locus,
            hint="channel constructors must satisfy sum_m K_m^dag K_m = I; "
            "see repro.noise.channels.is_cptp",
        )
    if op.superop is not None and not np.allclose(
        op.superop, kraus_superoperator(kraus), atol=atol
    ):
        report.add(
            "RPR007",
            "pre-compiled superoperator disagrees with the Kraus stack",
            locus=locus,
        )


def verify_noise_plan(
    plan,
    circuit: Optional[QuantumCircuit] = None,
    noise_model=None,
    *,
    atol: float = DEFAULT_ATOL,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Verify a :class:`~repro.compiler.noise_plan.NoisePlan`.

    With ``circuit`` and ``noise_model`` given, the cache key is
    recomputed to prove the noise-model fingerprint is folded in (RPR011).
    """
    from repro.compiler.noise_plan import ChannelOp

    report = report if report is not None else AnalysisReport()
    for index, op in enumerate(plan.ops):
        locus = f"NoisePlan.ops[{index}]"
        _check_op_qubits(op.qubits, plan.num_qubits, locus, report)
        if isinstance(op, ChannelOp):
            verify_kraus_site(op, locus, report, atol=atol)
        elif op.matrix is None:
            report.add(
                "RPR004",
                "noise plans hold only bound (static) unitaries, found a "
                "parameterized op",
                locus=locus,
            )
        else:
            _check_static_matrix(op.matrix, op.qubits, locus, report, atol)
    if plan.key is not None and circuit is not None and noise_model is not None:
        _check_noise_plan_key(plan, circuit, noise_model, report)
    return report


def _check_noise_plan_key(plan, circuit, noise_model, report) -> None:
    from repro.compiler.cache import circuit_fingerprint
    from repro.compiler.noise_plan import noise_fingerprint

    fingerprint = noise_fingerprint(noise_model)
    if fingerprint is None:
        report.add(
            "RPR011",
            "cached noise plan but the noise model exposes no fingerprint",
            locus="NoisePlan.key",
            hint="models without content fingerprints must compile with "
            "cache=False",
        )
        return
    expected = "noise:" + circuit_fingerprint(
        circuit, extra=(fingerprint, "fused" if plan.fused else "raw")
    )
    if plan.key != expected:
        report.add(
            "RPR011",
            f"noise plan key {plan.key!r} does not match recomputed key "
            f"{expected!r} — the model fingerprint is not folded in",
            locus="NoisePlan.key",
        )


# -- device conformance --------------------------------------------------------


def verify_device_compilation(
    compilation,
    device,
    *,
    report: Optional[AnalysisReport] = None,
) -> AnalysisReport:
    """Post-routing conformance of a :class:`DeviceCompilation`.

    Checks native-basis membership (RPR010), coupling-map adjacency of
    every two-qubit gate — mapped back to physical indices through the
    trim bookkeeping — (RPR009) and logical measurement coverage (RPR008).
    """
    report = report if report is not None else AnalysisReport()
    coupling = getattr(device, "coupling_map", device)
    basis = tuple(getattr(device, "basis_gates", ())) or None
    circuit = compilation.circuit
    physical = tuple(compilation.physical_qubits)

    def to_physical(qubit: int) -> int:
        return physical[qubit] if qubit < len(physical) else qubit

    for index, inst in enumerate(circuit):
        if inst.name == "barrier":
            continue
        locus = f"{circuit.name}[{index}]({inst.name})"
        if basis is not None and inst.name not in basis:
            report.add(
                "RPR010",
                f"gate {inst.name!r} outside device basis {basis}",
                locus=locus,
                hint="run TranslateToBasis before lowering onto a device",
            )
        if len(inst.qubits) == 2:
            a, b = (to_physical(q) for q in inst.qubits)
            if not coupling.are_connected(a, b):
                report.add(
                    "RPR009",
                    f"two-qubit gate on uncoupled physical pair ({a}, {b})",
                    locus=locus,
                    hint="routing must insert SWAPs so every 2q gate acts "
                    "on a coupled edge",
                )
    positions = tuple(compilation.logical_positions)
    if positions:
        width = circuit.num_qubits
        if len(set(positions)) != len(positions):
            report.add(
                "RPR008",
                f"duplicate logical measurement positions {positions}",
                locus="DeviceCompilation.logical_positions",
            )
        for logical, position in enumerate(positions):
            if not 0 <= position < width:
                report.add(
                    "RPR008",
                    f"logical qubit {logical} measured at position "
                    f"{position}, outside trimmed width {width}",
                    locus="DeviceCompilation.logical_positions",
                )
    report.extend(verify_circuit(circuit))
    verify_gate_plan(compilation.plan, report=report)
    return report


# -- pipeline integration ------------------------------------------------------


def verify_compilation_unit(unit, *, atol: float = DEFAULT_ATOL) -> AnalysisReport:
    """Verification entry point for the ``VerifyPlan`` pipeline pass.

    Verifies the lowered plan, and — when the unit carries a coupling map
    (device pipeline) — post-routing conformance of the native circuit
    through the trim bookkeeping recorded in the unit metadata.
    """
    from repro.transpiler.basis import NATIVE_GATES

    report = AnalysisReport()
    if unit.plan is not None:
        verify_gate_plan(unit.plan, atol=atol, report=report)
    if unit.coupling is None:
        return report
    physical = tuple(unit.metadata.get("trimmed_physical_qubits", ()))

    def to_physical(qubit: int) -> int:
        return physical[qubit] if qubit < len(physical) else qubit

    for index, inst in enumerate(unit.circuit):
        if inst.name == "barrier":
            continue
        locus = f"{unit.circuit.name}[{index}]({inst.name})"
        if inst.name not in NATIVE_GATES:
            report.add(
                "RPR010",
                f"gate {inst.name!r} outside native basis {NATIVE_GATES}",
                locus=locus,
            )
        if len(inst.qubits) == 2:
            a, b = (to_physical(q) for q in inst.qubits)
            if not unit.coupling.are_connected(a, b):
                report.add(
                    "RPR009",
                    f"two-qubit gate on uncoupled physical pair ({a}, {b})",
                    locus=locus,
                )
    positions = tuple(unit.metadata.get("logical_positions", ()))
    if positions and len(set(positions)) != len(positions):
        report.add(
            "RPR008",
            f"duplicate logical measurement positions {positions}",
            locus="CompilationUnit.logical_positions",
        )
    for logical, position in enumerate(positions):
        if not 0 <= position < unit.circuit.num_qubits:
            report.add(
                "RPR008",
                f"logical qubit {logical} measured at position {position}, "
                f"outside trimmed width {unit.circuit.num_qubits}",
                locus="CompilationUnit.logical_positions",
            )
    return report
