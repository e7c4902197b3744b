"""Tier-1 verifier tests: clean passes plus injected faults per RPR code."""

import numpy as np
import pytest

from repro.analysis import (
    AnalysisReport,
    PlanVerificationError,
    Severity,
    verify_circuit,
    verify_device_compilation,
    verify_gate_plan,
    verify_kraus_site,
    verify_noise_plan,
)
from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import Instruction, QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.compiler import (
    compile_noise_plan,
    compile_plan,
    transpile_then_compile,
)
from repro.compiler.ir import GatePlan, PlanOp
from repro.compiler.noise_plan import ChannelOp, kraus_superoperator
from repro.devices.ibmq_fake import get_device
from repro.experiments.registry import APPLICATIONS
from repro.noise import channels
from repro.noise.noise_model import NoiseModel

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)


def codes(report: AnalysisReport):
    return {d.code for d in report}


def bell_plan(**kwargs):
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    return compile_plan(circuit, **kwargs), circuit


# -- clean passes --------------------------------------------------------------


@pytest.mark.parametrize("app_name", sorted(APPLICATIONS))
def test_registry_apps_verify_clean(app_name):
    """Every Table-1 app compiles and verifies with zero errors on every
    route: symbolic, device-routed, and noisy."""
    app = APPLICATIONS[app_name]
    ansatz = app.build_ansatz()
    circuit = ansatz.circuit
    report = AnalysisReport()
    verify_circuit(circuit, report=report)
    plan = compile_plan(circuit, ansatz.parameters)
    verify_gate_plan(plan, circuit, ansatz.parameters, report=report)

    bound = circuit.bind(np.zeros(ansatz.num_parameters))
    device = app.build_device()
    compilation = transpile_then_compile(bound, device)
    verify_device_compilation(compilation, device, report=report)

    model = device.noise_model()
    noise_plan = compile_noise_plan(bound, model)
    verify_noise_plan(noise_plan, bound, model, report=report)
    assert not report.has_errors, report.render_text()


def test_clean_symbolic_plan_reports_nothing():
    plan, circuit = bell_plan()
    report = verify_gate_plan(plan, circuit)
    assert len(report) == 0


# -- RPR001 / RPR002 / RPR003: structural op faults ----------------------------


def test_rpr001_qubit_out_of_bounds():
    plan, _ = bell_plan()
    bad_ops = plan.ops + (PlanOp((5,), matrix=np.eye(2, dtype=complex)),)
    bad = GatePlan(
        plan.num_qubits, bad_ops, plan.parameters, plan.param_indices,
        plan.coeffs, plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    assert "RPR001" in codes(verify_gate_plan(bad))


def test_rpr001_circuit_qubit_out_of_bounds():
    circuit = QuantumCircuit(2)
    circuit._instructions.append(Instruction("x", (3,)))
    assert "RPR001" in codes(verify_circuit(circuit))


def test_rpr002_duplicate_operands():
    circuit = QuantumCircuit(2)
    circuit._instructions.append(Instruction("cx", (1, 1)))
    assert "RPR002" in codes(verify_circuit(circuit))


def test_rpr002_unknown_gate_and_arity():
    circuit = QuantumCircuit(2)
    circuit._instructions.append(Instruction("frobnicate", (0,)))
    circuit._instructions.append(Instruction("cx", (0,)))
    report = verify_circuit(circuit)
    assert sum(d.code == "RPR002" for d in report) == 2


def test_rpr003_matrix_shape_mismatch():
    plan, _ = bell_plan()
    bad_ops = plan.ops + (PlanOp((0, 1), matrix=np.eye(2, dtype=complex)),)
    bad = GatePlan(
        plan.num_qubits, bad_ops, plan.parameters, plan.param_indices,
        plan.coeffs, plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    assert "RPR003" in codes(verify_gate_plan(bad))


# -- RPR004: parameter-binding completeness ------------------------------------


def parameterized_plan():
    theta = Parameter("t")
    circuit = QuantumCircuit(1)
    circuit.ry(theta, 0)
    return compile_plan(circuit, (theta,), cache=False), circuit


def test_rpr004_param_index_out_of_range():
    plan, _ = parameterized_plan()
    bad = GatePlan(
        plan.num_qubits, plan.ops, plan.parameters,
        np.array([7]), plan.coeffs, plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    assert "RPR004" in codes(verify_gate_plan(bad))


def test_rpr004_slot_out_of_range():
    plan, _ = parameterized_plan()
    bad_ops = (PlanOp((0,), gate_name="ry", slot=3),)
    bad = GatePlan(
        plan.num_qubits, bad_ops, plan.parameters, plan.param_indices,
        plan.coeffs, plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    assert "RPR004" in codes(verify_gate_plan(bad))


def test_rpr004_orphaned_table_row():
    plan, _ = parameterized_plan()
    bad = GatePlan(
        plan.num_qubits, (), plan.parameters, plan.param_indices,
        plan.coeffs, plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    assert "RPR004" in codes(verify_gate_plan(bad))


def test_rpr004_table_length_mismatch():
    plan, _ = parameterized_plan()
    bad = GatePlan(
        plan.num_qubits, plan.ops, plan.parameters, plan.param_indices,
        np.array([1.0, 2.0]), plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    assert "RPR004" in codes(verify_gate_plan(bad))


def test_rpr012_unused_parameter_is_warning():
    theta = Parameter("t")
    unused = Parameter("u")
    circuit = QuantumCircuit(1)
    circuit.ry(theta, 0)
    plan = compile_plan(circuit, (theta, unused), cache=False)
    report = verify_gate_plan(plan)
    assert "RPR012" in codes(report)
    assert not report.has_errors


# -- RPR005: unitarity ---------------------------------------------------------


def test_rpr005_non_unitary_fused_matrix():
    plan, _ = bell_plan()
    bad_ops = tuple(
        PlanOp(op.qubits, matrix=op.matrix * 1.5) if op.is_static else op
        for op in plan.ops
    )
    bad = GatePlan(
        plan.num_qubits, bad_ops, plan.parameters, plan.param_indices,
        plan.coeffs, plan.offsets, plan.slot_gate_names,
        source_gate_counts=plan.source_gate_counts,
    )
    report = verify_gate_plan(bad)
    assert "RPR005" in codes(report)
    assert report.has_errors


# -- RPR006 / RPR007: Kraus physics --------------------------------------------

CHANNEL_CONSTRUCTORS = [
    ("depolarizing_1q", lambda: channels.depolarizing_kraus(0.03, 1), 1),
    ("depolarizing_2q", lambda: channels.depolarizing_kraus(0.08, 2), 2),
    ("amplitude_damping", lambda: channels.amplitude_damping_kraus(0.12), 1),
    ("phase_damping", lambda: channels.phase_damping_kraus(0.2), 1),
    ("bit_flip", lambda: channels.bit_flip_kraus(0.25), 1),
    ("phase_flip", lambda: channels.phase_flip_kraus(0.4), 1),
    (
        "thermal_relaxation",
        lambda: channels.thermal_relaxation_kraus(80.0, 100.0, 0.5),
        1,
    ),
]


@pytest.mark.parametrize(
    "kraus_factory,num_qubits",
    [(factory, n) for _, factory, n in CHANNEL_CONSTRUCTORS],
    ids=[name for name, _, _ in CHANNEL_CONSTRUCTORS],
)
def test_every_channel_constructor_is_cptp_clean(kraus_factory, num_qubits):
    """Each constructor in noise/channels.py builds a verifier-clean site."""
    op = ChannelOp(tuple(range(num_qubits)), np.stack(kraus_factory()))
    report = AnalysisReport()
    verify_kraus_site(op, "site", report)
    assert len(report) == 0


@pytest.mark.parametrize(
    "kraus_factory,num_qubits",
    [(factory, n) for _, factory, n in CHANNEL_CONSTRUCTORS],
    ids=[name for name, _, _ in CHANNEL_CONSTRUCTORS],
)
def test_rpr006_corrupted_kraus_flagged_not_crashed(kraus_factory, num_qubits):
    """Scaling any constructor's Kraus stack breaks trace preservation; the
    verifier must report RPR006 and keep going."""
    corrupted = np.stack(kraus_factory()) * 1.1
    op = ChannelOp(tuple(range(num_qubits)), corrupted)
    report = AnalysisReport()
    verify_kraus_site(op, "site", report)
    assert {"RPR006"} == codes(report)


def test_rpr006_dropped_kraus_operator():
    kraus = np.stack(channels.amplitude_damping_kraus(0.3)[:1])
    op = ChannelOp((0,), kraus)
    report = AnalysisReport()
    verify_kraus_site(op, "site", report)
    assert "RPR006" in codes(report)


def test_rpr007_superoperator_mismatch():
    op = ChannelOp((0,), np.stack(channels.bit_flip_kraus(0.2)))
    # Desync the pre-compiled superoperator from the Kraus stack.
    object.__setattr__(
        op, "superop", kraus_superoperator(np.stack(channels.bit_flip_kraus(0.7)))
    )
    report = AnalysisReport()
    verify_kraus_site(op, "site", report)
    assert "RPR007" in codes(report)


def test_rpr003_kraus_shape_mismatch():
    op = ChannelOp((0, 1), np.stack(channels.bit_flip_kraus(0.2)))
    report = AnalysisReport()
    verify_kraus_site(op, "site", report)
    assert "RPR003" in codes(report)


# -- RPR008/9/10: device conformance -------------------------------------------


def routed_bell(device):
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 2)
    return transpile_then_compile(circuit, device, cache=False)


def test_device_compilation_verifies_clean():
    device = get_device("guadalupe")
    compilation = routed_bell(device)
    report = verify_device_compilation(compilation, device)
    assert not report.has_errors, report.render_text()


def test_rpr009_uncoupled_two_qubit_gate():
    device = get_device("guadalupe")
    compilation = routed_bell(device)
    broken = compilation.circuit.copy()
    # Splice in a cx on a pair that is never a coupled edge under any
    # trimmed->physical mapping of this chain layout.
    far_a, far_b = 0, broken.num_qubits - 1
    assert broken.num_qubits >= 3
    broken._instructions.append(Instruction("cx", (far_a, far_b)))
    from dataclasses import replace

    bad = replace(compilation, circuit=broken)
    report = verify_device_compilation(bad, device)
    assert "RPR009" in codes(report)


def test_rpr010_non_basis_gate():
    device = get_device("guadalupe")
    compilation = routed_bell(device)
    broken = compilation.circuit.copy()
    broken._instructions.append(Instruction("rzz", (0, 1), (0.3,)))
    from dataclasses import replace

    bad = replace(compilation, circuit=broken)
    report = verify_device_compilation(bad, device)
    assert "RPR010" in codes(report)


def test_rpr008_duplicate_measurement_positions():
    device = get_device("guadalupe")
    compilation = routed_bell(device)
    from dataclasses import replace

    positions = tuple(compilation.logical_positions)
    assert len(positions) >= 2
    bad = replace(
        compilation, logical_positions=(positions[0],) * len(positions)
    )
    report = verify_device_compilation(bad, device)
    assert "RPR008" in codes(report)


def test_rpr008_position_out_of_range():
    device = get_device("guadalupe")
    compilation = routed_bell(device)
    from dataclasses import replace

    bad = replace(compilation, logical_positions=(0, 1, 99))
    report = verify_device_compilation(bad, device)
    assert "RPR008" in codes(report)


# -- RPR011: cache-key soundness -----------------------------------------------


def test_rpr011_gate_plan_key_mismatch():
    plan, circuit = bell_plan()
    other = QuantumCircuit(2)
    other.x(0)
    report = verify_gate_plan(plan, other)
    assert "RPR011" in codes(report)


def test_rpr011_noise_plan_fingerprint_folded_in():
    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    bound = circuit.bind([])
    model = NoiseModel(0.01, 0.05)
    plan = compile_noise_plan(bound, model)
    # Matching (circuit, model): clean.
    assert not verify_noise_plan(plan, bound, model).has_errors
    # A different model must invalidate the key — fingerprint is folded in.
    report = verify_noise_plan(plan, bound, NoiseModel(0.02, 0.05))
    assert "RPR011" in codes(report)


def test_rpr011_cached_plan_without_fingerprint():
    circuit = QuantumCircuit(1)
    circuit.x(0)
    bound = circuit.bind([])
    model = NoiseModel(0.01, 0.05)
    plan = compile_noise_plan(bound, model)

    class Fingerprintless:
        channels_for = model.channels_for

    report = verify_noise_plan(plan, bound, Fingerprintless())
    assert "RPR011" in codes(report)


# -- pipeline integration ------------------------------------------------------


def test_verify_plan_pass_raises_on_corrupt_lowering(monkeypatch):
    """With REPRO_VERIFY on, a pass that corrupts the plan mid-pipeline is
    caught before any simulator sees it."""
    from repro.compiler.passes import (
        LowerToPlan,
        Pass,
        Pipeline,
        VerifyPlan,
    )

    class CorruptPlan(Pass):
        name = "corrupt"

        def run(self, unit):
            ops = tuple(
                PlanOp(op.qubits, matrix=op.matrix * 2.0)
                if op.is_static
                else op
                for op in unit.plan.ops
            )
            unit.plan = GatePlan(
                unit.plan.num_qubits, ops, unit.plan.parameters,
                unit.plan.param_indices, unit.plan.coeffs, unit.plan.offsets,
                unit.plan.slot_gate_names,
                source_gate_counts=unit.plan.source_gate_counts,
            )
            return unit

    circuit = QuantumCircuit(2)
    circuit.h(0)
    circuit.cx(0, 1)
    pipeline = Pipeline([LowerToPlan(), CorruptPlan(), VerifyPlan()])
    with pytest.raises(PlanVerificationError) as excinfo:
        pipeline.compile(circuit)
    assert any(d.code == "RPR005" for d in excinfo.value.report)


def test_verify_gated_by_env(monkeypatch):
    from repro.compiler.passes import default_pipeline

    monkeypatch.setenv("REPRO_VERIFY", "0")
    assert all(p.name != "verify" for p in default_pipeline().passes)
    monkeypatch.setenv("REPRO_VERIFY", "1")
    assert any(p.name == "verify" for p in default_pipeline().passes)


def test_compile_noise_plan_verifies_under_env(monkeypatch):
    monkeypatch.setenv("REPRO_VERIFY", "1")

    class BrokenModel(NoiseModel):
        def channels_for(self, gate_name, qubits):
            for kraus, target in super().channels_for(gate_name, qubits):
                yield [k * 1.3 for k in kraus], target

    circuit = QuantumCircuit(1)
    circuit.x(0)
    with pytest.raises(PlanVerificationError) as excinfo:
        compile_noise_plan(circuit.bind([]), BrokenModel(0.05, 0.1))
    assert any(d.code == "RPR006" for d in excinfo.value.report)


def test_verified_ansatz_compiles_through_pipeline(monkeypatch):
    """An end-to-end compile of a real ansatz under REPRO_VERIFY=1."""
    monkeypatch.setenv("REPRO_VERIFY", "1")
    ansatz = EfficientSU2(4, reps=2)
    plan = compile_plan(ansatz.circuit, ansatz.parameters, cache=False)
    assert plan.num_parameters == ansatz.num_parameters


def test_severity_ordering():
    assert Severity.ERROR > Severity.WARNING > Severity.INFO
