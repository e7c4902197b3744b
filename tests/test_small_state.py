"""The small-state evaluator and the objective's same-point memo.

Plans of at most ``SMALL_STATE_MAX_QUBITS`` qubits run as a layered
program (:mod:`repro.simulator.small_state`); the fused run loop
(:func:`repro.simulator.kernels.run_fused`) is its oracle here, to 1e-12
per amplitude. Batch rows must equal serial runs bit for bit, and the
memo behind :meth:`EnergyObjective.energy_at` must never change a
result.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.hamiltonians.tfim as tfim_module
import repro.vqa.objective as objective_module
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import stacked_gate_matrices
from repro.circuits.parameter import Parameter
from repro.compiler import compile_plan
from repro.experiments.registry import app_names, get_app
from repro.experiments.schemes import build_vqe
from repro.noise.noise_model import NoiseModel
from repro.obs.metrics import METRICS
from repro.operators.pauli_sum import PauliSum
from repro.simulator import kernels, small_state
from repro.simulator.batched import BatchedStatevectorSimulator
from repro.simulator.statevector import StatevectorSimulator
from repro.vqa.objective import EnergyObjective
from repro.vqa.vqe import VQE

from test_batched_equivalence import random_parameterized_circuit

TOLERANCE = 1e-12
MAX_QUBITS = small_state.SMALL_STATE_MAX_QUBITS
BATCHES = (1, 2, 3, 8)


def _oracle(plan, thetas, initial=None):
    """``(B, 2**n)`` states through the fused run loop."""
    angles = plan.bind_angles_batch(thetas)
    matrices = [
        stacked_gate_matrices(name, angles[:, slot])
        for slot, name in enumerate(plan.slot_gate_names)
    ]
    batch = len(thetas)
    shape = (batch,) + (2,) * plan.num_qubits
    if initial is None:
        state = np.zeros(shape, dtype=complex)
        state[(slice(None),) + (0,) * plan.num_qubits] = 1.0
    else:
        state = np.array(initial, dtype=complex).reshape(shape)
    out = kernels.run_fused(plan, matrices, state, batch_axes=1)
    return out.reshape(batch, -1)


def _static_heavy_circuit(rng, num_qubits: int) -> QuantumCircuit:
    """Parameterized layers around non-monomial static ops.

    ``h``/``sx`` and literal-angle rotations fold into rotation layers;
    after fusion, ``h`` next to a ``cx`` becomes a dense static 4x4.
    """
    circuit = QuantumCircuit(num_qubits, name="static-heavy")
    for layer in range(3):
        for qubit in range(num_qubits):
            circuit.append("ry", (qubit,), (Parameter(f"a{layer}_{qubit}"),))
            circuit.append("rx", (qubit,), (float(rng.uniform(-3, 3)),))
        circuit.append("h", (int(rng.integers(num_qubits)),))
        circuit.append("sx", (int(rng.integers(num_qubits)),))
        for qubit in range(num_qubits - 1):
            circuit.append("cx", (qubit, qubit + 1))
            circuit.append("h", (qubit,))
        if num_qubits > 2:
            circuit.append("rz", (num_qubits - 1,), (0.4,))
            circuit.append("cz", (num_qubits - 1, 0))
    return circuit


def _random_states(rng, batch, num_qubits):
    states = rng.normal(size=(batch, 1 << num_qubits)) + 1j * rng.normal(
        size=(batch, 1 << num_qubits)
    )
    return states / np.linalg.norm(states, axis=1, keepdims=True)


# ------------------------------------------------------------ oracle parity


@pytest.mark.parametrize("num_qubits", range(1, MAX_QUBITS + 1))
def test_program_matches_run_fused_on_random_circuits(num_qubits):
    rng = np.random.default_rng(500 + num_qubits)
    circuits = [random_parameterized_circuit(rng, num_qubits, depth=24)]
    circuits.append(_static_heavy_circuit(rng, num_qubits))
    for circuit in circuits:
        for fusion in (True, False):
            plan = compile_plan(circuit, fusion=fusion, cache=False)
            program = small_state.layered_program(plan)
            for batch in BATCHES:
                thetas = rng.uniform(-np.pi, np.pi, (batch, plan.num_parameters))
                got = program.run(plan.bind_angles_batch(thetas))
                assert got.flags.c_contiguous and got.shape == (batch, 1 << num_qubits)
                np.testing.assert_allclose(
                    got, _oracle(plan, thetas), atol=TOLERANCE, rtol=0.0
                )


@pytest.mark.parametrize("num_qubits", [1, 2, 5, MAX_QUBITS])
def test_program_runs_fully_bound_circuits(num_qubits):
    rng = np.random.default_rng(70 + num_qubits)
    circuit = _static_heavy_circuit(rng, num_qubits)
    theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
    bound = circuit.bind(dict(zip(circuit.parameters, theta)))
    for fusion in (True, False):
        plan = compile_plan(bound, fusion=fusion, cache=False)
        assert plan.num_parameters == 0
        got = StatevectorSimulator(num_qubits).run_plan(plan, np.empty(0))
        np.testing.assert_allclose(
            got.reshape(-1),
            _oracle(plan, np.empty((1, 0)))[0],
            atol=TOLERANCE,
            rtol=0.0,
        )


@pytest.mark.parametrize("num_qubits", [1, 3, 6, MAX_QUBITS])
def test_program_honours_initial_states(num_qubits):
    rng = np.random.default_rng(90 + num_qubits)
    plan = compile_plan(
        random_parameterized_circuit(rng, num_qubits, depth=16), cache=False
    )
    for batch in BATCHES:
        thetas = rng.uniform(-np.pi, np.pi, (batch, plan.num_parameters))
        initial = _random_states(rng, batch, num_qubits)
        expected = _oracle(plan, thetas, initial)
        got = BatchedStatevectorSimulator(num_qubits).run_flat(
            plan, thetas, initial_states=initial
        )
        np.testing.assert_allclose(got, expected, atol=TOLERANCE, rtol=0.0)
        serial = StatevectorSimulator(num_qubits)
        for row, theta in enumerate(thetas):
            state = serial.run_plan(plan, theta, initial_state=initial[row])
            np.testing.assert_array_equal(state.reshape(-1), got[row])


def test_simulators_route_by_qubit_count(monkeypatch):
    built = []
    real = small_state.layered_program
    monkeypatch.setattr(
        small_state, "layered_program", lambda plan: built.append(plan) or real(plan)
    )
    rng = np.random.default_rng(3)
    for num_qubits in (MAX_QUBITS, MAX_QUBITS + 1):
        plan = compile_plan(
            random_parameterized_circuit(rng, num_qubits, depth=6), cache=False
        )
        theta = rng.uniform(-np.pi, np.pi, plan.num_parameters)
        StatevectorSimulator(num_qubits).run_plan(plan, theta)
        BatchedStatevectorSimulator(num_qubits).run_flat(plan, theta[None])
    assert [plan.num_qubits for plan in built] == [MAX_QUBITS, MAX_QUBITS]


def test_program_is_built_once_per_plan_across_threads():
    plan = compile_plan(
        random_parameterized_circuit(np.random.default_rng(8), 6), cache=False
    )
    programs = []
    threads = [
        threading.Thread(
            target=lambda: programs.append(small_state.layered_program(plan))
        )
        for _ in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(programs) == 8
    assert all(program is programs[0] for program in programs)


# ------------------------------------------------------- batch == serial bits


@pytest.mark.parametrize("app", app_names())
def test_table1_batch_rows_equal_serial_bit_for_bit(app):
    config = get_app(app)
    objective = EnergyObjective(config.build_ansatz(), config.build_hamiltonian())
    rng = np.random.default_rng(int(app[-1]))
    for batch in BATCHES:
        thetas = rng.uniform(-np.pi, np.pi, (batch, objective.num_parameters))
        states = objective.batch_statevectors(thetas)
        energies = objective.batch_energies(thetas)
        for row, theta in enumerate(thetas):
            np.testing.assert_array_equal(states[row], objective.statevector(theta))
            assert energies[row] == objective.ideal_energy(theta)


# ---------------------------------------------------------- kernel counters


def test_one_evaluation_bumps_each_class_by_its_histogram():
    config = get_app("App1")
    objective = EnergyObjective(config.build_ansatz(), config.build_hamiltonian())
    program = small_state.layered_program(objective.ansatz.plan)
    assert sum(program.histogram.values()) > 0
    theta = objective.initial_point(seed=1)
    objective.ideal_energy(theta)
    before = METRICS.counters("kernel.")
    objective.ideal_energy(theta)
    after = METRICS.counters("kernel.")
    for kernel_class, count in program.histogram.items():
        calls = f"kernel.{kernel_class}.calls"
        moved = f"kernel.{kernel_class}.bytes"
        assert after[calls] - before.get(calls, 0) == count
        assert after[moved] - before.get(moved, 0) == program.bytes_per_row[
            kernel_class
        ]
    untouched = set(after) - {
        f"kernel.{kernel_class}.{kind}"
        for kernel_class in program.histogram
        for kind in ("calls", "bytes")
    }
    assert all(after[name] == before.get(name, 0) for name in untouched)


# ------------------------------------------------------------ same-point memo


def _app1_objective():
    config = get_app("App1")
    return EnergyObjective(config.build_ansatz(), config.build_hamiltonian())


def _app1_run(scheme: str):
    app = get_app("App1")
    objective = _app1_objective()
    vqe = build_vqe(
        scheme,
        objective,
        trace=app.build_trace(length=200, seed=7),
        noise_model=NoiseModel.from_device(app.build_device()),
        seed=11,
        spsa_seed=13,
        iterations_hint=30,
    )
    return vqe, objective


@pytest.mark.parametrize("scheme", ["baseline", "qismet", "blocking", "kalman"])
def test_memo_changes_no_result(monkeypatch, scheme):
    def run():
        vqe, objective = _app1_run(scheme)
        return vqe.run(30, theta0=objective.initial_point(seed=17)).to_dict()

    with_memo = run()
    monkeypatch.setattr(objective_module, "ENERGY_MEMO_SIZE", 0)
    assert run() == with_memo


def test_record_reads_the_memo_on_a_baseline_run(monkeypatch):
    vqe, objective = _app1_run("baseline")
    inside_record = []
    record_calls = []
    real_record = VQE._record
    real_ideal = objective.ideal_energy

    def record(self, *args):
        inside_record.append(True)
        try:
            return real_record(self, *args)
        finally:
            inside_record.pop()

    def ideal(theta):
        if inside_record:
            record_calls.append(theta)
        return real_ideal(theta)

    monkeypatch.setattr(VQE, "_record", record)
    monkeypatch.setattr(objective, "ideal_energy", ideal)
    result = vqe.run(30, theta0=objective.initial_point(seed=17))
    assert len(result.records) == 30
    assert all(r.true_energy is not None for r in result.records)
    assert record_calls == []


def test_energy_at_returns_the_simulated_float_without_resimulating():
    objective = _app1_objective()
    theta = objective.initial_point(seed=4)
    energy = objective.ideal_energy(theta)
    evaluations = objective.evaluations
    assert objective.energy_at(theta.copy()) is energy
    assert objective.energy_at(list(theta)) is energy
    assert objective.evaluations == evaluations
    # ideal_energy itself never reads the memo.
    assert objective.ideal_energy(theta) == energy
    assert objective.evaluations == evaluations + 1


def test_memo_keeps_only_the_latest_serial_points():
    objective = _app1_objective()
    size = objective_module.ENERGY_MEMO_SIZE
    assert 4 <= size <= 8
    thetas = [objective.initial_point(seed=s) for s in range(size + 1)]
    for theta in thetas:
        objective.ideal_energy(theta)
    evaluations = objective.evaluations
    for theta in thetas[1:]:
        objective.energy_at(theta)
    assert objective.evaluations == evaluations
    objective.energy_at(thetas[0])
    assert objective.evaluations == evaluations + 1
    # Batched rows never fill the memo.
    fresh = objective.initial_point(seed=99)
    objective.batch_energies(fresh[None])
    before = objective.evaluations
    objective.energy_at(fresh)
    assert objective.evaluations == before + 1


def test_wrong_shape_raises_even_when_the_memo_holds_its_bytes():
    objective = _app1_objective()
    theta = objective.initial_point(seed=6)
    objective.ideal_energy(theta)
    for wrong in (theta.reshape(6, -1), theta[None], theta[:-1]):
        with pytest.raises(ValueError):
            objective.energy_at(wrong)


# ------------------------------------------------------------ ground truth


def test_ground_truth_diagonalizes_once_per_argument_tuple(monkeypatch):
    calls = []
    real = PauliSum.ground_state_energy

    def counting(self):
        calls.append(self.num_qubits)
        return real(self)

    monkeypatch.setattr(PauliSum, "ground_state_energy", counting)
    tfim_module._exact_ground_energy.cache_clear()
    try:
        expected = real(tfim_module.tfim_hamiltonian(6))
        energies = [get_app(name).ground_truth_energy() for name in app_names()]
        energies.append(tfim_module.tfim_exact_ground_energy(6))
        energies.append(tfim_module.tfim_exact_ground_energy(6, 1, 1.0, False))
        assert energies == [expected] * len(energies)
        assert calls == [6]
        tfim_module.tfim_exact_ground_energy(5)
        tfim_module.tfim_exact_ground_energy(6, field=0.5)
        assert calls == [6, 5, 6]
    finally:
        tfim_module._exact_ground_energy.cache_clear()
