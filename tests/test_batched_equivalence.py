"""The batched/serial equivalence contract.

Property-style coverage: for random circuits over 2-8 qubits and both
expectation paths (dense-matrix cache and the matrix-free bitmask
engine), ``batch_energies(thetas)[i]`` must equal
``ideal_energy(thetas[i])`` to within documented fp-reassociation
tolerance (1e-12 absolute), and batched backend evaluation must consume
seed-derived noise streams exactly like the serial path.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.vqa.objective as objective_module
from repro.ansatz.efficient_su2 import EfficientSU2
from repro.ansatz.real_amplitudes import RealAmplitudes
from repro.backends.base import EnergyBackend
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter
from repro.compiler import compile_plan
from repro.core.executor import PlainEvaluator
from repro.experiments.registry import get_app
from repro.experiments.schemes import build_vqe
from repro.hamiltonians.tfim import tfim_hamiltonian
from repro.noise.noise_model import NoiseModel
from repro.operators.pauli_sum import PauliSum
from repro.optimizers.base import evaluate_many
from repro.simulator.batched import BatchedStatevectorSimulator
from repro.simulator.statevector import StatevectorSimulator
from repro.vqa.objective import EnergyObjective

TOLERANCE = 1e-12

_FIXED_GATES = ["h", "x", "s", "sx", "t"]
_PARAM_GATES_1Q = ["rx", "ry", "rz", "p"]
_PARAM_GATES_2Q = ["rzz", "rxx", "crx", "crz"]
_FIXED_GATES_2Q = ["cx", "cz", "swap"]


def random_parameterized_circuit(
    rng: np.random.Generator, num_qubits: int, depth: int = 12
) -> QuantumCircuit:
    """A random circuit mixing fixed and parameterized 1q/2q gates."""
    circuit = QuantumCircuit(num_qubits, name="random")
    parameters = []
    for _ in range(depth):
        kind = rng.integers(0, 4)
        if kind == 0:
            gate = _FIXED_GATES[rng.integers(0, len(_FIXED_GATES))]
            circuit.append(gate, (int(rng.integers(0, num_qubits)),))
        elif kind == 1 and num_qubits >= 2:
            gate = _FIXED_GATES_2Q[rng.integers(0, len(_FIXED_GATES_2Q))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circuit.append(gate, (int(a), int(b)))
        elif kind == 2 and num_qubits >= 2:
            gate = _PARAM_GATES_2Q[rng.integers(0, len(_PARAM_GATES_2Q))]
            a, b = rng.choice(num_qubits, size=2, replace=False)
            param = Parameter(f"t{len(parameters)}")
            parameters.append(param)
            circuit.append(gate, (int(a), int(b)), (param,))
        else:
            gate = _PARAM_GATES_1Q[rng.integers(0, len(_PARAM_GATES_1Q))]
            param = Parameter(f"t{len(parameters)}")
            parameters.append(param)
            circuit.append(gate, (int(rng.integers(0, num_qubits)),), (param,))
    return circuit


@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6, 7, 8])
def test_batched_simulator_matches_serial_on_random_circuits(num_qubits):
    rng = np.random.default_rng(100 + num_qubits)
    for trial in range(3):
        circuit = random_parameterized_circuit(rng, num_qubits)
        plan = compile_plan(circuit, cache=False)
        thetas = rng.uniform(-np.pi, np.pi, (5, plan.num_parameters))
        serial = StatevectorSimulator(num_qubits)
        batched = BatchedStatevectorSimulator(num_qubits)
        batch_states = batched.run_flat(plan, thetas)
        for i, theta in enumerate(thetas):
            expected = serial.run_plan(plan, theta).reshape(-1)
            np.testing.assert_allclose(
                batch_states[i], expected, atol=TOLERANCE, rtol=0.0
            )


def _random_hamiltonian(rng: np.random.Generator, num_qubits: int) -> PauliSum:
    terms = []
    for _ in range(6):
        label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
        terms.append((float(rng.normal()), label))
    return PauliSum(terms)


@pytest.mark.parametrize("num_qubits", [2, 3, 4, 5, 6, 7, 8])
@pytest.mark.parametrize("dense_path", [True, False])
def test_batch_energies_match_serial_both_paths(
    monkeypatch, num_qubits, dense_path
):
    # Force the dense-cache path or the matrix-free path irrespective of
    # the qubit-count threshold, so both expectation engines are covered
    # at every size.
    monkeypatch.setattr(
        objective_module,
        "_DENSE_LIMIT_QUBITS",
        16 if dense_path else 0,
    )
    rng = np.random.default_rng(31 * num_qubits + int(dense_path))
    hamiltonian = _random_hamiltonian(rng, num_qubits)
    ansatz_cls = EfficientSU2 if num_qubits % 2 == 0 else RealAmplitudes
    objective = EnergyObjective(ansatz_cls(num_qubits, reps=2), hamiltonian)
    assert objective.uses_dense_hamiltonian is dense_path

    thetas = rng.uniform(-np.pi, np.pi, (6, objective.num_parameters))
    batch = objective.batch_energies(thetas)
    serial = np.array([objective.ideal_energy(theta) for theta in thetas])
    np.testing.assert_allclose(batch, serial, atol=TOLERANCE, rtol=0.0)


def test_batch_energies_validates_shape():
    objective = EnergyObjective(EfficientSU2(3, reps=1), tfim_hamiltonian(3))
    with pytest.raises(ValueError):
        objective.batch_energies(np.zeros(objective.num_parameters))
    with pytest.raises(ValueError):
        objective.batch_energies(np.zeros((2, objective.num_parameters + 1)))


def test_batch_energies_counts_evaluations():
    objective = EnergyObjective(EfficientSU2(3, reps=1), tfim_hamiltonian(3))
    objective.batch_energies(np.zeros((5, objective.num_parameters)))
    assert objective.evaluations == 5


def test_dense_hamiltonian_is_lazy():
    objective = EnergyObjective(EfficientSU2(4, reps=1), tfim_hamiltonian(4))
    assert objective._dense is None  # construction is O(terms)
    objective.ideal_energy(np.zeros(objective.num_parameters))
    assert objective._dense is not None


def test_large_system_never_densifies(monkeypatch):
    monkeypatch.setattr(objective_module, "_DENSE_LIMIT_QUBITS", 3)
    objective = EnergyObjective(EfficientSU2(4, reps=1), tfim_hamiltonian(4))
    assert not objective.uses_dense_hamiltonian
    objective.ideal_energy(np.zeros(objective.num_parameters))
    objective.batch_energies(np.zeros((3, objective.num_parameters)))
    assert objective._dense is None


@pytest.mark.parametrize(
    "scheme",
    ["baseline", "kalman", "resampling", "2nd-order", "static-only", "noise-free"],
)
def test_spsa_batched_run_is_bit_identical_to_serial(monkeypatch, scheme):
    """The regression oracle: block evaluation must not change *any* result.

    Without ``PlainEvaluator.energies``, :func:`evaluate_many` evaluates
    one job per row through ``energy``; that serial run must reproduce the
    block run bit for bit, seed-derived noise draws and the Kalman
    filter's fold order included.
    """
    app = get_app("App1")
    blocks = []
    evaluate_jobs = EnergyBackend.evaluate_jobs

    def counted(backend, thetas):
        blocks.append(len(thetas))
        return evaluate_jobs(backend, thetas)

    monkeypatch.setattr(EnergyBackend, "evaluate_jobs", counted)

    def run_once():
        hamiltonian = app.build_hamiltonian()
        noise_model = NoiseModel.from_device(app.build_device())
        trace = app.build_trace(length=200, seed=7)
        objective = EnergyObjective(app.build_ansatz(), hamiltonian)
        vqe = build_vqe(
            scheme,
            objective,
            trace=trace,
            noise_model=noise_model,
            seed=11,
            spsa_seed=13,
            iterations_hint=25,
        )
        return vqe.run(25, theta0=objective.initial_point(seed=17))

    batched = run_once()
    assert blocks, "the block path never ran"
    monkeypatch.delattr(PlainEvaluator, "energies")
    blocks.clear()
    serial = run_once()
    assert not blocks

    assert batched.total_jobs == serial.total_jobs
    assert batched.total_circuits == serial.total_circuits
    np.testing.assert_array_equal(
        batched.machine_energies, serial.machine_energies
    )
    np.testing.assert_array_equal(batched.true_energies, serial.true_energies)
    np.testing.assert_array_equal(batched.final_theta, serial.final_theta)


def test_evaluate_many_serial_fallback():
    calls = []

    def evaluate(theta):
        calls.append(np.array(theta))
        return float(np.sum(theta))

    out = evaluate_many(evaluate, np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(out, [3.0, 7.0])
    assert len(calls) == 2


def test_evaluate_many_uses_batch_contract():
    class Batchy:
        def __call__(self, theta):  # pragma: no cover - must not be used
            raise AssertionError("batched path should win")

        def energies(self, thetas):
            return np.sum(thetas, axis=1)

    out = evaluate_many(Batchy(), np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_allclose(out, [3.0, 7.0])
