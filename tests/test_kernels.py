"""v2 gate kernels: classification, parity vs. the tensordot reference,
fusion structures, plan-level run-loop parity, chunk/thread
bit-identity and metrics accounting."""

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.circuits.circuit import QuantumCircuit
from repro.circuits.gates import gate_matrix
from repro.compiler import compile_plan
from repro.compiler.ir import (
    KERNEL_1Q_PAIR,
    KERNEL_2Q_QUAD,
    KERNEL_DENSE,
    KERNEL_DIAGONAL,
    kernel_class_of_gate,
    kernel_class_of_matrix,
)
from repro.obs.metrics import METRICS
from repro.simulator import kernels
from repro.simulator.kernels import pair
from repro.simulator.batched import BatchedStatevectorSimulator
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.kernels.reference import (
    apply_gate_tensordot,
    apply_gates_elementwise_reference,
)
from repro.simulator.statevector import StatevectorSimulator


#: The dispatcher's small-state floor as shipped; the autouse fixture
#: below lowers it, the ``production_floor`` fixture restores it.
PRODUCTION_FLOOR = kernels.PAIR_MIN_STATE_SIZE


@pytest.fixture(autouse=True)
def _exercise_pair_kernels(monkeypatch):
    """Drop the small-state floor so tiny test states hit the real kernels.

    Production dispatch routes states below ``PAIR_MIN_STATE_SIZE``
    elements to the tensordot reference (dispatch overhead dominates
    there); the parity tests exist to exercise the pair kernels
    themselves, so they disable the floor.
    """
    monkeypatch.setattr(kernels, "PAIR_MIN_STATE_SIZE", 0)


@pytest.fixture
def production_floor(monkeypatch):
    """Keep the shipped floor, so plan runs exercise both of its sides."""
    monkeypatch.setattr(kernels, "PAIR_MIN_STATE_SIZE", PRODUCTION_FLOOR)


def _random_state(n, rng, batch=None):
    shape = ((batch,) if batch else ()) + (2,) * n
    state = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.ascontiguousarray(state / np.linalg.norm(state))


def _random_unitary(dim, rng):
    q, r = np.linalg.qr(
        rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    )
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


# ---------------------------------------------------------------- classes


def test_kernel_class_of_matrix_structural():
    assert kernel_class_of_matrix(gate_matrix("rz", [0.3])) == KERNEL_DIAGONAL
    assert kernel_class_of_matrix(gate_matrix("cz")) == KERNEL_DIAGONAL
    assert kernel_class_of_matrix(gate_matrix("h")) == KERNEL_1Q_PAIR
    assert kernel_class_of_matrix(gate_matrix("cx")) == KERNEL_2Q_QUAD
    assert kernel_class_of_matrix(_TOFFOLI) == KERNEL_DENSE


def test_kernel_class_of_gate_lowering():
    assert kernel_class_of_gate("rz", 1) == KERNEL_DIAGONAL
    assert kernel_class_of_gate("ry", 1) == KERNEL_1Q_PAIR
    assert kernel_class_of_gate("rxx", 2) == KERNEL_2Q_QUAD
    assert kernel_class_of_gate("ccx", 3) == KERNEL_DENSE


def test_plan_ops_carry_kernel_class():
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.rz(0.4, 1)
    circuit.cx(0, 1)
    plan = compile_plan(circuit, fusion=False, cache=False)
    classes = [op.kernel_class for op in plan.ops]
    assert classes == [KERNEL_1Q_PAIR, KERNEL_DIAGONAL, KERNEL_2Q_QUAD]


# ----------------------------------------------------- shared-gate parity


_TOFFOLI = np.eye(8, dtype=complex)
_TOFFOLI[[6, 7], [6, 7]] = 0.0
_TOFFOLI[6, 7] = _TOFFOLI[7, 6] = 1.0

_SHARED_CASES = [
    ("h", (0,)), ("rz", (1,)), ("x", (2,)),
    ("cx", (0, 1)), ("cx", (2, 0)), ("cz", (1, 2)),
    ("rxx", (0, 2)), ("swap", (2, 1)), ("ccx", (0, 1, 2)),
    ("ccx", (2, 0, 1)),
]


@pytest.mark.parametrize("n", [3, 5, 8])
@pytest.mark.parametrize("name,qubits", _SHARED_CASES)
def test_apply_gate_matches_reference(n, name, qubits):
    seed = n * 1009 + len(name) * 101 + sum(qubits)
    rng = np.random.default_rng(seed)
    params = [0.7] if name in ("rz", "rxx") else []
    matrix = _TOFFOLI if name == "ccx" else gate_matrix(name, params)
    state = _random_state(n, rng)
    expected = apply_gate_tensordot(state, matrix, qubits)
    got = kernels.apply_gate(state, matrix, qubits)
    np.testing.assert_allclose(got, expected, atol=1e-12)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_apply_gate_dense_random_unitary(k):
    rng = np.random.default_rng(11 + k)
    n = 6
    matrix = _random_unitary(1 << k, rng)
    for qubits in [tuple(range(k)), tuple(range(k))[::-1],
                   tuple(range(n - k, n))]:
        state = _random_state(n, rng)
        expected = apply_gate_tensordot(state, matrix, qubits)
        got = kernels.apply_gate(state, matrix, qubits)
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_apply_gate_batch_axis_parity():
    rng = np.random.default_rng(5)
    states = _random_state(4, rng, batch=3)
    matrix = gate_matrix("cx")
    expected = apply_gate_tensordot(states, matrix, (1, 3), batch_axes=1)
    got = kernels.apply_gate(states, matrix, (1, 3), batch_axes=1)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_apply_gate_does_not_mutate_input_by_default():
    rng = np.random.default_rng(9)
    state = _random_state(4, rng)
    before = state.copy()
    for name, qubits in [("rz", (1,)), ("h", (0,)), ("cx", (0, 1))]:
        kernels.apply_gate(
            state, gate_matrix(name, [0.3] if name == "rz" else []), qubits
        )
        np.testing.assert_array_equal(state, before)


def test_small_states_route_to_reference(monkeypatch):
    monkeypatch.setattr(kernels, "PAIR_MIN_STATE_SIZE", 1 << 12)
    rng = np.random.default_rng(7)
    state = _random_state(4, rng)  # 16 elements, far below the floor
    matrix = gate_matrix("h")
    got = kernels.apply_gate(state, matrix, (1,))
    np.testing.assert_array_equal(
        got, apply_gate_tensordot(state, matrix, (1,))
    )


# ----------------------------------------------- elementwise-stack parity


@pytest.mark.parametrize("n", [3, 6, 14])
@pytest.mark.parametrize("batch", [2, 5])
@pytest.mark.parametrize("kind", ["1q", "2q", "3q", "diag"])
def test_apply_gates_elementwise_matches_reference(n, batch, kind):
    rng = np.random.default_rng(n * 100 + batch * 10 + len(kind))
    if kind == "diag":
        qubits = (0, 1)
        phases = np.exp(1j * rng.uniform(0, np.pi, (batch, 4)))
        matrices = np.zeros((batch, 4, 4), dtype=complex)
        matrices[:, np.arange(4), np.arange(4)] = phases
    else:
        k = {"1q": 1, "2q": 2, "3q": 3}[kind]
        qubits = tuple(range(min(k, n)))[:k]
        if k > n:
            pytest.skip("operator wider than register")
        matrices = np.stack(
            [_random_unitary(1 << k, rng) for _ in range(batch)]
        )
    states = _random_state(n, rng, batch=batch)
    expected = apply_gates_elementwise_reference(states, matrices, qubits)
    got = kernels.apply_gates_elementwise(states, matrices, qubits)
    np.testing.assert_allclose(got, expected, atol=1e-12)


def test_apply_gates_elementwise_reversed_qubits():
    rng = np.random.default_rng(17)
    states = _random_state(14, rng, batch=2)
    matrices = np.stack([_random_unitary(4, rng) for _ in range(2)])
    expected = apply_gates_elementwise_reference(states, matrices, (5, 2))
    got = kernels.apply_gates_elementwise(states, matrices, (5, 2))
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ------------------------------------------------------ fusion structures


def test_absorb_pending_2q_folds_rotation_layer():
    rng = np.random.default_rng(23)
    pending = kernels.PendingOneQubitGates(3)
    ry0 = gate_matrix("ry", [0.4])
    rz1 = gate_matrix("rz", [0.9])
    pending.push(0, ry0, KERNEL_1Q_PAIR)
    pending.push(1, rz1, KERNEL_DIAGONAL)
    cx = gate_matrix("cx")
    merged, merged_class = kernels.absorb_pending_2q(
        pending, cx, (0, 1), KERNEL_2Q_QUAD
    )
    assert merged_class == KERNEL_2Q_QUAD
    np.testing.assert_allclose(merged, cx @ np.kron(ry0, rz1), atol=1e-12)
    assert not pending.active
    # nothing pending -> the exact input object comes back (permutation
    # fast path for bare cx depends on it)
    same, same_class = kernels.absorb_pending_2q(
        pending, cx, (0, 1), KERNEL_2Q_QUAD
    )
    assert same is cx and same_class == KERNEL_2Q_QUAD
    _ = rng


def test_fusion_window_merges_overlapping_quads():
    applied = []
    window = kernels.FusionWindow(
        lambda m, q, c: applied.append((m, q, c))
    )
    rng = np.random.default_rng(29)
    a = _random_unitary(4, rng)
    b = _random_unitary(4, rng)
    window.push(a, (0, 1), KERNEL_2Q_QUAD)
    window.push(b, (1, 2), KERNEL_2Q_QUAD)
    window.flush()
    assert len(applied) == 1
    matrix, qubits, kernel_class = applied[0]
    assert qubits == (0, 1, 2)
    assert kernel_class == KERNEL_DENSE
    expected = np.kron(np.eye(2), b) @ np.kron(a, np.eye(2))
    np.testing.assert_allclose(matrix, expected, atol=1e-12)


def test_fusion_window_caps_span_and_skips_non_ascending():
    applied = []
    window = kernels.FusionWindow(
        lambda m, q, c: applied.append(q)
    )
    rng = np.random.default_rng(31)
    a = _random_unitary(4, rng)
    # span 0..3 would exceed MAX_FUSED_SPAN: the held block flushes
    window.push(a, (0, 1), KERNEL_2Q_QUAD)
    window.push(a, (2, 3), KERNEL_2Q_QUAD)  # disjoint: flush + hold
    assert applied == [(0, 1)]
    # non-ascending qubits bypass the window entirely
    window.push(a, (3, 2), KERNEL_2Q_QUAD)
    assert applied == [(0, 1), (2, 3), (3, 2)]
    window.flush()
    assert applied == [(0, 1), (2, 3), (3, 2)]


def test_flush_pending_paired_merges_adjacent_qubits():
    applied = []
    pending = kernels.PendingOneQubitGates(4)
    h = gate_matrix("h")
    rz = gate_matrix("rz", [0.2])
    pending.push(0, h, KERNEL_1Q_PAIR)
    pending.push(1, rz, KERNEL_DIAGONAL)
    pending.push(3, h, KERNEL_1Q_PAIR)
    kernels.flush_pending_paired(
        pending, lambda m, q, c: applied.append((m, q, c))
    )
    assert [entry[1] for entry in applied] == [(0, 1), (3,)]
    np.testing.assert_allclose(applied[0][0], np.kron(h, rz), atol=1e-12)
    assert applied[0][2] == KERNEL_2Q_QUAD


def test_kron_1q_per_element_stack():
    rng = np.random.default_rng(37)
    stack = np.stack([_random_unitary(2, rng) for _ in range(3)])
    shared = _random_unitary(2, rng)
    got = kernels.kron_1q(stack, shared)
    expected = np.stack([np.kron(stack[b], shared) for b in range(3)])
    np.testing.assert_allclose(got, expected, atol=1e-12)


# ------------------------------------------------ plan-level parity
#
# The run loops against an op-by-op walk of ``plan.op_matrices(theta)``
# through the tensordot reference, with the shipped small-state floor:
# each size pair straddles PAIR_MIN_STATE_SIZE (a density matrix on n
# qubits has 4**n elements).


def _plan_and_theta(num_qubits=6, reps=2):
    ansatz = EfficientSU2(num_qubits, reps=reps)
    theta = np.linspace(-0.8, 1.1, ansatz.num_parameters)
    return ansatz.plan, theta


def _reference_state(plan, theta):
    state = StatevectorSimulator(plan.num_qubits).zero_state()
    for qubits, matrix in plan.op_matrices(theta):
        state = apply_gate_tensordot(state, matrix, qubits)
    return state


def test_serial_plan_pair_matches_tensordot(production_floor):
    assert 2**6 < PRODUCTION_FLOOR <= 2**13
    for num_qubits in (6, 13):
        plan, theta = _plan_and_theta(num_qubits)
        got = StatevectorSimulator(num_qubits).run_plan(plan, theta)
        np.testing.assert_allclose(
            got, _reference_state(plan, theta), atol=1e-12
        )


def test_batched_plan_pair_matches_tensordot(production_floor):
    for num_qubits in (6, 13):
        plan, theta = _plan_and_theta(num_qubits)
        thetas = np.stack([theta, theta * 0.5, -theta])
        got = BatchedStatevectorSimulator(num_qubits).run_flat(plan, thetas)
        expected = np.stack(
            [_reference_state(plan, row).reshape(-1) for row in thetas]
        )
        np.testing.assert_allclose(got, expected, atol=1e-12)


def test_density_matrix_plan_matches_tensordot(production_floor):
    assert 4**5 < PRODUCTION_FLOOR <= 4**6
    for num_qubits in (5, 6):
        plan, theta = _plan_and_theta(num_qubits)
        sim = DensityMatrixSimulator(num_qubits)
        rho = sim.zero_state()
        for qubits, matrix in plan.op_matrices(theta):
            rho = apply_gate_tensordot(rho, matrix, qubits)
            bra = tuple(num_qubits + q for q in qubits)
            rho = apply_gate_tensordot(rho, matrix.conj(), bra)
        np.testing.assert_allclose(sim.run_plan(plan, theta), rho, atol=1e-12)


@pytest.mark.parametrize(
    "qubits, batch",
    [
        ((0,), None),  # highest-order target of a serial state: column tiles
        ((0,), 2),  # the batch folds into the rows: row tiles
        ((3,), None),  # large stride: row tiles
        ((4, 5), None),  # contiguous quad, large stride: row tiles
        ((12,), None),  # small stride: wide-kron tiles
        ((11, 12), None),  # contiguous quad, small stride: wide-kron tiles
    ],
    ids=["cols", "batch-rows", "rows", "quad-rows", "wide", "quad-wide"],
)
def test_chunked_tiles_are_bit_identical_to_one_tile(monkeypatch, qubits, batch):
    n = 13
    rng = np.random.default_rng(2048)
    flat = _random_state(n, rng, batch).reshape(-1)
    matrix = _random_unitary(1 << len(qubits), rng)
    tiles = []
    for_each_tile = pair._for_each_tile

    def spy(total, per_tile, body):
        tiles.append(-(-total // per_tile))
        for_each_tile(total, per_tile, body)

    monkeypatch.setattr(pair, "_for_each_tile", spy)
    one_tile = np.empty_like(flat)
    pair.apply_dense_shared(flat, one_tile, matrix, qubits, n, chunk=flat.size)
    chunked = np.empty_like(flat)
    pair.apply_dense_shared(flat, chunked, matrix, qubits, n, chunk=2048)
    assert tiles[0] == 1 and tiles[1] > 1
    np.testing.assert_array_equal(chunked, one_tile)
    # The per-element kernel has no tiles of its own (one broadcast or
    # kron-merged GEMM per batch); it agrees with the tiled shared kernel.
    states = flat.reshape(batch or 1, -1)
    elementwise = np.empty_like(states)
    pair.apply_dense_elementwise(
        states, elementwise, np.stack([matrix] * len(states)), qubits, n
    )
    assert len(tiles) == 2
    np.testing.assert_allclose(elementwise.reshape(-1), chunked, atol=1e-12)


# --------------------------------------------------------------- metrics


def test_kernel_metrics_counters_increment():
    rng = np.random.default_rng(41)
    state = _random_state(5, rng)

    def snapshot(name):
        return METRICS.snapshot()["counters"].get(name, 0)

    calls_before = snapshot("kernel.1q-pair.calls")
    bytes_before = snapshot("kernel.1q-pair.bytes")
    kernels.apply_gate(state, gate_matrix("h"), (1,))
    assert snapshot("kernel.1q-pair.calls") == calls_before + 1
    assert snapshot("kernel.1q-pair.bytes") > bytes_before
