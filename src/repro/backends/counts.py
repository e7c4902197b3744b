"""The shot-level counts backend.

Runs real circuits through the vectorized noisy-execution engine: a
(circuit, noise model) pair lowers once into a channel-aware
:class:`~repro.compiler.NoisePlan` (static-gate fusion between channel
sites, adjacent unitaries absorbed into pre-stacked Kraus arrays, one
pre-compiled superoperator per channel site) and executes as exact
density-matrix evolution, bit-compatible with the historic
per-instruction Kraus walk for fixed seeds.

Everything the backend compiles is content-hash cached per instance:
device lowerings (through the compiler's single
:func:`~repro.compiler.transpile_then_compile` entry point), noise
plans, and the per-group measurement-basis rotation circuits of
:meth:`CountsBackend.estimate_energy` — repeated ``probabilities`` /
``counts`` calls on the same circuit never re-lower, re-transpile, or
rebuild a gate matrix. Device-aware outcome distributions are read back
through the transpiler's final qubit permutation into logical order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import (
    DeviceCompilation,
    NoisePlan,
    PlanCache,
    circuit_fingerprint,
    compile_noise_plan,
    compile_plan,
    noise_fingerprint,
    transpile_then_compile,
)
from repro.compiler.cache import coupling_fingerprint
from repro.noise.noise_model import NoiseModel
from repro.noise.readout import ReadoutError, ReadoutMitigator
from repro.operators.grouping import group_commuting_terms, measurement_bases
from repro.operators.measurement_basis import basis_rotation_circuit, diagonal_value
from repro.operators.pauli_sum import PauliSum
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.sampling import counts_from_probabilities
from repro.utils.rng import SeedLike, ensure_rng

#: Per-instance cap on the content-hash artifact caches.
_INSTANCE_CACHE_CAPACITY = 256


def noisy_engine_default() -> str:
    """The noisy-execution route: always exact density-matrix (``dm``).

    Kept so run manifests can record the resolved setting.
    """
    return "dm"


def _instance_cache(name: str) -> PlanCache:
    """A per-backend content-keyed LRU for compiled artifacts.

    The shared plan cache already dedupes process-wide, but an
    optimization loop rebinding per step floods it with one-shot entries
    (see the note on :func:`~repro.compiler.api.transpile_then_compile`);
    holding this backend's own lowerings in a private fixed-capacity
    :class:`~repro.compiler.PlanCache` keeps its hot circuits immune to
    that churn (and stays thread-safe for runs sharing a backend).
    """
    return PlanCache(capacity=_INSTANCE_CACHE_CAPACITY, name=name)


class CountsBackend:
    """Circuit execution returning measurement counts.

    With ``device`` set, circuits are lowered through
    :func:`repro.compiler.transpile_then_compile` (layout -> routing ->
    native basis) before simulation, and all counts / probabilities are
    reported in *logical* qubit order regardless of routing permutations.

    Sampling consumes the backend RNG exactly like the historic
    per-instruction path, so fixed-seed results stay bit-identical.
    """

    def __init__(
        self,
        noise_model: Optional[NoiseModel] = None,
        readout_error: Optional[ReadoutError] = None,
        mitigate_readout: bool = False,
        seed: SeedLike = None,
        device=None,
        layout_method: str = "chain",
    ):
        self.noise_model = noise_model
        self.readout_error = readout_error
        self.mitigator = (
            ReadoutMitigator(readout_error)
            if (mitigate_readout and readout_error is not None)
            else None
        )
        self.rng = ensure_rng(seed)
        self.device = device
        self.layout_method = layout_method
        # Named so each LRU reports its own cache.counts.* metric family.
        self._lowerings = _instance_cache("counts.lowerings")
        self._noise_plans = _instance_cache("counts.noise_plans")
        self._group_plans = _instance_cache("counts.group_plans")
        self._measured_circuits = _instance_cache("counts.measured")

    # -- cache plumbing --------------------------------------------------------

    def _circuit_key(self, circuit: QuantumCircuit) -> str:
        """Content hash identifying a bound circuit on this backend."""
        extra: Tuple[object, ...] = ()
        if self.device is not None:
            coupling = getattr(self.device, "coupling_map", self.device)
            extra = (coupling_fingerprint(coupling), self.layout_method)
        return circuit_fingerprint(circuit, extra=extra)

    def _lower(self, circuit: QuantumCircuit, key: str) -> DeviceCompilation:
        """Device lowering, content-cached on this backend instance."""
        return self._lowerings.get_or_build(
            key,
            lambda: transpile_then_compile(
                circuit, self.device, layout_method=self.layout_method
            ),
        )

    def _noise_plan(self, circuit: QuantumCircuit, key: str) -> NoisePlan:
        """Channel-aware noise plan, content-cached on this instance.

        The cache key folds in the noise model's content fingerprint, so
        swapping ``self.noise_model`` between calls never serves a plan
        compiled for the old model; a model without a fingerprint is
        lowered fresh on every call (matching
        :func:`~repro.compiler.compile_noise_plan`).
        """
        model_fingerprint = noise_fingerprint(self.noise_model)
        if model_fingerprint is None:
            return compile_noise_plan(circuit, self.noise_model)
        return self._noise_plans.get_or_build(
            f"{key}|{model_fingerprint}",
            lambda: compile_noise_plan(circuit, self.noise_model),
        )

    @staticmethod
    def _logical_probabilities(
        probs: np.ndarray, compiled: DeviceCompilation, num_logical: int
    ) -> np.ndarray:
        """Marginalize an executed distribution back into logical order.

        Each logical qubit ``v`` ends the (trimmed, routed) circuit at
        ``compiled.logical_positions[v]``; every other live qubit is
        traced out.
        """
        num_physical = int(np.log2(probs.size))
        positions = list(compiled.logical_positions[:num_logical])
        tensor = np.moveaxis(
            probs.reshape((2,) * num_physical), positions, range(num_logical)
        )
        return tensor.reshape(2**num_logical, -1).sum(axis=-1)

    # -- execution -------------------------------------------------------------

    def _execution_target(
        self, circuit: QuantumCircuit
    ) -> Tuple[QuantumCircuit, Optional[DeviceCompilation], str]:
        """Resolve (executable circuit, device compilation, content key)."""
        key = self._circuit_key(circuit)
        if self.device is None:
            return circuit, None, key
        compiled = self._lower(circuit, key)
        return compiled.circuit, compiled, key

    def _dm_probabilities(
        self,
        target: QuantumCircuit,
        compiled: Optional[DeviceCompilation],
        key: str,
    ) -> np.ndarray:
        simulator = DensityMatrixSimulator(target.num_qubits)
        if self.noise_model is None:
            if compiled is not None:
                # Noise-free: execute the plan that was already built —
                # no second lowering through the plain compile cache.
                rho = simulator.run_plan(compiled.plan)
            else:
                rho = simulator.run_plan(compile_plan(target))
        else:
            rho = simulator.run_noise_plan(self._noise_plan(target, key))
        return simulator.probabilities(rho)

    def probabilities(self, circuit: QuantumCircuit) -> np.ndarray:
        """Noisy outcome distribution of a bound circuit (logical order).

        The exact density-matrix diagonal, with readout error applied.
        """
        target, compiled, key = self._execution_target(circuit)
        probs = self._dm_probabilities(target, compiled, key)
        if compiled is not None:
            probs = self._logical_probabilities(
                probs, compiled, circuit.num_qubits
            )
        if self.readout_error is not None:
            probs = self.readout_error.apply_to_probabilities(probs)
        return probs

    def run(self, circuit: QuantumCircuit, shots: int) -> Dict[str, int]:
        """Sample counts from a bound circuit."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        probs = self.probabilities(circuit)
        return counts_from_probabilities(probs, shots, self.rng)

    # -- energy estimation -----------------------------------------------------

    def _measurement_groups(self, hamiltonian: PauliSum) -> List[tuple]:
        """QWC measurement plan for a Hamiltonian, cached by content.

        Each entry is ``(identity_coefficient, non_identity_terms,
        rotation_circuit)``; the basis-rotation circuits are shared
        across every ``estimate_energy`` call on this backend.
        """
        key = "|".join(
            f"{term.pauli.label}:{term.coefficient!r}"
            for term in hamiltonian.terms
        )

        def build() -> List[tuple]:
            plan = []
            for group in group_commuting_terms(hamiltonian):
                identity = sum(
                    term.coefficient for term in group if term.pauli.is_identity
                )
                non_identity = tuple(
                    term for term in group if not term.pauli.is_identity
                )
                rotation = (
                    basis_rotation_circuit(measurement_bases(non_identity))
                    if non_identity
                    else None
                )
                plan.append((identity, non_identity, rotation))
            return plan

        return self._group_plans.get_or_build(key, build)

    def _measured_circuit(
        self, circuit: QuantumCircuit, key: str, rotation: QuantumCircuit
    ) -> QuantumCircuit:
        """The circuit with a group's basis rotation appended, cached."""
        def build() -> QuantumCircuit:
            measured = circuit.copy()
            measured.compose(rotation)
            return measured

        return self._measured_circuits.get_or_build(
            f"{key}|{rotation.name}", build
        )

    def estimate_energy(
        self,
        circuit: QuantumCircuit,
        hamiltonian: PauliSum,
        shots_per_group: int = 4096,
    ) -> float:
        """Measurement-based energy estimate with QWC grouping.

        Each group gets its own basis-rotated execution. With a mitigator
        configured, counts are corrected before term evaluation (the
        paper's baseline always runs measurement error mitigation).
        """
        if circuit.num_qubits != hamiltonian.num_qubits:
            raise ValueError("circuit/Hamiltonian qubit mismatch")
        source_key = self._circuit_key(circuit)
        energy = 0.0
        for identity, non_identity, rotation in self._measurement_groups(
            hamiltonian
        ):
            energy += identity
            if not non_identity:
                continue
            measured = self._measured_circuit(circuit, source_key, rotation)
            counts = self.run(measured, shots_per_group)
            if self.mitigator is not None:
                quasi = self.mitigator.mitigate_counts(counts)
                for term in non_identity:
                    value = sum(
                        diagonal_value(term.pauli, bits) * p
                        for bits, p in quasi.items()
                    )
                    energy += term.coefficient * value
            else:
                total = sum(counts.values())
                for term in non_identity:
                    accum = sum(
                        diagonal_value(term.pauli, bits) * count
                        for bits, count in counts.items()
                    )
                    energy += term.coefficient * accum / total
        return energy
