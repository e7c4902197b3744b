"""Seed regression: the noisy path is bit-identical to pre-plan main.

The expected values below were captured on the per-instruction Kraus-walk
implementation (the state of ``main`` before the vectorized
noisy-execution engine landed). The density-matrix engine must reproduce
every sampled count and every counts-derived energy EXACTLY for fixed
seeds — the RNG stream is consumed in the same order and the compiled
noise plan perturbs outcome probabilities only at the reassociation
level (``<= 1e-12``, asserted separately), far below multinomial
sampling sensitivity.

Also hosts the counts-backend validation of the paper's
global-depolarizing approximation.
"""

import numpy as np

from repro.ansatz.real_amplitudes import RealAmplitudes
from repro.backends.counts import CountsBackend
from repro.circuits.library import random_circuit
from repro.devices.coupling import line_map
from repro.hamiltonians.tfim import tfim_hamiltonian
from repro.noise.noise_model import NoiseModel
from repro.noise.readout import ReadoutError
from repro.simulator.density_matrix import DensityMatrixSimulator
from repro.simulator.statevector import simulate_statevector

NOISE = dict(single_qubit_error=0.004, two_qubit_error=0.03)

#: Captured on pre-engine main (per-instruction walk), seeds as below.
COUNTS_PLAIN = {
    "000": 1072, "001": 313, "010": 209, "011": 33,
    "100": 46, "101": 52, "110": 107, "111": 216,
}
COUNTS_PLAIN_SECOND = {
    "000": 302, "001": 66, "010": 41, "011": 10,
    "100": 9, "101": 15, "110": 30, "111": 39,
}
ENERGY_MITIGATED = -2.2409651014539915
COUNTS_DEVICE = {
    "000": 555, "001": 120, "010": 99, "011": 21,
    "100": 34, "101": 26, "110": 56, "111": 113,
}
PROBS_PLAIN = [
    0.5514092276642064, 0.1319417918753058, 0.09542346835015576,
    0.01504684541556045, 0.020487778366282575, 0.02889964456346214,
    0.05616504898977114, 0.10062619477525585,
]
COUNTS_RZFREE = {
    "000": 550, "001": 664, "010": 474, "011": 346,
    "100": 536, "101": 310, "110": 434, "111": 782,
}


def _bound_ansatz():
    ansatz = RealAmplitudes(3, reps=1)
    theta = np.linspace(-0.8, 0.9, ansatz.num_parameters)
    return ansatz.bind(theta)


def test_default_dm_counts_bit_identical_to_main():
    backend = CountsBackend(noise_model=NoiseModel(**NOISE), seed=1234)
    circuit = _bound_ansatz()
    assert backend.run(circuit, shots=2048) == COUNTS_PLAIN
    # The SECOND call continues the same RNG stream — both the stream
    # order and the cached-plan numerics must match the historic walk.
    assert backend.run(circuit, shots=512) == COUNTS_PLAIN_SECOND


def test_default_dm_mitigated_energy_bit_identical_to_main():
    backend = CountsBackend(
        noise_model=NoiseModel(**NOISE),
        readout_error=ReadoutError.uniform(3, 0.02),
        mitigate_readout=True,
        seed=77,
    )
    energy = backend.estimate_energy(
        _bound_ansatz(), tfim_hamiltonian(3), shots_per_group=4096
    )
    assert energy == ENERGY_MITIGATED


def test_default_dm_device_counts_bit_identical_to_main():
    backend = CountsBackend(
        noise_model=NoiseModel(**NOISE), seed=42, device=line_map(5)
    )
    assert backend.run(_bound_ansatz(), shots=1024) == COUNTS_DEVICE


def test_default_dm_rz_override_counts_bit_identical_to_main():
    """Fusion-rich workload (noiseless rz) still reproduces main's counts."""
    model = NoiseModel(**NOISE, gate_overrides={"rz": 0.0})
    circuit = random_circuit(3, 18, seed=5, two_qubit_fraction=0.3)
    backend = CountsBackend(noise_model=model, seed=9)
    assert backend.run(circuit, shots=4096) == COUNTS_RZFREE


def test_dm_probabilities_match_main_to_reassociation():
    """Raw distributions agree to <= 1e-12 (fusion reassociates floats)."""
    backend = CountsBackend(noise_model=NoiseModel(**NOISE))
    probs = backend.probabilities(_bound_ansatz())
    np.testing.assert_allclose(probs, PROBS_PLAIN, atol=1e-12, rtol=0.0)


def test_dm_engine_matches_legacy_walk_exactly():
    """Plan-based dm execution vs the preserved per-instruction walk."""
    circuit = random_circuit(3, 16, seed=31)
    model = NoiseModel(**NOISE)
    dm = DensityMatrixSimulator(3)
    walk = dm.run_circuit_walk(circuit, model)
    planned = dm.run_circuit(circuit, noise_model=model)
    np.testing.assert_allclose(planned, walk, atol=1e-12, rtol=0.0)


def test_counts_backend_validates_global_depolarizing_approximation():
    """The paper's lambda model vs the full shot-level pipeline."""
    circuit = random_circuit(3, 12, seed=21, two_qubit_fraction=0.3)
    ham = tfim_hamiltonian(3)
    model = NoiseModel(0.002, 0.02)
    backend = CountsBackend(noise_model=model, seed=11)
    noisy_energy = backend.estimate_energy(
        circuit, ham, shots_per_group=400_000
    )
    ideal_energy = ham.expectation(simulate_statevector(circuit))
    approx = model.survival_factor(circuit) * ideal_energy
    scale = max(1.0, abs(ideal_energy))
    assert abs(noisy_energy - approx) / scale < 0.1
