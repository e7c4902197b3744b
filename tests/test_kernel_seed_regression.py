"""Fixed-seed regression pins for the v2 gate kernels.

The golden values below were captured from the noisy counts / energy
pipeline and are asserted *exactly* for sampled counts (the RNG draw
sequence is part of the contract) and to 1e-12 for float energies,
which locks kernel and run-loop changes out of silently changing
simulation results.
"""

import numpy as np
import pytest

from repro.ansatz.efficient_su2 import EfficientSU2
from repro.ansatz.real_amplitudes import RealAmplitudes
from repro.backends.counts import CountsBackend
from repro.hamiltonians.tfim import tfim_hamiltonian
from repro.noise.noise_model import NoiseModel
from repro.vqa.objective import EnergyObjective

COUNTS_DM = {
    "0000": 259, "0001": 255, "0010": 40, "0011": 95,
    "0100": 405, "0101": 29, "0110": 63, "0111": 42,
    "1000": 237, "1001": 136, "1010": 145, "1011": 16,
    "1100": 255, "1101": 12, "1110": 28, "1111": 31,
}
COUNTS_TRAJ = {
    "0000": 267, "0001": 262, "0010": 47, "0011": 121,
    "0100": 418, "0101": 28, "0110": 81, "0111": 20,
    "1000": 222, "1001": 136, "1010": 129, "1011": 17,
    "1100": 239, "1101": 9, "1110": 21, "1111": 31,
}
ENERGY_COUNTS = -1.921875
ENERGY_IDEAL = -2.120523915728114
ENERGIES_BATCH = [-2.120523915728114, -4.777695361039817]


def _bound_circuit():
    ansatz = RealAmplitudes(4, reps=2)
    theta = np.linspace(-1.1, 1.3, ansatz.num_parameters)
    return ansatz.bind(theta)


def test_dm_counts_bit_identical():
    backend = CountsBackend(
        noise_model=NoiseModel(0.004, 0.03), seed=321, engine="dm"
    )
    assert backend.run(_bound_circuit(), shots=2048) == COUNTS_DM


def test_trajectory_counts_bit_identical():
    backend = CountsBackend(
        noise_model=NoiseModel(0.004, 0.03), seed=321,
        engine="traj", trajectories=128,
    )
    assert backend.run(_bound_circuit(), shots=2048) == COUNTS_TRAJ


def test_counts_energy_pinned():
    backend = CountsBackend(
        noise_model=NoiseModel(0.004, 0.03), seed=55, engine="dm"
    )
    energy = backend.estimate_energy(
        _bound_circuit(), tfim_hamiltonian(4), shots_per_group=4096
    )
    assert energy == ENERGY_COUNTS


def test_ideal_and_batch_energies_pinned():
    objective = EnergyObjective(EfficientSU2(6, reps=2), tfim_hamiltonian(6))
    theta = np.linspace(-0.9, 1.2, objective.num_parameters)
    assert objective.ideal_energy(theta) == pytest.approx(
        ENERGY_IDEAL, abs=1e-12
    )
    batch = objective.batch_energies(np.stack([theta, theta * 0.5]))
    np.testing.assert_allclose(batch, ENERGIES_BATCH, atol=1e-12)
