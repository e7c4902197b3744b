import numpy as np
import pytest

from repro.circuits.library import bell_pair, random_circuit
from repro.noise.noise_model import GateError, NoiseModel
from repro.noise.readout import ReadoutError, ReadoutMitigator
from repro.simulator.density_matrix import DensityMatrixSimulator


def test_survival_factor_counts_gates():
    nm = NoiseModel(single_qubit_error=0.01, two_qubit_error=0.1)
    circuit = bell_pair()  # 1 single + 1 two-qubit gate
    assert nm.survival_factor(circuit) == pytest.approx(0.99 * 0.9)
    assert nm.survival_factor_from_counts(1, 1) == pytest.approx(0.99 * 0.9)


def test_gate_overrides():
    nm = NoiseModel(0.01, 0.1, gate_overrides={"h": 0.0})
    assert nm.error_probability("h", 1) == 0.0
    assert nm.error_probability("x", 1) == 0.01
    assert nm.error_probability("cx", 2) == 0.1


def test_ideal_model_has_no_channels():
    nm = NoiseModel.ideal()
    assert list(nm.channels_for("cx", (0, 1))) == []
    assert nm.survival_factor(random_circuit(3, 20, seed=0)) == 1.0


def test_global_depolarizing_approximation_matches_density_matrix():
    """The energy-level lambda model vs the true Kraus simulation.

    For depolarizing-per-gate noise on a traceless observable, the
    survival-factor model is close to exact density-matrix results for
    shallow circuits — validating the transient backend's static model.
    """
    from repro.hamiltonians.tfim import tfim_hamiltonian
    from repro.simulator.statevector import simulate_statevector

    circuit = random_circuit(3, 12, seed=21, two_qubit_fraction=0.3)
    ham = tfim_hamiltonian(3)
    nm = NoiseModel(0.002, 0.02)

    dm = DensityMatrixSimulator(3)
    rho = dm.run_circuit(circuit, noise_model=nm)
    noisy_energy = dm.expectation(rho, ham.to_matrix())

    sv = simulate_statevector(circuit)
    ideal_energy = ham.expectation(sv)
    approx = nm.survival_factor(circuit) * ideal_energy

    scale = max(1.0, abs(ideal_energy))
    assert abs(noisy_energy - approx) / scale < 0.1


def test_gate_error_kraus_cptp():
    from repro.noise.channels import is_cptp

    assert is_cptp(GateError(0.05, 1).kraus())
    assert is_cptp(GateError(0.05, 2).kraus())


def test_readout_confusion_matrix_columns_sum_to_one():
    err = ReadoutError([0.02, 0.05], [0.03, 0.01])
    matrix = err.confusion_matrix()
    assert np.allclose(matrix.sum(axis=0), 1.0)
    assert matrix.shape == (4, 4)


def test_readout_applies_expected_bias():
    err = ReadoutError.uniform(1, 0.1)
    probs = err.apply_to_probabilities(np.array([1.0, 0.0]))
    assert probs[1] == pytest.approx(0.1)


def test_mitigation_inverts_corruption():
    err = ReadoutError([0.03, 0.08], [0.05, 0.02])
    mitigator = ReadoutMitigator(err)
    true = np.array([0.5, 0.25, 0.125, 0.125])
    noisy = err.apply_to_probabilities(true)
    recovered = mitigator.mitigate_probabilities(noisy)
    assert np.allclose(recovered, true, atol=1e-10)


def test_mitigate_counts_normalized():
    err = ReadoutError.uniform(2, 0.05)
    mitigator = ReadoutMitigator(err)
    quasi = mitigator.mitigate_counts({"00": 900, "01": 50, "10": 40, "11": 10})
    assert sum(quasi.values()) == pytest.approx(1.0)
    assert all(v >= 0 for v in quasi.values())


def test_corrupt_counts_preserves_shots():
    err = ReadoutError.uniform(2, 0.2)
    noisy = err.corrupt_counts({"00": 100}, seed=1)
    assert sum(noisy.values()) == 100


def test_readout_validation():
    with pytest.raises(ValueError):
        ReadoutError([0.1], [0.1, 0.2])
    with pytest.raises(ValueError):
        ReadoutError([1.5], [0.0])


# -- fingerprint cache-key soundness -------------------------------------------


class _PermutedKrausModel(NoiseModel):
    """Same error strengths; optionally emits Kraus operators reversed."""

    def __init__(self, *args, flip=False, **kwargs):
        super().__init__(*args, **kwargs)
        self.flip = flip

    def channels_for(self, gate_name, qubits):
        for kraus, target in super().channels_for(gate_name, qubits):
            yield (list(reversed(kraus)) if self.flip else kraus), target


def test_fingerprint_stable_and_content_sensitive():
    assert NoiseModel(0.01, 0.05).fingerprint() == NoiseModel(0.01, 0.05).fingerprint()
    assert NoiseModel(0.01, 0.05).fingerprint() != NoiseModel(0.02, 0.05).fingerprint()
    assert (
        NoiseModel(0.01, 0.05).fingerprint()
        != NoiseModel(0.01, 0.05, gate_overrides={"rz": 0.0}).fingerprint()
    )


def test_fingerprint_distinguishes_kraus_operator_order():
    """Cache-key soundness the plan verifier (RPR011) assumes: two models
    differing only in the *order* of their Kraus operators must not share
    cached noise plans — the stacked arrays differ."""
    plain = _PermutedKrausModel(0.01, 0.05)
    flipped = _PermutedKrausModel(0.01, 0.05, flip=True)
    assert plain.fingerprint() != flipped.fingerprint()
    # Same class, same flip: still stable.
    assert plain.fingerprint() == _PermutedKrausModel(0.01, 0.05).fingerprint()


def test_fingerprint_distinguishes_subclass_channel_rewrites():
    """A subclass that changes channels_for cannot collide with the base
    model's cache entries even with identical dataclass fields."""
    assert (
        _PermutedKrausModel(0.01, 0.05).fingerprint()
        != NoiseModel(0.01, 0.05).fingerprint()
    )
