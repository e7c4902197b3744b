import numpy as np
import pytest

from repro.simulator.sampling import (
    counts_from_probabilities,
    probabilities_from_counts,
    sample_counts,
)


def test_counts_total_and_keys():
    probs = np.array([0.5, 0.5, 0.0, 0.0])
    counts = counts_from_probabilities(probs, shots=1000, seed=3)
    assert sum(counts.values()) == 1000
    assert set(counts) <= {"00", "01"}


def test_bitstring_orientation():
    # index 2 = binary '10' = qubit0 measured 1, qubit1 measured 0
    probs = np.array([0.0, 0.0, 1.0, 0.0])
    counts = counts_from_probabilities(probs, shots=10, seed=0)
    assert counts == {"10": 10}


def test_statistical_convergence():
    probs = np.array([0.25, 0.75])
    counts = counts_from_probabilities(probs, shots=200_000, seed=1)
    assert counts["1"] / 200_000 == pytest.approx(0.75, abs=0.01)


def test_sample_counts_from_statevector():
    sv = np.array([1, 1j]) / np.sqrt(2)
    counts = sample_counts(sv, shots=50_000, seed=7)
    assert counts["0"] / 50_000 == pytest.approx(0.5, abs=0.02)


def test_normalization_tolerated():
    probs = np.array([2.0, 2.0])
    counts = counts_from_probabilities(probs, shots=100, seed=0)
    assert sum(counts.values()) == 100


def test_validation():
    with pytest.raises(ValueError):
        counts_from_probabilities(np.array([1.0, 0.0]), shots=0)
    with pytest.raises(ValueError):
        counts_from_probabilities(np.array([1.0, 0.0, 0.0]), shots=10)
    with pytest.raises(ValueError):
        counts_from_probabilities(np.zeros(2), shots=10)


def test_probabilities_from_counts():
    probs = probabilities_from_counts({"00": 3, "11": 1})
    assert probs["00"] == pytest.approx(0.75)
    with pytest.raises(ValueError):
        probabilities_from_counts({})
