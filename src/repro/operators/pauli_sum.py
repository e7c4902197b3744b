"""Weighted sums of Pauli strings (Hamiltonians / observables)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Tuple, Union

import numpy as np

from repro.operators.pauli import PauliString
from repro.operators.pauli_apply import pauli_sum_expectation


@dataclass(frozen=True)
class PauliTerm:
    """A single ``coefficient * PauliString`` term."""

    coefficient: float
    pauli: PauliString

    def __repr__(self) -> str:
        return f"{self.coefficient:+.6g}*{self.pauli.label}"


class PauliSum:
    """A real-coefficient linear combination of Pauli strings.

    Real coefficients suffice for Hermitian observables expressed in the
    Pauli basis, which covers every Hamiltonian in the paper (TFIM, H2).
    """

    def __init__(self, terms: Iterable[Tuple[float, Union[str, PauliString]]]):
        collected: Dict[PauliString, float] = {}
        num_qubits = None
        for coefficient, pauli in terms:
            if not isinstance(pauli, PauliString):
                pauli = PauliString(pauli)
            if num_qubits is None:
                num_qubits = pauli.num_qubits
            elif pauli.num_qubits != num_qubits:
                raise ValueError("all terms must act on the same qubit count")
            collected[pauli] = collected.get(pauli, 0.0) + float(coefficient)
        if num_qubits is None:
            raise ValueError("a PauliSum needs at least one term")
        self.num_qubits = num_qubits
        self._terms: List[PauliTerm] = [
            PauliTerm(coeff, pauli)
            for pauli, coeff in collected.items()
            if abs(coeff) > 1e-14
        ]
        if not self._terms:
            # The all-identity zero operator: keep one explicit zero term so
            # downstream code always has a qubit count to work with.
            self._terms = [PauliTerm(0.0, PauliString("I" * num_qubits))]

    # -- container protocol -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[PauliTerm]:
        return iter(self._terms)

    @property
    def terms(self) -> Tuple[PauliTerm, ...]:
        return tuple(self._terms)

    @property
    def coefficients(self) -> np.ndarray:
        return np.array([term.coefficient for term in self._terms])

    @property
    def paulis(self) -> Tuple[PauliString, ...]:
        return tuple(term.pauli for term in self._terms)

    # -- algebra ---------------------------------------------------------------------

    def __add__(self, other: "PauliSum") -> "PauliSum":
        return PauliSum(
            [(t.coefficient, t.pauli) for t in self._terms]
            + [(t.coefficient, t.pauli) for t in other._terms]
        )

    def __mul__(self, scalar: float) -> "PauliSum":
        return PauliSum([(t.coefficient * scalar, t.pauli) for t in self._terms])

    __rmul__ = __mul__

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    # -- numerics ----------------------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense matrix (2**n x 2**n); fine for the <= 12-qubit regime."""
        dim = 2**self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for term in self._terms:
            matrix += term.coefficient * term.pauli.to_matrix()
        return matrix

    def expectation(self, state: np.ndarray) -> float:
        """Exact expectation against a statevector (flat or tensor).

        Routed through the matrix-free bitmask engine: each term costs one
        index-permutation gather, so no per-term dense matrix (and no
        axis-by-axis tensor manipulation) is ever built.
        """
        psi = np.asarray(state, dtype=complex).reshape(-1)
        coefficients, labels = self._flat_terms()
        return float(pauli_sum_expectation(coefficients, labels, psi))

    def batch_expectations(self, states: np.ndarray) -> np.ndarray:
        """Exact expectations for a batch of flat statevectors.

        ``states`` has shape ``(..., 2**n)``; returns ``states.shape[:-1]``
        real values, evaluating every term vectorized over the batch axes.
        """
        states = np.asarray(states, dtype=complex)
        coefficients, labels = self._flat_terms()
        return np.asarray(pauli_sum_expectation(coefficients, labels, states))

    def _flat_terms(self) -> Tuple[np.ndarray, Tuple[str, ...]]:
        """``(coefficients, labels)`` in term order (cached; terms are
        immutable, so the hot path avoids rebuilding them per call)."""
        cached = getattr(self, "_flat_cache", None)
        if cached is None:
            cached = (
                np.array([term.coefficient for term in self._terms]),
                tuple(term.pauli.label for term in self._terms),
            )
            self._flat_cache = cached
        return cached

    def ground_state_energy(self) -> float:
        """Smallest eigenvalue by dense diagonalization."""
        eigenvalues = np.linalg.eigvalsh(self.to_matrix())
        return float(eigenvalues[0])

    def spectral_range(self) -> Tuple[float, float]:
        eigenvalues = np.linalg.eigvalsh(self.to_matrix())
        return float(eigenvalues[0]), float(eigenvalues[-1])

    def one_norm(self) -> float:
        """Sum of |coefficients|; bounds shot-noise scale."""
        return float(np.sum(np.abs(self.coefficients)))

    def identity_coefficient(self) -> float:
        for term in self._terms:
            if term.pauli.is_identity:
                return term.coefficient
        return 0.0

    def maximally_mixed_expectation(self) -> float:
        """Expectation under the maximally mixed state = identity weight."""
        return self.identity_coefficient()

    def __repr__(self) -> str:
        body = " ".join(repr(term) for term in self._terms[:6])
        suffix = " ..." if len(self._terms) > 6 else ""
        return f"PauliSum({body}{suffix})"


def pauli_sum_from_dict(
    num_qubits: int, coefficients: Mapping[str, float]
) -> PauliSum:
    """Build a PauliSum from ``{"XIZ": 0.5, ...}`` style dictionaries."""
    terms = []
    for label, coefficient in coefficients.items():
        if len(label) != num_qubits:
            raise ValueError(
                f"label {label!r} does not match num_qubits={num_qubits}"
            )
        terms.append((coefficient, label))
    return PauliSum(terms)
