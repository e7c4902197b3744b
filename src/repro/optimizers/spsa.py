"""Simultaneous Perturbation Stochastic Approximation (SPSA).

The paper's primary tuner (Spall 1992, the paper's [4]): each iteration
draws a Rademacher perturbation ``Delta`` and approximates the full
gradient from just two objective evaluations,

``g_k = (f(theta + c_k Delta) - f(theta - c_k Delta)) / (2 c_k) * Delta^{-1}``.

Comparison variants from the paper's Section 6.3:

* :class:`BlockingSPSA` — only accepts updates that do not worsen the
  objective (beyond a noise allowance);
* :class:`ResamplingSPSA` — averages multiple gradient samples per
  iteration (the paper uses 2x);
* :class:`SecondOrderSPSA` — Spall's adaptive 2SPSA, estimating Hessian
  information to precondition the gradient.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.optimizers.base import Evaluator, IterativeOptimizer, evaluate_many
from repro.utils.rng import SeedLike, ensure_rng


class SPSA(IterativeOptimizer):
    """Standard first-order SPSA with the classic gain schedules.

    ``a_k = a / (k + 1 + A)^alpha`` and ``c_k = c / (k + 1)^gamma`` with
    Spall's recommended exponents. ``A`` defaults to 10 % of the expected
    iteration count.
    """

    def __init__(
        self,
        a: float = 0.2,
        c: float = 0.15,
        alpha: float = 0.602,
        gamma: float = 0.101,
        stability: float = 50.0,
        trust_radius: Optional[float] = None,
        seed: SeedLike = None,
    ):
        super().__init__()
        if a <= 0 or c <= 0:
            raise ValueError("gains a and c must be positive")
        if trust_radius is not None and trust_radius <= 0:
            raise ValueError("trust_radius must be positive (or None)")
        self.a = a
        self.c = c
        self.alpha = alpha
        self.gamma = gamma
        self.stability = stability
        # Qiskit-SPSA-style trust region: the update norm is capped, so a
        # noise-inflated gradient magnitude cannot throw the parameters
        # arbitrarily far — but a noise-*flipped* gradient still walks the
        # full capped step in the wrong direction. This is why gradient
        # direction (not magnitude) is the quantity QISMET protects.
        self.trust_radius = trust_radius
        self.rng = ensure_rng(seed)

    def _apply_step(self, theta: np.ndarray, step: np.ndarray) -> np.ndarray:
        if self.trust_radius is not None:
            norm = float(np.linalg.norm(step))
            if norm > self.trust_radius:
                step = step * (self.trust_radius / norm)
        return theta - step

    # -- gain schedules ------------------------------------------------------

    def learning_rate(self, k: int) -> float:
        return self.a / (k + 1 + self.stability) ** self.alpha

    def perturbation_size(self, k: int) -> float:
        return self.c / (k + 1) ** self.gamma

    def _rademacher(self, dim: int) -> np.ndarray:
        return self.rng.integers(0, 2, size=dim) * 2.0 - 1.0

    # -- gradient estimation ----------------------------------------------------

    def gradient_estimate(
        self, theta: np.ndarray, evaluate: Evaluator, ck: float
    ) -> np.ndarray:
        delta = self._rademacher(theta.size)
        # The theta+/theta- pair is one batched call: evaluators with a
        # block path (every unguarded backend) push both points through
        # the vectorized simulator in a single NumPy pass.
        plus, minus = evaluate_many(
            evaluate, np.stack([theta + ck * delta, theta - ck * delta])
        )
        self._count_eval()
        self._count_eval()
        return (plus - minus) / (2.0 * ck) * (1.0 / delta)

    def propose(self, theta: np.ndarray, evaluate: Evaluator) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        k = self.state.iteration
        gradient = self.gradient_estimate(theta, evaluate, self.perturbation_size(k))
        return self._apply_step(theta, self.learning_rate(k) * gradient)


class ResamplingSPSA(SPSA):
    """SPSA averaging ``resamplings`` independent gradient estimates.

    Doubles (for the paper's 2x) the per-iteration circuit cost in
    exchange for some robustness to transient-skewed single estimates.
    """

    def __init__(self, resamplings: int = 2, **kwargs):
        super().__init__(**kwargs)
        if resamplings < 1:
            raise ValueError("resamplings must be >= 1")
        self.resamplings = resamplings

    def propose(self, theta: np.ndarray, evaluate: Evaluator) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        k = self.state.iteration
        ck = self.perturbation_size(k)
        # All resamplings' theta+/theta- pairs go out as one batched call
        # (2R rows). Deltas are drawn up front in the same RNG order as
        # the serial loop, and rows keep the serial evaluation order
        # (p1, m1, p2, m2, ...), so noise streams are consumed
        # identically.
        deltas = [self._rademacher(theta.size) for _ in range(self.resamplings)]
        rows = np.stack(
            [
                theta + sign * ck * delta
                for delta in deltas
                for sign in (1.0, -1.0)
            ]
        )
        energies = evaluate_many(evaluate, rows)
        for _ in range(2 * self.resamplings):
            self._count_eval()
        gradient = np.mean(
            [
                (energies[2 * i] - energies[2 * i + 1])
                / (2.0 * ck)
                * (1.0 / delta)
                for i, delta in enumerate(deltas)
            ],
            axis=0,
        )
        return self._apply_step(theta, self.learning_rate(k) * gradient)


class BlockingSPSA(SPSA):
    """SPSA that only accepts non-worsening updates.

    Mirrors Qiskit SPSA's ``blocking=True``: a candidate is rejected when
    its measured objective exceeds the current objective plus an allowance
    of twice the estimated measurement noise. As the paper notes, this
    avoids some transient-driven excursions but also hurts the ability to
    escape local minima.
    """

    def __init__(self, allowed_increase: Optional[float] = None, **kwargs):
        super().__init__(**kwargs)
        self.allowed_increase = allowed_increase
        self._noise_estimate = 0.0
        self._last_energies: list = []

    def accepts(self, current_energy: float, candidate_energy: float) -> bool:
        allowance = (
            self.allowed_increase
            if self.allowed_increase is not None
            else 2.0 * self._noise_estimate
        )
        return candidate_energy <= current_energy + allowance

    def feedback(self, accepted: bool, theta: np.ndarray, energy: float) -> None:
        super().feedback(accepted, theta, energy)
        self._last_energies.append(energy)
        if len(self._last_energies) > 16:
            del self._last_energies[0]
        if len(self._last_energies) >= 4:
            diffs = np.diff(self._last_energies)
            self._noise_estimate = float(np.std(diffs) / np.sqrt(2.0))


class SecondOrderSPSA(SPSA):
    """Spall's adaptive second-order SPSA (2SPSA).

    Estimates the Hessian action with two extra objective evaluations per
    iteration and preconditions the gradient with a smoothed, regularized
    diagonal curvature estimate. The paper observes this variant performs
    *worse* than the baseline under transients: a transient-corrupted
    curvature estimate misdirects every subsequent step through the
    smoothing memory — our implementation reproduces that failure mode by
    construction, not by hard-coding.
    """

    def __init__(self, regularization: float = 0.5, hessian_smoothing: bool = True, **kwargs):
        # Practical 2SPSA implementations bound the preconditioned step
        # (Spall recommends blocking/step safeguards); without one the
        # first wrong-signed curvature estimate ejects the iterate from
        # the descent basin entirely.
        kwargs.setdefault("trust_radius", 0.1)
        super().__init__(**kwargs)
        if regularization <= 0:
            raise ValueError("regularization must be positive")
        self.regularization = regularization
        self.hessian_smoothing = hessian_smoothing
        self._hbar: Optional[np.ndarray] = None

    def propose(self, theta: np.ndarray, evaluate: Evaluator) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        k = self.state.iteration
        ck = self.perturbation_size(k)
        delta1 = self._rademacher(theta.size)
        delta2 = self._rademacher(theta.size)

        # All four evaluation points of 2SPSA go out as one batched call,
        # rows in the serial evaluation order.
        plus, minus, plus_tilde, minus_tilde = evaluate_many(
            evaluate,
            np.stack(
                [
                    theta + ck * delta1,
                    theta - ck * delta1,
                    theta + ck * delta1 + ck * delta2,
                    theta - ck * delta1 + ck * delta2,
                ]
            ),
        )
        for _ in range(4):
            self._count_eval()

        gradient = (plus - minus) / (2.0 * ck) * (1.0 / delta1)
        # One-sided gradient difference gives the Hessian action along
        # delta2; we keep the *signed* diagonal estimate, as in Spall's
        # 2SPSA. Under transient noise the sign itself becomes unreliable,
        # and a wrong-signed curvature flips the step direction — the
        # failure mode the paper observes for this scheme.
        delta_g = ((plus_tilde - plus) - (minus_tilde - minus)) / (2.0 * ck**2)
        hessian_diag = delta_g * (1.0 / delta2) * (1.0 / delta1)

        if self.hessian_smoothing and self._hbar is not None:
            hessian_diag = (k * self._hbar + hessian_diag) / (k + 1)
        self._hbar = hessian_diag

        # Regularize: clamp the curvature magnitude into a bounded band
        # while preserving its (possibly noise-corrupted) sign. The band
        # keeps preconditioned steps within ~2x of first-order steps, so
        # the failure mode is misdirection (wrong-signed curvature), not
        # unbounded step explosion.
        magnitude = np.clip(
            np.abs(hessian_diag), self.regularization, 4.0 * self.regularization
        )
        sign = np.where(hessian_diag >= 0, 1.0, -1.0)
        safe = sign * magnitude
        return self._apply_step(theta, self.learning_rate(k) * gradient / safe)
