"""1-D Kalman filtering of VQA objective estimates (paper Section 7.4).

The filter models the objective trajectory as a scalar linear system

``x_{k+1} = T x_k + w``,  ``z_k = x_k + v``

with the paper's two tuned hyper-parameters: the Transition Coefficient
``T`` (a linear estimate of the noise-free curve's slope; values below 1
impose a forced downward descent) and the Measurement Variance ``MV``.

Applied "on top of the noisy VQA tuning performed with SPSA": every
objective evaluation the optimizer sees is passed through a shared filter.
This is what produces the paper's observed failure modes — low MV lets
transients through; high MV cannot distinguish machine noise from genuine
algorithmic variance and saturates.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.backends.base import EnergyBackend


class KalmanFilter1D:
    """Scalar Kalman filter with transition coefficient and fixed variances."""

    def __init__(
        self,
        transition: float = 1.0,
        measurement_variance: float = 0.1,
        process_variance: float = 1e-3,
        initial_estimate: Optional[float] = None,
        initial_variance: float = 1.0,
    ):
        if measurement_variance <= 0:
            raise ValueError("measurement_variance must be positive")
        if process_variance < 0:
            raise ValueError("process_variance must be non-negative")
        self.transition = transition
        self.measurement_variance = measurement_variance
        self.process_variance = process_variance
        self.estimate = initial_estimate
        self.variance = initial_variance

    def update(self, measurement: float) -> float:
        """Fold in one measurement; returns the filtered estimate."""
        if self.estimate is None:
            self.estimate = float(measurement)
            self.variance = self.measurement_variance
            return self.estimate
        # Predict.
        predicted = self.transition * self.estimate
        predicted_variance = (
            self.transition**2 * self.variance + self.process_variance
        )
        # Correct.
        gain = predicted_variance / (predicted_variance + self.measurement_variance)
        self.estimate = predicted + gain * (measurement - predicted)
        self.variance = (1.0 - gain) * predicted_variance
        return float(self.estimate)

    def filter_series(self, values) -> np.ndarray:
        """Fold ``values`` in order; returns each estimate (resets nothing)."""
        return np.array([self.update(v) for v in values])


class KalmanFilteredBackend(EnergyBackend):
    """Wraps a backend so every energy estimate is Kalman-filtered.

    The wrapper keeps the job clock and hands each job index to the inner
    backend's ``_evaluate``/``_evaluate_batch``, so the inner trace
    advances job by job; a block's raw energies fold into the filter in
    row order, as a row-by-row run would fold them. The shared filter
    state couples evaluations at different parameters — exactly the
    paper's point about why magnitude-only filtering struggles in the VQA
    tuning landscape.
    """

    def __init__(
        self,
        inner: EnergyBackend,
        transition: float = 1.0,
        measurement_variance: float = 0.1,
        process_variance: float = 1e-3,
    ):
        super().__init__()
        self.inner = inner
        self._params = (transition, measurement_variance, process_variance)
        self.filter = self._fresh_filter()

    def _fresh_filter(self) -> KalmanFilter1D:
        transition, mv, pv = self._params
        return KalmanFilter1D(
            transition=transition,
            measurement_variance=mv,
            process_variance=pv,
        )

    def _evaluate(self, theta: np.ndarray, job_index: int) -> float:
        return self.filter.update(self.inner._evaluate(theta, job_index))

    def _evaluate_batch(
        self, thetas: np.ndarray, job_indices: Sequence[int]
    ) -> np.ndarray:
        raw = self.inner._evaluate_batch(thetas, job_indices)
        return self.filter.filter_series(raw)

    def reset(self) -> None:
        super().reset()
        self.filter = self._fresh_filter()
