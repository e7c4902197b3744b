"""Evaluation executors: how objective evaluations map onto quantum jobs.

Every objective evaluation runs as its own quantum job (on IBMQ, each
energy estimate is a batch of basis-group circuits submitted together).
A classical tuner forms gradients from *differences between consecutive
evaluations*, so a transient hitting one job corrupts the measured
gradient by the full transient amount — the damage mechanism of the
paper's Section 4.1.

:class:`GuardedEvaluator` is QISMET's execution instance (Fig. 7/8): each
job runs the requested circuit *plus a rerun of the previous evaluation's
circuit*. Because rerun and original are the same circuit executed in
adjacent jobs, ``Tm = EmR - Em_prev`` measures the transient shift between
the jobs exactly (up to shot noise), and the controller can keep the
evaluation-to-evaluation gradient sign faithful. This is also why the
paper's Section 8.3 reports "at least 2x" circuit overhead: every
execution instance carries the reference rerun.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backends.base import EnergyBackend
from repro.core.controller import ControllerDecision, QismetController
from repro.core.estimator import TransientEstimate


class PlainEvaluator:
    """Baseline executor: one job per evaluation, no guarding."""

    def __init__(self, backend: EnergyBackend):
        self.backend = backend

    def energy(self, theta: np.ndarray) -> float:
        return self.backend.new_job().energy(theta)

    def energies(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate a ``(B, P)`` block, one job per row, batched.

        The batch contract consumed by :func:`repro.optimizers.base.
        evaluate_many`: SPSA-style optimizers hand their theta+/theta-
        pairs (and resampling/2SPSA blocks) here, and the backend runs
        all rows through the vectorized simulator at once.
        """
        return self.backend.evaluate_jobs(thetas)

    def __call__(self, theta: np.ndarray) -> float:
        return self.energy(theta)

    @property
    def total_retries(self) -> int:
        return 0

    def reset(self) -> None:
        self.backend.reset()


class GuardedEvaluator:
    """QISMET executor: every evaluation guarded by a reference rerun.

    Keeps ``(last_theta, last_energy)`` — the previous evaluation and its
    recorded energy. Each new evaluation's job also reruns ``last_theta``;
    the controller compares the observed gradient ``Gm = E_new - E_last``
    against the transient-free prediction ``Gp`` and retries the job (with
    a fresh transient draw) when the transient flipped the gradient
    direction. On acceptance (including forced and budget-limited
    acceptance) the new evaluation becomes the reference.
    """

    def __init__(self, backend: EnergyBackend, controller: QismetController):
        self.backend = backend
        self.controller = controller
        self._last_theta: Optional[np.ndarray] = None
        self._last_energy: Optional[float] = None
        self.total_retries = 0

    def energy(self, theta: np.ndarray) -> float:
        theta = np.asarray(theta, dtype=float)
        if self._last_theta is None:
            # First evaluation: nothing to guard against yet.
            value = self.backend.new_job().energy(theta)
            self._last_theta, self._last_energy = theta.copy(), value
            return value

        retries = 0
        while True:
            job = self.backend.new_job()
            value = job.energy(theta)
            rerun = job.energy(self._last_theta)
            estimate = TransientEstimate(
                em_prev=self._last_energy, em_rerun=rerun, em_new=value
            )
            decision = self.controller.decide(estimate, retries)
            if decision is ControllerDecision.RETRY:
                retries += 1
                continue
            break
        self.total_retries += retries
        self._last_theta, self._last_energy = theta.copy(), value
        return value

    def __call__(self, theta: np.ndarray) -> float:
        return self.energy(theta)

    def reset(self) -> None:
        self.backend.reset()
        self._last_theta = None
        self._last_energy = None
        self.total_retries = 0
