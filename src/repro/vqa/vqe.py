"""The VQE driver.

Per iteration the driver: (1) measures the candidate parameters' energy,
(2) lets the optimizer apply its acceptance rule (blocking), (3) feeds the
outcome back, and (4) asks the optimizer to propose the next candidate.
All objective evaluations — the candidate measurement and the optimizer's
gradient evaluations — go through an *evaluator*:

* :class:`~repro.core.executor.PlainEvaluator` (baseline): one quantum job
  per evaluation, fully exposed to whatever transient hits that job;
* :class:`~repro.core.executor.GuardedEvaluator` (QISMET): every job also
  reruns the previous evaluation's circuit and the controller retries jobs
  whose transient flipped the observed gradient direction (paper Fig. 7-9).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backends.base import EnergyBackend
from repro.core.controller import QismetController
from repro.core.executor import GuardedEvaluator, PlainEvaluator
from repro.optimizers.base import IterativeOptimizer
from repro.vqa.objective import EnergyObjective
from repro.vqa.result import IterationRecord, VQEResult


class VQE:
    """Variational quantum eigensolver over a job-based backend."""

    def __init__(
        self,
        objective: EnergyObjective,
        backend: EnergyBackend,
        optimizer: IterativeOptimizer,
        controller: Optional[QismetController] = None,
        track_true_energy: bool = True,
    ):
        self.objective = objective
        self.backend = backend
        self.optimizer = optimizer
        self.controller = controller
        self.evaluator: Union[PlainEvaluator, GuardedEvaluator]
        if controller is None:
            self.evaluator = PlainEvaluator(backend)
        else:
            self.evaluator = GuardedEvaluator(backend, controller)
        self.track_true_energy = track_true_energy

    def run(
        self,
        iterations: int,
        theta0: Optional[np.ndarray] = None,
        seed: Optional[int] = None,
        max_jobs: Optional[int] = None,
    ) -> VQEResult:
        """Run the tuning loop for ``iterations`` optimizer steps.

        ``max_jobs`` optionally caps total quantum jobs consumed (machine
        time). Under a job budget, schemes that skip/retry aggressively pay
        for every retry in lost optimizer steps — the fair basis for the
        paper's skipping-threshold studies (Figs. 15 and 19).
        """
        if iterations < 1:
            raise ValueError("iterations must be >= 1")
        if max_jobs is not None and max_jobs < 1:
            raise ValueError("max_jobs must be >= 1")
        self.optimizer.reset()
        self.evaluator.reset()

        theta_current = (
            np.asarray(theta0, dtype=float)
            if theta0 is not None
            else self.objective.initial_point(seed=seed)
        )
        if theta_current.shape != (self.objective.num_parameters,):
            raise ValueError("theta0 has the wrong shape")

        result = VQEResult()
        em_current = self.evaluator.energy(theta_current)
        result.records.append(
            self._record(0, em_current, theta_current, em_current, 0, True, True)
        )

        for index in range(1, iterations):
            if max_jobs is not None and self.backend.job_counter >= max_jobs:
                break
            # The evaluator object itself is the optimizer's evaluate
            # callback: calling it evaluates one point, and evaluators
            # exposing ``.energies`` let SPSA batch its theta+/theta-
            # pairs through the vectorized simulator (GuardedEvaluator is
            # inherently sequential and keeps the per-call path).
            theta_candidate = self.optimizer.propose(theta_current, self.evaluator)
            retries_before = self.evaluator.total_retries
            em_candidate = self.evaluator.energy(theta_candidate)
            retries = self.evaluator.total_retries - retries_before

            optimizer_accepted = self.optimizer.accepts(em_current, em_candidate)
            if optimizer_accepted:
                theta_current = theta_candidate
                em_current = em_candidate
            self.optimizer.feedback(optimizer_accepted, theta_current, em_current)

            result.records.append(
                self._record(
                    index,
                    em_current,
                    theta_current,
                    em_candidate,
                    retries,
                    True,
                    optimizer_accepted,
                )
            )

        result.final_theta = theta_current
        result.total_jobs = self.backend.job_counter
        result.total_circuits = self.backend.total_circuits
        result.total_retries = self.evaluator.total_retries
        if self.controller is not None:
            result.forced_accepts = self.controller.stats.forced_accepts
        return result

    def _record(
        self,
        index: int,
        machine_energy: float,
        theta: np.ndarray,
        candidate_energy: float,
        retries: int,
        controller_accepted: bool,
        optimizer_accepted: bool,
    ) -> IterationRecord:
        if self.controller is not None and self.controller.stats.tm_history:
            tm = self.controller.stats.tm_history[-1]
        else:
            tm = None
        return IterationRecord(
            index=index,
            machine_energy=machine_energy,
            true_energy=(
                self.objective.energy_at(theta)
                if self.track_true_energy
                else None
            ),
            candidate_energy=candidate_energy,
            tm=tm,
            gm=None,
            gp=None,
            retries=retries,
            accepted_by_controller=controller_accepted,
            accepted_by_optimizer=optimizer_accepted,
        )
