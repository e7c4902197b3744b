"""Backend protocol: quantum jobs yielding energy estimates.

The job abstraction mirrors the paper's Fig. 7: a VQA run is a sequence of
jobs; each job is a batch of circuits executed close together in time and
therefore exposed to the *same* transient noise instance.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def batching_disabled() -> bool:
    """Whether block evaluation is off: never.

    Kept so run manifests can record the resolved setting; every backend
    evaluates a block of jobs through :meth:`EnergyBackend._evaluate_batch`.
    """
    return False


class EnergyJob:
    """One quantum job: evaluates energies under a fixed noise instant."""

    def __init__(self, backend: "EnergyBackend", index: int):
        self.backend = backend
        self.index = index

    def energy(self, theta: np.ndarray) -> float:
        """Objective estimate for parameters ``theta`` within this job."""
        self.backend.total_circuits += 1
        return self.backend._evaluate(np.asarray(theta, dtype=float), self.index)


class EnergyBackend:
    """Base backend; subclasses implement ``_evaluate`` and ``_evaluate_batch``.

    ``_evaluate`` runs one circuit within one job (a candidate
    measurement, or QISMET's guarded evaluation and its rerun).
    ``_evaluate_batch`` runs a block of jobs, one circuit per row; it
    vectorizes the expensive ideal-energy part and draws any backend RNG
    in row order, so a block equals its rows evaluated one by one.
    """

    def __init__(self) -> None:
        self.job_counter = 0
        self.total_circuits = 0

    def new_job(self) -> EnergyJob:
        """Open the next job; advances the backend's noise clock."""
        job = EnergyJob(self, self.job_counter)
        self.job_counter += 1
        return job

    def _evaluate(self, theta: np.ndarray, job_index: int) -> float:
        raise NotImplementedError

    def _evaluate_batch(
        self, thetas: np.ndarray, job_indices: Sequence[int]
    ) -> np.ndarray:
        """Row ``i`` evaluated as one circuit of job ``job_indices[i]``.

        Must equal ``[_evaluate(t, j) for t, j in zip(thetas,
        job_indices)]``, drawing any backend RNG in that same order.
        """
        raise NotImplementedError

    def evaluate_jobs(self, thetas: np.ndarray) -> np.ndarray:
        """Evaluate a ``(B, P)`` block, one quantum job per row.

        Opens ``B`` consecutive jobs and evaluates the block in one
        :meth:`_evaluate_batch` call; accounting is one circuit per job.
        """
        thetas = np.asarray(thetas, dtype=float)
        first = self.job_counter
        self.job_counter += len(thetas)
        self.total_circuits += len(thetas)
        return self._evaluate_batch(thetas, range(first, self.job_counter))

    def reset(self) -> None:
        self.job_counter = 0
        self.total_circuits = 0
