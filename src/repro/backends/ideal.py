"""The noise-free backend (the paper's orange reference line)."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.backends.base import EnergyBackend
from repro.vqa.objective import EnergyObjective


class IdealBackend(EnergyBackend):
    """Exact statevector energies; no static noise, no transients."""

    supports_batch = True

    def __init__(self, objective: EnergyObjective):
        super().__init__()
        self.objective = objective

    def _evaluate(self, theta: np.ndarray, job_index: int) -> float:
        return self.objective.energy_at(theta)

    def _evaluate_batch(
        self, thetas: np.ndarray, job_indices: Sequence[int]
    ) -> np.ndarray:
        return self.objective.batch_energies(thetas)
