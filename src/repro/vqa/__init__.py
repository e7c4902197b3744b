"""The VQA layer: objectives, the VQE driver and its results."""

from repro.vqa.objective import EnergyObjective
from repro.vqa.result import IterationRecord, VQEResult
from repro.vqa.vqe import VQE

__all__ = [
    "EnergyObjective",
    "IterationRecord",
    "VQEResult",
    "VQE",
]
