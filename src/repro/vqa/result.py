"""VQE run records and results.

Both record types serialize losslessly to plain dicts (``to_dict`` /
``from_dict``) so runs survive process boundaries (the parallel executor)
and disk caches. Floats round-trip exactly through JSON's shortest-repr
encoding, so a deserialized result is bit-equal to the original.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Mapping, Optional

import numpy as np


@dataclass(frozen=True)
class IterationRecord:
    """Everything observed during one accepted VQA iteration."""

    index: int
    machine_energy: float
    true_energy: Optional[float]
    candidate_energy: float
    tm: Optional[float]
    gm: Optional[float]
    gp: Optional[float]
    retries: int
    accepted_by_controller: bool
    accepted_by_optimizer: bool

    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "IterationRecord":
        return cls(**{f: data[f] for f in cls.__dataclass_fields__})


@dataclass
class VQEResult:
    """Outcome of one VQE run."""

    records: List[IterationRecord] = field(default_factory=list)
    final_theta: Optional[np.ndarray] = None
    total_jobs: int = 0
    total_circuits: int = 0
    total_retries: int = 0
    forced_accepts: int = 0

    @property
    def iterations(self) -> int:
        return len(self.records)

    @property
    def machine_energies(self) -> np.ndarray:
        """Per-iteration machine-observed objective (the paper's plots)."""
        return np.array([r.machine_energy for r in self.records])

    @property
    def true_energies(self) -> np.ndarray:
        """Per-iteration transient-free exact energies of the accepted
        parameters (available in simulation only)."""
        values = [r.true_energy for r in self.records]
        if any(v is None for v in values):
            raise ValueError("true energies were not tracked for this run")
        return np.array(values)

    @property
    def final_machine_energy(self) -> float:
        if not self.records:
            raise ValueError("empty run")
        return self.records[-1].machine_energy

    @property
    def final_true_energy(self) -> float:
        values = self.true_energies
        return float(values[-1])

    def tail_true_energy(self, fraction: float = 0.1) -> float:
        """Mean true energy over the last ``fraction`` of iterations.

        More robust than the single final point for comparing schemes, in
        the spirit of the paper's converged-expectation comparisons.
        """
        values = self.true_energies
        tail = max(1, int(len(values) * fraction))
        return float(np.mean(values[-tail:]))

    def tail_machine_energy(self, fraction: float = 0.1) -> float:
        values = self.machine_energies
        tail = max(1, int(len(values) * fraction))
        return float(np.mean(values[-tail:]))

    def summary(self) -> Dict[str, float]:
        return {
            "iterations": float(self.iterations),
            "final_machine_energy": self.final_machine_energy,
            "total_jobs": float(self.total_jobs),
            "total_circuits": float(self.total_circuits),
            "total_retries": float(self.total_retries),
            "forced_accepts": float(self.forced_accepts),
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "records": [record.to_dict() for record in self.records],
            "final_theta": (
                None
                if self.final_theta is None
                else [float(v) for v in np.asarray(self.final_theta, dtype=float)]
            ),
            "total_jobs": int(self.total_jobs),
            "total_circuits": int(self.total_circuits),
            "total_retries": int(self.total_retries),
            "forced_accepts": int(self.forced_accepts),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "VQEResult":
        theta = data.get("final_theta")
        return cls(
            records=[IterationRecord.from_dict(r) for r in data.get("records", [])],
            final_theta=None if theta is None else np.asarray(theta, dtype=float),
            total_jobs=int(data.get("total_jobs", 0)),
            total_circuits=int(data.get("total_circuits", 0)),
            total_retries=int(data.get("total_retries", 0)),
            forced_accepts=int(data.get("forced_accepts", 0)),
        )
