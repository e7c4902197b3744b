"""Scheme comparisons over Table 1 applications and their geomean.

A :class:`ComparisonResult` holds every scheme's outcome on one
comparison cell: one app, seed and trace scale, so one starting point
and transient trace. Comparisons are derived, never stored: build an
:class:`~repro.runtime.spec.ExperimentPlan` (``ExperimentPlan.single``
for one cell), run it on an executor and regroup the runs with
``PlanResult.comparisons()`` (or ``ExperimentStore.comparisons`` over
stored runs). :func:`geomean_improvements` is the Fig. 17 aggregation
over many cells.

Seeds are derived per scheme (backend shot-noise streams are
independent) while the SPSA perturbation sequence is shared across
schemes, mirroring the paper's synchronous paired-comparison
methodology — see :mod:`repro.runtime.execute` for the exact contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from repro.experiments.metrics import expectation_ratio, improvement_rel_baseline
from repro.vqa.result import VQEResult


@dataclass
class ComparisonResult:
    """All schemes' outcomes on one application."""

    app_name: str
    ground_truth: float
    results: Dict[str, VQEResult] = field(default_factory=dict)

    def improvements(
        self,
        baseline: str = "baseline",
        tail_fraction: float = 0.15,
        use_true_energy: bool = True,
    ) -> Dict[str, float]:
        """Per-scheme expectation ratios vs the baseline (the paper's
        "VQE Expectation rel. Baseline").

        Uses the transient-free energy of the accepted parameters, which
        preserves the paper's orderings with much less run-to-run variance
        than raw machine estimates (whose tails are contaminated by
        whichever transient hit the final jobs). Pass
        ``use_true_energy=False`` for the machine-measured expectation the
        paper's hardware figures necessarily plot.
        """
        return expectation_ratio(
            self.results, baseline=baseline,
            tail_fraction=tail_fraction, use_true_energy=use_true_energy,
        )

    def progress_improvements(
        self, baseline: str = "baseline", tail_fraction: float = 0.15
    ) -> Dict[str, float]:
        """Gap-closed progress ratios (alternative, variance-prone metric)."""
        return improvement_rel_baseline(
            self.results, self.ground_truth, baseline=baseline,
            tail_fraction=tail_fraction,
        )

    def final_energies(self) -> Dict[str, float]:
        return {
            name: result.tail_true_energy()
            for name, result in self.results.items()
        }


def geomean_improvements(
    comparisons: Sequence[ComparisonResult],
    baseline: str = "baseline",
) -> Dict[str, float]:
    """Geometric-mean improvement per scheme across applications (Fig. 17)."""
    if not comparisons:
        raise ValueError("no comparisons")
    schemes = set.intersection(*(set(c.results) for c in comparisons))
    out: Dict[str, float] = {}
    for scheme in sorted(schemes):
        ratios = [c.improvements(baseline)[scheme] for c in comparisons]
        out[scheme] = float(np.exp(np.mean(np.log(ratios))))
    return out
