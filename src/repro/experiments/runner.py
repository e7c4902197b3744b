"""Experiment runner: scheme comparisons over Table 1 applications.

This module is the classic, comparison-shaped front door to the
declarative runtime in :mod:`repro.runtime`: :func:`run_comparison`
builds a one-app :class:`~repro.runtime.spec.ExperimentPlan` and hands it
to an executor (serial by default; set ``REPRO_EXECUTOR=parallel`` or
pass ``executor=`` to fan schemes out across processes, and
``REPRO_STORE`` to reuse previously computed runs). Sweeps larger
than one app x one seed should build an ``ExperimentPlan`` directly.

Seeds are derived per scheme (backend shot-noise streams are
independent) while the SPSA perturbation sequence is shared across
schemes, mirroring the paper's synchronous paired-comparison
methodology — see :mod:`repro.runtime.execute` for the exact contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Sequence

import numpy as np

from repro.experiments.metrics import expectation_ratio, improvement_rel_baseline
from repro.experiments.registry import AppConfig
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

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app_name": self.app_name,
            "ground_truth": float(self.ground_truth),
            "results": {
                name: result.to_dict() for name, result in self.results.items()
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ComparisonResult":
        return cls(
            app_name=data["app_name"],
            ground_truth=float(data["ground_truth"]),
            results={
                name: VQEResult.from_dict(payload)
                for name, payload in data.get("results", {}).items()
            },
        )


def run_comparison(
    app: AppConfig,
    schemes: Sequence[str],
    iterations: int,
    seed: int = 2023,
    shots: int = 8192,
    trace_scale: float = 1.0,
    theta0: Optional[np.ndarray] = None,
    executor=None,
    **scheme_kwargs,
) -> ComparisonResult:
    """Run several schemes on one application under identical conditions.

    All schemes share the application's transient trace (scaled by
    ``trace_scale``), starting parameters and SPSA perturbation sequence,
    while backend shot-noise streams are derived per scheme — mirroring
    the paper's synchronous baseline-vs-QISMET methodology.

    This is a compatibility shim over :mod:`repro.runtime`: it expands a
    one-app plan and executes it on ``executor`` (default: environment
    selected via ``REPRO_EXECUTOR``/``REPRO_STORE``).
    """
    from repro.runtime import ExperimentPlan, executor_for, resolve_app

    overrides = dict(scheme_kwargs)
    if theta0 is not None:
        overrides["theta0"] = tuple(
            float(v) for v in np.asarray(theta0, dtype=float)
        )
    plan = ExperimentPlan.single(
        app, schemes, iterations,
        seed=seed, shots=shots, trace_scale=trace_scale, overrides=overrides,
    )
    outcome = (executor or executor_for()).run_plan(plan)
    return outcome.comparison(resolve_app(app).name)


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
