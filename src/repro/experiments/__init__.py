"""Experiment harness reproducing the paper's evaluation.

``registry`` holds Table 1's applications; ``schemes`` builds the
comparison schemes of Section 6.3; ``runner`` holds per-cell comparisons
and their geomean; ``figures`` assembles the per-figure data series;
``metrics`` computes the relative-improvement numbers the paper reports.
"""

from repro.experiments.registry import APPLICATIONS, AppConfig, get_app, machine_app
from repro.experiments.schemes import SCHEME_NAMES, build_vqe
from repro.experiments.runner import ComparisonResult
from repro.experiments.metrics import (
    improvement_rel_baseline,
    progress_fraction,
)
from repro.experiments.config import default_iterations, is_full_scale

__all__ = [
    "APPLICATIONS",
    "AppConfig",
    "get_app",
    "machine_app",
    "SCHEME_NAMES",
    "build_vqe",
    "ComparisonResult",
    "improvement_rel_baseline",
    "progress_fraction",
    "default_iterations",
    "is_full_scale",
]
