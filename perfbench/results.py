"""Typed benchmark results.

A :class:`BenchmarkResult` is one metric: its value (a median where it
summarises repeated samples), unit, direction, sample count and
quartiles, plus a partial/error flag. A :class:`BenchmarkSummary` holds
every metric of one benchmark invocation with the correctness counts and
the environment it ran in, and renders both the human-readable lines and
the one-line JSON result.
"""

from __future__ import annotations

import statistics
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Sequence


@dataclass
class BenchmarkResult:
    name: str
    value: float
    unit: str
    better: str
    samples: int
    q1: Optional[float] = None
    q3: Optional[float] = None
    #: Derived from counts and sizes rather than timed (e.g. bytes moved).
    computed: bool = False
    partial: bool = False
    error: Optional[str] = None

    def line(self) -> str:
        spread = ""
        if self.q1 is not None and self.q3 is not None:
            spread = f", q1 {self.q1:.6g}, q3 {self.q3:.6g}"
        flags = "".join(
            [", computed" if self.computed else "", ", PARTIAL" if self.partial else ""]
        )
        error = f"  error: {self.error}" if self.error else ""
        return (
            f"  {self.name:<44} {self.value:>14.6g} {self.unit:<6}"
            f" ({self.better} is better; n={self.samples}{spread}{flags}){error}"
        )


def summarize(
    name: str, unit: str, better: str, samples: Sequence[float], computed: bool = False
) -> BenchmarkResult:
    """Median and quartiles of ``samples`` as one metric."""
    values = [float(v) for v in samples]
    if not values:
        return BenchmarkResult(name, 0.0, unit, better, 0, partial=True, error="no samples")
    q1 = q3 = None
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return BenchmarkResult(
        name, statistics.median(values), unit, better, len(values), q1, q3, computed
    )


@dataclass
class BenchmarkSummary:
    workload: str
    seed: int
    trace: bool
    metadata: Dict[str, Any]
    results: List[BenchmarkResult] = field(default_factory=list)
    #: Informational outputs (quality guards), printed but not compared.
    quality: List[BenchmarkResult] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.failures

    @property
    def partial(self) -> bool:
        return any(result.partial for result in self.results)

    def add(self, result: BenchmarkResult) -> BenchmarkResult:
        self.results.append(result)
        return result

    def metric(self, name: str) -> BenchmarkResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)

    def lines(self) -> List[str]:
        mode = "traced" if self.trace else "untraced"
        out = [
            f"perfbench {self.workload} seed={self.seed}"
            f" experiment_seed={self.metadata.get('experiment_seed')} ({mode})"
        ]
        out += [result.line() for result in self.results]
        if self.quality:
            out.append("  quality (deterministic per seed; checked against references.json):")
            out += [result.line() for result in self.quality]
        out.append(
            f"  runs attempted {self.attempted}, failed {self.failed}"
            f" -> {'correct' if self.correct else 'INCORRECT'}"
        )
        out += [f"  failure: {message}" for message in self.failures[:20]]
        return out

    def contract(self, names: Sequence[str]) -> Dict[str, Any]:
        """The one-line JSON result with the metrics ``names``."""
        metrics = {}
        for name in names:
            result = self.metric(name)
            metrics[name] = {"value": result.value, "unit": result.unit}
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }

    def to_dict(self) -> Dict[str, Any]:
        return {
            "workload": self.workload,
            "seed": self.seed,
            "trace": self.trace,
            "metadata": self.metadata,
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "partial": self.partial,
            "results": [asdict(result) for result in self.results],
            "quality": [asdict(result) for result in self.quality],
            **self.extra,
        }
