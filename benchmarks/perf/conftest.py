"""Perf-benchmark harness: tracked timings for the evaluation hot path.

Unlike the figure benchmarks (which report wall-clock as a side effect of
regenerating the paper's results), this suite exists *for* the timings:
it measures the single-evaluation baseline, the batched fast path, and a
fig17-shaped end-to-end run, and writes the results to
``BENCH_perf.json`` at the repo root at session finish.

That file is committed, so the perf trajectory is tracked PR-over-PR,
and CI's ``perf`` job regenerates it on every push and fails on >25%
regression against the committed baseline (see ``tools/check_bench.py``;
comparisons are normalized within-run so they are robust to runner-speed
differences).

Run locally with::

    PYTHONPATH=src python -m pytest benchmarks/perf -q
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path
from typing import Callable, Dict

import numpy as np
import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
#: Output path; ``REPRO_BENCH_PATH`` redirects it (CI kernel smoke runs
#: write to a scratch file and compare against the committed baseline).
BENCH_PATH = Path(
    os.environ.get("REPRO_BENCH_PATH") or REPO_ROOT / "BENCH_perf.json"
)

#: Default benchmark timings are normalized against in the CI gate.
#: Individual benchmarks may name a different ``reference`` from their own
#: cost family (kernel-bound vs. dispatch-bound), which keeps the
#: normalized ratios stable across machines with different BLAS/runtime
#: speed balances.
REFERENCE_BENCHMARK = "single_eval_8q"

_RESULTS: Dict[str, Dict[str, float]] = {}


@pytest.fixture
def record_benchmark(benchmark) -> Callable:
    """Run a callable under pytest-benchmark and record its timings.

    ``record_benchmark(name, func, rounds=..., **metadata)`` stores the
    min/mean round times (seconds) into the ``BENCH_perf.json`` payload
    under ``name`` and returns the callable's last return value.
    """

    def _run(
        name,
        func,
        rounds=10,
        warmup_rounds=1,
        reference=REFERENCE_BENCHMARK,
        **metadata,
    ):
        value = benchmark.pedantic(
            func, rounds=rounds, iterations=1, warmup_rounds=warmup_rounds
        )
        stats = benchmark.stats.stats
        _RESULTS[name] = {
            "min_s": float(stats.min),
            "mean_s": float(stats.mean),
            "rounds": int(rounds),
            "reference": reference,
            **metadata,
        }
        return value

    return _run


#: Derived speedup ratios: (key, slow benchmark, fast benchmark).
_SPEEDUP_RATIOS = (
    ("batch8_speedup_vs_serial8", "serial_8x_eval_8q", "batch_8x_eval_8q"),
    (
        "compile_once_speedup_vs_recompile",
        "recompile_every_run_8q",
        "compile_once_run_many_8q",
    ),
    ("fusion_speedup_8q", "unfused_run_8q", "fused_run_8q"),
    ("noisy_engine_speedup_8q", "noisy_counts_walk_8q", "noisy_counts_8q"),
    (
        "kernel_speedup_16q",
        "kernel_vqe_iteration_16q_tensordot",
        "kernel_vqe_iteration_16q",
    ),
    (
        "kernel_speedup_20q",
        "kernel_statevector_20q_tensordot",
        "kernel_statevector_20q",
    ),
    # Overhead ratio, not a speedup: the faulty drain (two retries per
    # job) over the fault-free drain — check_bench gates its *ceiling*.
    ("retry_overhead_fleet", "fleet_drain_faulty", "fleet_drain_clean"),
)


def _derived(results: Dict[str, Dict[str, float]]) -> Dict[str, object]:
    derived: Dict[str, object] = {}
    for key, slow_name, fast_name in _SPEEDUP_RATIOS:
        slow = results.get(slow_name)
        fast = results.get(fast_name)
        if slow and fast and fast["min_s"] > 0:
            derived[key] = slow["min_s"] / fast["min_s"]
    normalized = {}
    for name, entry in results.items():
        reference = results.get(entry.get("reference", REFERENCE_BENCHMARK))
        if reference and reference["min_s"] > 0:
            normalized[name] = entry["min_s"] / reference["min_s"]
    if normalized:
        derived["normalized_min"] = normalized
    return derived


def _dedicated_perf_run(session) -> bool:
    """True when the session ran *only* this suite (or opt-in is forced).

    A plain ``pytest`` at the repo root also collects this directory; it
    must not silently rewrite the committed baseline with that machine's
    incidental timings. ``REPRO_WRITE_BENCH=1`` forces the write.
    """
    if os.environ.get("REPRO_WRITE_BENCH", "").strip() == "1":
        return True
    items = getattr(session, "items", None) or []
    here = Path(__file__).resolve().parent
    return bool(items) and all(
        here in Path(str(item.fspath)).resolve().parents for item in items
    )


def _traced_phases() -> Dict[str, object]:
    """One traced end-to-end run -> per-phase self-time shares.

    Shares are within-run normalized (they sum to ~coverage), so like the
    normalized benchmark times they survive runner-speed differences;
    ``tools/check_bench.py`` gates their drift. A failure here propagates:
    a file written without phases would switch that gate off.
    """
    from repro.obs import TRACER
    from repro.obs.report import build_report
    from repro.runtime.execute import execute_run
    from repro.runtime.spec import RunSpec

    TRACER.reset()
    TRACER.configure(enabled=True)
    try:
        execute_run(RunSpec(app="App1", scheme="baseline", iterations=5))
        report = build_report(tracer=TRACER)
    finally:
        TRACER.configure(enabled=False)
        TRACER.reset()
    return {
        "workload": "execute_run(App1, baseline, iterations=5)",
        "wall_s": round(report["wall_s"], 6),
        "coverage": round(report["coverage"], 4),
        "shares": {
            category: round(bucket["share"], 4)
            for category, bucket in report["phases"].items()
        },
    }


def pytest_sessionfinish(session, exitstatus):
    if not _RESULTS or exitstatus not in (0,):
        return
    if not _dedicated_perf_run(session):
        return
    payload = {
        "schema": 1,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "reference_benchmark": REFERENCE_BENCHMARK,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "benchmarks": dict(sorted(_RESULTS.items())),
        "derived": _derived(_RESULTS),
        "phases": _traced_phases(),
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
