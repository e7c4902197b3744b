"""repro.obs — unified tracing, metrics and profiling.

One substrate for every "where does the time go" question in the repo:

- :mod:`repro.obs.trace` — context-managed span trees
  (``REPRO_TRACE=1`` enables, near-zero overhead when disabled).
- :mod:`repro.obs.metrics` — always-on counters / gauges / histograms
  (cache scoreboards, fleet telemetry, kernel byte/flop totals).
- :mod:`repro.obs.clock` — the only sanctioned reader of ``time``
  (lint rule RPR106 keeps it that way).
- :mod:`repro.obs.export` — Chrome trace-event JSON (Perfetto) and
  ``traces`` payloads in ``repro.store``.
- :mod:`repro.obs.report` — per-phase breakdown + cache scoreboard,
  also via ``python -m repro.obs report``.

Typical instrumentation:

    from repro.obs import TRACER, METRICS

    with TRACER.span("compile.route", category="compile", qubits=8):
        ...
    METRICS.counter("cache.plan.hits").inc()

Determinism contract: nothing here touches content hashes, RNG streams
or stored result payloads — results are bit-identical with tracing on.
"""

from repro.obs.clock import Stopwatch, monotonic, perf_counter, wall_time
from repro.obs.metrics import METRICS, MetricsRegistry
from repro.obs.trace import (
    EXPORT_ENV,
    NOOP_SPAN,
    TRACE_ENV,
    TRACER,
    Span,
    Tracer,
)

__all__ = [
    "METRICS",
    "MetricsRegistry",
    "TRACER",
    "Tracer",
    "Span",
    "NOOP_SPAN",
    "TRACE_ENV",
    "EXPORT_ENV",
    "Stopwatch",
    "perf_counter",
    "monotonic",
    "wall_time",
]
