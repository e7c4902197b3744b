"""Outside-in span tracing of the library's layers.

The benchmark measures each layer from outside: :class:`Instrumentation`
replaces the public entry points of a layer (``VQE.run``,
``QismetController.decide``, ``EnergyObjective.ideal_energy``, ...) with
thin wrappers that record one :class:`Span` per call into a
:class:`SpanRecorder`, and restores the originals on :meth:`remove`. The
library itself is untouched, so an untraced run executes exactly the code
a user runs.

A span has a name, start and end (``time.perf_counter``), the span that
caused it (its parent), the ``run_id`` shared by every span of one VQE
run, the thread it ran on, and a few call attributes (rows in a batch,
a controller decision, ...). Spans stay in memory; the caller writes them
out when the benchmark ends (:func:`spans_to_json`).

:func:`layer_metrics` turns the spans of one timed pass into per-layer
counts, busy/self times and ratios. A span's *self time* is its duration
minus the part of its interval covered by its children (children on
worker threads included, as a union of intervals).
"""

from __future__ import annotations

import functools
import math
import sys
import threading
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Span-name prefix -> layer (the library module the span enters).
LAYERS = {
    "vqa": "vqa",
    "optimizers": "optimizers",
    "core": "core",
    "backends": "backends",
    "objective": "objective",
    "simulator": "simulator",
    "operators": "operators",
    "compiler": "compiler",
    "runtime": "runtime",
    "store": "store",
    "fleet": "fleet",
}

#: Spans whose work fans out to worker threads: a worker thread's first
#: span attaches to the innermost open one of these on the main thread.
FANOUT_SPANS = ("fleet.drain",)

#: Bytes per complex128 amplitude.
AMPLITUDE_BYTES = 16


def layer_of(name: str) -> Optional[str]:
    return LAYERS.get(name.partition(".")[0])


class Span:
    __slots__ = ("name", "start", "end", "parent", "run_id", "thread", "attrs")

    def __init__(self, name, start, parent, run_id, thread):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.run_id = run_id
        self.thread = thread
        self.attrs = None

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    def set(self, **attrs) -> None:
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)


class SpanRecorder:
    """Collects spans in memory, one parent stack per thread."""

    def __init__(self):
        self.spans: List[Span] = []
        self._local = threading.local()
        self._main_thread = threading.main_thread().ident
        self._main_stack = self.stack() if threading.get_ident() == self._main_thread else []

    def stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ambient_parent(self) -> Optional[Span]:
        """Parent of a worker thread's first span: the fan-out span the
        main thread is inside, else whatever the main thread has open."""
        for span in reversed(self._main_stack):
            if span.name in FANOUT_SPANS:
                return span
        return self._main_stack[-1] if self._main_stack else None

    def open(self, name: str, run_id: Optional[str] = None) -> Span:
        stack = self.stack()
        if stack:
            parent = stack[-1]
        elif threading.get_ident() != self._main_thread:
            parent = self._ambient_parent()
        else:
            parent = None
        if run_id is None and parent is not None:
            run_id = parent.run_id
        span = Span(name, time.perf_counter(), parent, run_id, threading.get_ident())
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self.stack()
        if stack and stack[-1] is span:
            stack.pop()

    def take(self) -> List[Span]:
        """Return the spans recorded so far and start a fresh list."""
        spans, self.spans = self.spans, []
        return spans


# ---------------------------------------------------------------------------
# Call observers: attributes recorded on a span from a call's arguments
# and result. Each takes (span, args, result).
# ---------------------------------------------------------------------------

def _rows(span, args, result):
    span.set(rows=len(args[1]))


def _decision(span, args, result):
    retries_so_far = args[2] if len(args) > 2 else 0
    span.set(outcome=getattr(result, "name", str(result)), first=retries_so_far == 0)


def _store_get(span, args, result):
    span.set(hit=result is not None)


def _route(span, args, result):
    span.set(deferrals=len(result.deferred_from) + (0 if result.placed else 1))


def _jobstore(method):
    def observe(span, args, result):
        target = args[1]
        span.set(method=method, job=getattr(target, "run_id", target))

    return observe


def _run_plan_bytes(span, args, result):
    plan = args[1]
    span.set(bytes=len(plan.ops) * AMPLITUDE_BYTES * 2 * (2 ** plan.num_qubits) * 2)


def _run_flat_bytes(span, args, result):
    plan, thetas = args[1], args[2]
    rows = len(thetas)
    span.set(
        rows=rows,
        bytes=rows * len(plan.ops) * AMPLITUDE_BYTES * 2 * (2 ** plan.num_qubits) * 2,
    )


def _in_backend(stack: Sequence[Span]) -> bool:
    return any(span.name.startswith("backends.") for span in stack)


def _mark_record_eval(span, stack):
    # An ideal evaluation outside any backend job is bookkeeping (the VQE
    # loop's true-energy record), not a quantum job.
    if not _in_backend(stack[:-1]):
        span.set(record=True)


class Instrumentation:
    """Installs and removes the span wrappers on the library's layers.

    Call :meth:`install` after ``repro`` is importable; every patched
    attribute is remembered and :meth:`remove` puts the original back.
    Nested calls of the same span name on one thread (a subclass method
    calling ``super()``, a Kalman backend's inner job) record only the
    outermost call.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name, observe=None, on_open=None, run_id_of=None):
        recorder = self.recorder

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = recorder.stack()
            if stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            run_id = run_id_of(args) if run_id_of is not None else None
            span = recorder.open(name, run_id)
            if on_open is not None:
                on_open(span, recorder.stack())
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(span)
            if observe is not None:
                observe(span, args, result)
            return result

        return traced

    def _set(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def method(self, cls, attr, name, **hooks) -> None:
        """Wrap ``attr`` on ``cls`` and every subclass defining its own."""
        for owner in _with_subclasses(cls):
            raw = owner.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, **hooks))
            else:
                wrapped = self._wrap(raw, name, **hooks)
            self._set(owner, attr, wrapped)

    def function(self, fn, name, modules, **hooks) -> None:
        """Wrap a module-level function wherever ``modules`` bound it."""
        wrapped = self._wrap(fn, name, **hooks)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    # -- the layer map ----------------------------------------------------------

    def install(self) -> "Instrumentation":
        from repro.backends.base import EnergyBackend, EnergyJob
        from repro.compiler.api import compile_plan
        from repro.core.controller import QismetController
        from repro.core.executor import GuardedEvaluator
        from repro.experiments.registry import AppConfig
        from repro.experiments.schemes import build_vqe
        from repro.fleet.scheduler import TransientAwareScheduler
        from repro.fleet.service import FleetService
        from repro.fleet.store import JobStore
        from repro.noise.noise_model import NoiseModel
        from repro.operators.pauli_sum import PauliSum
        from repro.optimizers.base import IterativeOptimizer
        from repro.runtime.execute import execute_run
        from repro.simulator.batched import BatchedStatevectorSimulator
        from repro.simulator.statevector import StatevectorSimulator
        from repro.store.store import ExperimentStore
        from repro.vqa.objective import EnergyObjective
        from repro.vqa.vqe import VQE

        repro_modules = [
            module for key, module in sys.modules.items()
            if module is not None and (key == "repro" or key.startswith("repro."))
        ]

        self.method(VQE, "run", "vqa.run")
        self.method(IterativeOptimizer, "propose", "optimizers.propose")
        self.method(QismetController, "decide", "core.decide", observe=_decision)
        self.method(GuardedEvaluator, "energy", "core.guarded_energy")
        self.method(EnergyJob, "energy", "backends.job_energy")
        self.method(EnergyBackend, "evaluate_jobs", "backends.evaluate_jobs", observe=_rows)
        self.method(EnergyObjective, "ideal_energy", "objective.ideal_energy", on_open=_mark_record_eval)
        self.method(EnergyObjective, "batch_energies", "objective.batch_energies", observe=_rows)
        self.method(StatevectorSimulator, "run_plan", "simulator.run_plan", observe=_run_plan_bytes)
        self.method(BatchedStatevectorSimulator, "run_flat", "simulator.run_flat", observe=_run_flat_bytes)
        self.method(PauliSum, "expectation", "operators.expectation")
        self.method(PauliSum, "batch_expectations", "operators.expectation")
        self.function(compile_plan, "compiler.compile", repro_modules)
        self.function(
            execute_run, "runtime.execute_run", repro_modules,
            run_id_of=lambda args: args[0].run_id,
        )
        for attr in ("build_hamiltonian", "build_ansatz", "build_trace", "build_device", "ground_truth_energy"):
            self.method(AppConfig, attr, "runtime.build")
        self.method(NoiseModel, "from_device", "runtime.build")
        self.function(build_vqe, "runtime.build", repro_modules)
        self.method(ExperimentStore, "append", "store.append")
        self.method(ExperimentStore, "append_many", "store.append")
        self.method(ExperimentStore, "record_plan", "store.append")
        self.method(ExperimentStore, "get", "store.get", observe=_store_get)
        for attr in ("comparisons", "aggregate", "query_runs"):
            self.method(ExperimentStore, attr, "store.query")
        self.method(FleetService, "submit", "fleet.submit")
        self.method(FleetService, "drain", "fleet.drain")
        self.method(TransientAwareScheduler, "route", "fleet.route", observe=_route)
        self.method(JobStore, "enqueue", "fleet.jobstore", observe=_jobstore("enqueue"))
        self.method(JobStore, "mark_running", "fleet.jobstore", observe=_jobstore("mark_running"))
        self.method(JobStore, "mark_done", "fleet.jobstore", observe=_jobstore("mark_done"))
        return self

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _with_subclasses(cls) -> List[type]:
    seen: List[type] = []
    pending = [cls]
    while pending:
        current = pending.pop()
        if current in seen:
            continue
        seen.append(current)
        pending.extend(current.__subclasses__())
    return seen


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """Self time of every span, keyed by ``id(span)``."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    out: Dict[int, float] = {}
    for span in spans:
        clipped = [
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(id(span), ())
            if child.end is not None and child.end > span.start and child.start < span.end
        ]
        out[id(span)] = span.duration - union_length(clipped)
    return out


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]); 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def layer_metrics(spans: Sequence[Span], wall: Tuple[float, float]) -> Dict[str, float]:
    """Per-layer metrics of one timed pass spanning ``wall = (start, end)``."""
    own = self_times(spans)
    by_name: Dict[str, List[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def named(name):
        return by_name.get(name, [])

    def calls(name):
        return float(len(named(name)))

    def busy(name):
        return sum(span.duration for span in named(name))

    def self_s(name):
        return sum(own[id(span)] for span in named(name))

    def attr_sum(name, key):
        return float(sum((span.attrs or {}).get(key, 0) for span in named(name)))

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    out: Dict[str, float] = {}
    decides = named("core.decide")
    first = [s for s in decides if s.attrs and s.attrs.get("first")]
    retries = [s for s in decides if s.attrs and s.attrs.get("outcome") == "RETRY"]
    gets = named("store.get")

    out["vqa.run.self_s"] = self_s("vqa.run")
    out["vqa.record_evals"] = float(
        sum(1 for s in named("objective.ideal_energy") if s.attrs and s.attrs.get("record"))
    )
    out["optimizers.propose.calls"] = calls("optimizers.propose")
    out["optimizers.propose.self_s"] = self_s("optimizers.propose")
    out["core.decide.calls"] = calls("core.decide")
    out["core.decide.self_s"] = self_s("core.decide")
    out["core.guarded_energy.calls"] = calls("core.guarded_energy")
    out["core.retry_ratio"] = ratio(len(retries), len(decides))
    out["core.skip_fraction"] = ratio(
        sum(1 for s in first if s.attrs.get("outcome") == "RETRY"), len(first)
    )
    out["core.forced_accepts"] = float(
        sum(1 for s in decides if s.attrs and s.attrs.get("outcome") == "FORCED_ACCEPT")
    )
    out["backends.job_energy.calls"] = calls("backends.job_energy")
    out["backends.job_energy.self_s"] = self_s("backends.job_energy")
    out["backends.evaluate_jobs.calls"] = calls("backends.evaluate_jobs")
    out["backends.evaluate_jobs.rows_per_call"] = ratio(
        attr_sum("backends.evaluate_jobs", "rows"), calls("backends.evaluate_jobs")
    )
    out["objective.ideal_energy.calls"] = calls("objective.ideal_energy")
    out["objective.ideal_energy.busy_s"] = busy("objective.ideal_energy")
    out["objective.batch_energies.calls"] = calls("objective.batch_energies")
    out["objective.batch_energies.rows_per_call"] = ratio(
        attr_sum("objective.batch_energies", "rows"), calls("objective.batch_energies")
    )
    out["objective.batch_energies.busy_s"] = busy("objective.batch_energies")
    out["simulator.run_plan.calls"] = calls("simulator.run_plan")
    out["simulator.run_flat.calls"] = calls("simulator.run_flat")
    out["simulator.run_flat.busy_s"] = busy("simulator.run_flat")
    out["simulator.bytes_per_eval"] = ratio(
        attr_sum("simulator.run_plan", "bytes") + attr_sum("simulator.run_flat", "bytes"),
        calls("simulator.run_plan") + attr_sum("simulator.run_flat", "rows"),
    )
    out["operators.expectation.busy_s"] = busy("operators.expectation")
    out["runtime.execute_run.calls"] = calls("runtime.execute_run")
    out["runtime.build.busy_s"] = busy("runtime.build")
    out["store.append.busy_s"] = busy("store.append")
    out["store.get.calls"] = float(len(gets))
    out["store.hit_ratio"] = ratio(sum(1 for s in gets if s.attrs and s.attrs.get("hit")), len(gets))
    out["store.query.busy_s"] = busy("store.query")
    out["fleet.route.calls"] = calls("fleet.route")
    out["fleet.deferrals"] = attr_sum("fleet.route", "deferrals")
    out["fleet.job_wait_s"] = _mean_job_wait(named("fleet.jobstore"))
    out["fleet.jobstore.busy_s"] = busy("fleet.jobstore")
    out["fleet.drain.self_s"] = self_s("fleet.drain")

    layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS.values()}
    covered = []
    for span in spans:
        layer = layer_of(span.name)
        if layer is None:
            continue
        layer_self[layer] += own[id(span)]
        covered.append((max(span.start, wall[0]), min(span.end, wall[1])))
    for layer, value in layer_self.items():
        out[f"layer.{layer}.self_s"] = value
    out["trace.coverage"] = ratio(union_length(covered), wall[1] - wall[0])
    return out


def _mean_job_wait(jobstore_spans: Sequence[Span]) -> float:
    """Mean enqueue -> mark_running wait per job that ran."""
    enqueued: Dict[str, float] = {}
    waits: List[float] = []
    for span in sorted(jobstore_spans, key=lambda s: s.start):
        if not span.attrs:
            continue
        job, method = span.attrs["job"], span.attrs["method"]
        if method == "enqueue":
            enqueued.setdefault(job, span.end)
        elif method == "mark_running" and job in enqueued:
            waits.append(span.start - enqueued.pop(job))
    return sum(waits) / len(waits) if waits else 0.0


def span_table(spans: Sequence[Span]) -> Dict[str, Dict[str, float]]:
    """Per-span-name calls, busy/self seconds and p50/p99 microseconds."""
    own = self_times(spans)
    table: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        row = table.setdefault(span.name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "durations": []})
        row["calls"] += 1
        row["busy_s"] += span.duration
        row["self_s"] += own[id(span)]
        row["durations"].append(span.duration * 1e6)
    for row in table.values():
        durations = row.pop("durations")
        row["p50_us"] = percentile(durations, 0.50)
        row["p99_us"] = percentile(durations, 0.99)
    return table


def spans_to_json(spans: Sequence[Span], origin: float = 0.0) -> List[Dict[str, Any]]:
    """Spans as JSON-able dicts; parents become list indices."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [
        {
            "name": span.name,
            "start": span.start - origin,
            "end": (span.end if span.end is not None else span.start) - origin,
            "parent": index.get(id(span.parent)) if span.parent is not None else None,
            "run_id": span.run_id,
            "thread": span.thread,
            **({"attrs": span.attrs} if span.attrs else {}),
        }
        for span in spans
    ]
