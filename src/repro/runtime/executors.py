"""Pluggable executors: how a plan's runs actually get executed.

All executors consume :class:`~repro.runtime.spec.RunSpec` sequences and
return :class:`~repro.runtime.results.RunResult` lists in input order;
because every spec is fully seed-determined (see
:mod:`repro.runtime.execute`), the choice of executor changes wall-clock
time only, never results.

* :class:`SerialExecutor` — one run after another in this process.
* :class:`ParallelExecutor` — fan-out across worker processes with
  :class:`concurrent.futures.ProcessPoolExecutor`; results cross the
  process boundary via the result layer's serialization.
* :class:`CachedExecutor` — wraps another executor with the experiment
  store (:mod:`repro.store`) keyed by each spec's content-hash
  ``run_id``, so repeated figure builds only pay for specs they have
  never seen.
* ``repro.fleet.FleetExecutor`` (selected via ``REPRO_EXECUTOR=fleet``)
  — schedules runs across the simulated IBMQ device fleet with
  transient-aware routing and a persistent job store
  (``REPRO_FLEET_DB``); results remain bit-identical.

:func:`executor_for` is the one place ``REPRO_EXECUTOR``/
``REPRO_JOBS``/``REPRO_STORE``/``REPRO_FLEET_DB`` resolution lives, so
existing entry points gain parallelism, caching and fleet scheduling
without signature changes.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import List, Optional, Protocol, Sequence, Union, runtime_checkable

from repro.faults.retry import DEFAULT_RETRYABLE, call_with_retry
from repro.obs import METRICS, TRACER
from repro.runtime.execute import execute_run
from repro.runtime.results import PlanResult, RunResult
from repro.runtime.spec import ExperimentPlan, RunSpec
from repro.store.store import STORE_ENV, ExperimentStore


@runtime_checkable
class Executor(Protocol):
    """Anything that can turn specs into results."""

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        ...


class BaseExecutor:
    """Shared plumbing: plan expansion and the ``run_plan`` entry point."""

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        raise NotImplementedError

    def run_plan(self, plan: ExperimentPlan) -> PlanResult:
        with TRACER.span(
            "job.run_plan", category="job",
            plan=plan.name, runs=len(plan), executor=type(self).__name__,
        ):
            return PlanResult(runs=self.run(plan.expand()), plan=plan.to_dict())

    def run_one(self, spec: RunSpec) -> RunResult:
        return self.run([spec])[0]


class SerialExecutor(BaseExecutor):
    """Execute runs one after another in the calling process."""

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        return [execute_run(spec) for spec in specs]


class ParallelExecutor(BaseExecutor):
    """Fan runs out across a process pool.

    ``max_workers=None`` uses one worker per CPU. Specs are distributed
    with ``ProcessPoolExecutor.map`` (``chunksize`` specs per task), and
    results come back in input order. Single-spec batches skip the pool
    entirely — no point paying process startup for one run.
    """

    def __init__(self, max_workers: Optional[int] = None, chunksize: int = 1):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be >= 1 (or None)")
        if chunksize < 1:
            raise ValueError("chunksize must be >= 1")
        self.max_workers = max_workers
        self.chunksize = chunksize

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        specs = list(specs)
        if len(specs) <= 1:
            return [execute_run(spec) for spec in specs]
        workers = self.max_workers or os.cpu_count() or 1
        workers = min(workers, len(specs))
        # Worker processes trace into their own (discarded) tracers; the
        # parent records the fan-out as one span so job wall time still
        # has an owner.  Results are unaffected either way.
        with TRACER.span(
            "executor.parallel.fanout", category="execute",
            runs=len(specs), workers=workers,
        ):
            with ProcessPoolExecutor(max_workers=workers) as pool:
                return list(
                    pool.map(execute_run, specs, chunksize=self.chunksize)
                )


class CachedExecutor(BaseExecutor):
    """Experiment-store cache wrapper around another executor.

    Results persist in an :class:`~repro.store.ExperimentStore` keyed by
    each spec's content-hash ``run_id``. The first argument is either an
    open store (shared with the caller, not closed by this executor) or
    a path: a ``.sqlite``/``.db`` file (a fleet database included), or a
    directory that holds ``store.sqlite``. A stored entry whose embedded
    spec does not match the requested spec (hash collision or a stale
    schema) is treated as a miss and overwritten.
    """

    def __init__(
        self,
        store: Union[str, Path, ExperimentStore],
        inner: Optional[BaseExecutor] = None,
    ):
        self._owns_store = not isinstance(store, ExperimentStore)
        self.store = ExperimentStore(store) if self._owns_store else store
        self.inner = inner if inner is not None else SerialExecutor()
        self.hits = 0
        self.misses = 0

    def close(self) -> None:
        if self._owns_store:
            self.store.close()

    def _load(self, spec: RunSpec) -> Optional[RunResult]:
        try:
            # Store reads retry transient I/O failures (same policy shape
            # the fleet uses), then degrade to a miss: the inner
            # executor re-derives bit-identical bytes from the spec.
            cached = call_with_retry(
                lambda: self.store.get(spec.run_id), label=spec.run_id
            )
        except DEFAULT_RETRYABLE:
            METRICS.counter("cache.store.faults").inc()
            cached = None
        if cached is None or cached.spec != spec:
            return None
        cached.from_cache = True
        cached.elapsed_s = 0.0
        return cached

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        specs = list(specs)
        out: List[Optional[RunResult]] = []
        missing: List[int] = []
        with TRACER.span(
            "store.cache_lookup", category="store", runs=len(specs)
        ):
            for index, spec in enumerate(specs):
                cached = self._load(spec)
                out.append(cached)
                if cached is None:
                    missing.append(index)
        hits = len(specs) - len(missing)
        self.hits += hits
        self.misses += len(missing)
        METRICS.counter("cache.store.hits").inc(hits)
        METRICS.counter("cache.store.misses").inc(len(missing))
        if missing:
            fresh = self.inner.run([specs[i] for i in missing])
            for index, run in zip(missing, fresh):
                self.store.append(run)
                out[index] = run
        return [run for run in out if run is not None]


def executor_for(
    kind: Optional[str] = None,
    *,
    store: Optional[Union[str, Path, ExperimentStore]] = None,
    max_workers: Optional[int] = None,
) -> BaseExecutor:
    """The one place executor construction and env resolution live.

    ``kind`` is ``'serial'``/``'parallel'``/``'fleet'`` (default: the
    ``REPRO_EXECUTOR`` knob; ``REPRO_JOBS`` caps parallel workers unless
    ``max_workers`` is given; ``REPRO_FLEET_DB``/``REPRO_FLEET_MACHINES``
    shape the fleet). When the ``store`` argument, or else
    ``REPRO_STORE``, names a store, the executor is wrapped in a
    store-backed :class:`CachedExecutor`.
    """
    kind = (
        kind if kind is not None else os.environ.get("REPRO_EXECUTOR", "serial")
    ).strip().lower()
    if kind in ("parallel", "process", "processes"):
        if max_workers is None:
            jobs = os.environ.get("REPRO_JOBS", "").strip()
            max_workers = int(jobs) if jobs else None
        inner: BaseExecutor = ParallelExecutor(max_workers=max_workers)
    elif kind == "fleet":
        # Local import: repro.fleet builds on this module.
        from repro.fleet.executor import fleet_executor_from_env

        inner = fleet_executor_from_env()
    elif kind in ("", "serial"):
        inner = SerialExecutor()
    else:
        raise ValueError(
            f"unknown REPRO_EXECUTOR {kind!r}; "
            "use 'serial', 'parallel' or 'fleet'"
        )
    if store is None:
        store = os.environ.get(STORE_ENV, "").strip() or None
    if store is not None:
        return CachedExecutor(store, inner=inner)
    return inner


def run_plan(
    plan: ExperimentPlan, executor: Optional[BaseExecutor] = None
) -> PlanResult:
    """Execute a plan on ``executor`` (default: environment-selected)."""
    return (executor or executor_for()).run_plan(plan)
