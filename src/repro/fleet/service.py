"""The fleet service: submit plans, schedule across devices, collect results.

:class:`FleetService` glues the subsystem together —

* the :class:`~repro.fleet.registry.DeviceFleet` (machines + shared
  simulated clock),
* the :class:`~repro.fleet.store.JobStore` (persistent, dedupes resubmitted
  specs by content-hash run id),
* the :class:`~repro.fleet.scheduler.TransientAwareScheduler` (routes jobs
  away from predicted transient windows, load-balances otherwise),
* a :class:`~repro.fleet.workers.WorkerPool` (one thread per device running
  the existing :func:`~repro.runtime.execute.execute_run` hot path),
* :class:`~repro.fleet.telemetry.FleetTelemetry` (per-device utilization /
  deferral / throughput counters).

Because every spec is fully seed-determined, *where* and *when* a job runs
changes only the telemetry — results are bit-identical to the serial
executor's, which is the invariant that makes fleet-scale execution safe
to switch on via ``REPRO_EXECUTOR=fleet``.

Dispatch model: the caller's thread runs the dispatch loop (`drain`),
placing queued jobs on devices and advancing the clock whenever the whole
fleet is inside transient windows; workers execute, re-check their
device's transient state at start (deferring back to the dispatcher while
the job still has budget), and advance the clock as jobs finish.
"""

from __future__ import annotations

import threading
import traceback
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.faults.inject import InjectedCrash
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.fleet.health import DeviceHealth, HealthConfig
from repro.fleet.registry import DeviceFleet, FleetDevice
from repro.fleet.scheduler import SchedulerConfig, TransientAwareScheduler
from repro.fleet.store import FAILED, RUNNING, JobStore
from repro.fleet.telemetry import FLEET_WIDE, FleetTelemetry
from repro.obs import METRICS, TRACER, monotonic
from repro.runtime.execute import execute_run
from repro.runtime.results import PlanResult, RunResult
from repro.runtime.spec import ExperimentPlan, RunSpec


class FleetJob:
    """In-memory handle for one queued spec during a drain."""

    __slots__ = ("spec", "run_id", "defers", "attempts", "tried")

    def __init__(self, spec: RunSpec, attempts: int = 0):
        self.spec = spec
        self.run_id = spec.run_id
        self.defers = 0
        self.attempts = attempts
        self.tried: List[str] = []


class FleetError(RuntimeError):
    """Raised when a drain finishes with failed jobs."""


class FleetService:
    """Transient-aware multi-device job scheduling over the fake fleet."""

    def __init__(
        self,
        machines: Optional[Sequence[str]] = None,
        db_path: Union[str, None] = None,
        seed: int = 2023,
        config: Optional[SchedulerConfig] = None,
        fleet: Optional[DeviceFleet] = None,
        execute: Callable[[RunSpec], RunResult] = execute_run,
        retry: Optional[RetryPolicy] = None,
        health: Optional[Union[DeviceHealth, HealthConfig]] = None,
    ):
        self.fleet = fleet or DeviceFleet(machines=machines, seed=seed)
        self.clock = self.fleet.clock
        self.store = JobStore(db_path if db_path else ":memory:")
        #: Jobs found stranded ``running`` by a crashed predecessor and
        #: requeued on open (crash recovery on shared stores).
        self.recovered = self.store.requeue_running()
        #: Uniform transient-failure policy for workers (jitter stream
        #: seeded by the fleet seed so backoff schedules reproduce).
        self.retry = retry if retry is not None else RetryPolicy.from_env(seed=seed)
        if isinstance(health, HealthConfig):
            health = DeviceHealth(health)
        self.health = health if health is not None else DeviceHealth()
        self.scheduler = TransientAwareScheduler(
            self.fleet, config=config, health=self.health
        )
        self.telemetry = FleetTelemetry()
        self.execute = execute
        self._pending: deque = deque()
        self._inflight = 0
        #: run_ids this service is currently responsible for (pending or
        #: in flight) — the guard against double-queueing one spec.
        self._active: set = set()
        self._wake = threading.Condition()
        self._closed = False
        #: telemetry counters already folded into the store's rollup.
        self._persisted_counters: Dict[str, Dict[str, int]] = {}
        self._persisted_span = 0
        #: run_ids that were satisfied straight from the store this session.
        self.store_hits = 0
        #: run_ids whose latest submission the store served (dedupe hits).
        self._served: set = set()
        #: the active drain's span; worker threads attach their job spans
        #: under it so the trace reassembles into one tree per drain.
        self._drain_span = None

    # -- lifecycle ----------------------------------------------------------

    def _persist_telemetry(self) -> None:
        """Fold telemetry deltas since the last persist into the store.

        Called at the end of every drain (and on close), so the rollup is
        queryable by ``python -m repro.fleet stats`` even for callers that
        never close the service explicitly (e.g. ``executor_for("fleet")``).
        """
        snapshot = self.telemetry.snapshot()
        delta: Dict[str, Dict[str, int]] = {}
        for device, counters in snapshot["devices"].items():
            previous = self._persisted_counters.get(device, {})
            changed = {
                key: value - previous.get(key, 0)
                for key, value in counters.items()
            }
            if any(changed.values()):
                delta[device] = changed
        first = self.telemetry.first_tick
        span = 0 if first is None else self.telemetry.last_tick - first + 1
        span_delta = span - self._persisted_span
        if delta or span_delta:
            self.store.accumulate_telemetry(
                {"devices": delta, "ticks_elapsed": span_delta}
            )
            self._persisted_counters = {
                device: dict(counters)
                for device, counters in snapshot["devices"].items()
            }
            self._persisted_span = span

    def close(self) -> None:
        """Persist any unflushed telemetry and close the store."""
        if self._closed:
            return
        self._closed = True
        self._persist_telemetry()
        self.store.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- submission ---------------------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> List[str]:
        """Enqueue specs (deduping against the store); returns run ids.

        Specs whose run id is already ``done`` in the store are counted as
        store hits and not re-executed; duplicates within ``specs`` — or
        resubmissions of a spec this service is already running — attach
        to the single queued job instead of executing twice.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        run_ids: List[str] = []
        tick = self.clock.now()
        for spec in specs:
            run_ids.append(spec.run_id)
            with self._wake:
                if spec.run_id in self._active:
                    continue
            record = call_with_retry(
                lambda spec=spec: self.store.enqueue(spec, tick=tick),
                policy=self.retry,
                label=spec.run_id,
            )
            if record.is_done:
                self.store_hits += 1
                self._served.add(spec.run_id)
                self.telemetry.record_cache_hit(spec.run_id, tick)
                continue
            self._served.discard(spec.run_id)
            with self._wake:
                if spec.run_id in self._active:  # raced with another submit
                    continue
                self._active.add(spec.run_id)
                self._pending.append(FleetJob(spec, attempts=record.attempts))
                self._wake.notify_all()
        return run_ids

    # -- dispatch loop ------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> None:
        """Run the dispatch loop until every submitted job is done/failed.

        ``timeout`` (wall-clock seconds) guards against a wedged fleet;
        ``None`` waits indefinitely. On timeout, still-pending and
        still-running jobs are marked ``failed`` with a ``timeout``
        detail (resubmitting them re-queues cleanly) before the
        ``TimeoutError`` propagates — a timed-out drain never strands
        rows in ``running``. Worker threads live only for the duration
        of the drain, and the telemetry rollup is persisted when it
        ends — repeated drains on one service neither leak threads nor
        lose counters.
        """
        from repro.fleet.workers import WorkerPool

        if self._closed:
            raise RuntimeError("service is closed")
        with self._wake:
            idle = not self._pending and self._inflight == 0
        if idle:  # all-hit submission: no threads to spin up
            self._persist_telemetry()
            return
        self._warm_plan_cache()
        pool = WorkerPool(self.fleet, self._run_on_device)
        pool.start()
        deadline = None if timeout is None else monotonic() + timeout
        with self._wake:
            queued = len(self._pending)
        span = TRACER.span("fleet.drain", category="fleet", queued=queued)
        try:
            with span:
                self._drain_span = span
                while True:
                    with self._wake:
                        if not self._pending and self._inflight == 0:
                            return
                        job = (
                            self._pending.popleft() if self._pending else None
                        )
                    if job is None:
                        with self._wake:
                            if self._pending or self._inflight == 0:
                                continue
                            self._wake.wait(timeout=0.05)
                        _check_deadline(deadline)
                        continue
                    self._dispatch(pool, job)
                    _check_deadline(deadline)
        except TimeoutError:
            self._abort_drain(timeout)
            raise
        finally:
            self._drain_span = None
            pool.stop()
            self._persist_telemetry()

    def _abort_drain(self, timeout: Optional[float]) -> None:
        """Timeout cleanup: fail whatever the drain will not finish.

        Pending jobs are failed outright; rows still ``running`` are
        failed too, but a worker that completes after this sweep wins —
        ``mark_done`` is idempotent and allowed from ``failed``, so a
        straggler's success overwrites the timeout verdict rather than
        colliding with it. ``_inflight`` is deliberately untouched: the
        workers' own ``finally`` blocks decrement it.
        """
        detail = f"timeout: drain exceeded {timeout}s"
        tick = self.clock.now()
        with self._wake:
            stranded = list(self._pending)
            self._pending.clear()
            for job in stranded:
                self._active.discard(job.run_id)
        for job in stranded:
            self.store.mark_failed(job.run_id, detail, tick)
            self.telemetry.record_failed(
                FLEET_WIDE, job.run_id, tick, detail=detail
            )
        for run_id in self.store.run_ids(status=RUNNING):
            self.store.mark_failed(run_id, detail, tick)
            self.telemetry.record_failed(
                FLEET_WIDE, run_id, tick, detail=detail
            )

    def _warm_plan_cache(self) -> None:
        """Compile each pending app's ansatz once before workers start.

        Worker threads all compile through the shared
        :data:`repro.compiler.PLAN_CACHE`; warming it here means the
        per-device threads only ever *bind* parameters against cached
        plans (see :func:`repro.runtime.execute.warm_plan_cache`).
        """
        from repro.runtime.execute import warm_plan_cache

        warmed = set()
        with self._wake:
            jobs = list(self._pending)
        for job in jobs:
            name = job.spec.app_name
            if name in warmed:
                continue
            warmed.add(name)
            try:
                warm_plan_cache(job.spec)
            # repro: allow-swallow — warm-up is best effort; workers compile
            except Exception:  # pragma: no cover
                pass

    def _dispatch(self, pool, job: FleetJob) -> None:
        tick = self.clock.now()
        force = job.defers >= self.scheduler.config.defer_budget
        with TRACER.span(
            "fleet.dispatch",
            category="fleet",
            run_id=job.run_id,
            tick=tick,
            force=force,
        ) as span:
            decision = self.scheduler.route(
                job.spec, tick, exclude=job.tried, force=force
            )
            span.set(
                placed=decision.placed,
                device=decision.device.name if decision.placed else None,
                deferred_from=len(decision.deferred_from),
            )
        for verdict in decision.deferred_from:
            self.telemetry.record_deferred(
                verdict.device,
                job.run_id,
                tick,
                detail=(
                    f"predicted={verdict.predicted:.3f}"
                    f" cfar={verdict.cfar_flag}"
                ),
            )
            if self.health.record_transient(verdict.device, tick):
                self.telemetry.record_quarantined(
                    verdict.device, tick, detail="consecutive transients"
                )
        if not decision.placed:
            # Whole fleet inside transient windows: QISMET-style deferral.
            job.defers += 1
            job.tried.clear()
            self.store.record_defer(job.run_id)
            self.telemetry.record_deferred(
                FLEET_WIDE, job.run_id, tick, detail="all devices transient"
            )
            self.clock.advance()  # let the window pass
            with self._wake:
                self._pending.append(job)
            return
        if decision.deferred_from:
            job.defers += len(decision.deferred_from)
            self.store.record_defer(
                job.run_id, count=len(decision.deferred_from)
            )
        device = decision.device
        device.reserve()
        with self._wake:
            self._inflight += 1
        pool.submit(device.name, job)

    # -- worker-side execution ----------------------------------------------

    def _run_on_device(self, device: FleetDevice, job: FleetJob) -> None:
        """Execute (or re-defer) one job on ``device``; worker-thread code.

        Structured so that *no* exception escapes into the worker loop: a
        retryable failure in the execute hook re-queues the job (with
        backoff on the simulated clock) until the retry budget runs out,
        any other failure fails the job; a failure in the harness itself
        (store I/O, telemetry) also fails the job rather than killing the
        device's worker thread and wedging the drain. An
        :class:`InjectedCrash` simulates process death: the job's store
        row is left exactly as the "dying" transition left it, which is
        what the resume path recovers from.
        """
        with TRACER.attach(self._drain_span), TRACER.span(
            "fleet.job",
            category="fleet",
            run_id=job.run_id,
            device=device.name,
        ) as span:
            self._execute_on_device(device, job, span)

    def _execute_on_device(self, device: FleetDevice, job: FleetJob, span) -> None:
        """Exception-isolating body of :meth:`_run_on_device`."""
        requeue = False
        finished = False
        try:
            tick = self.clock.now()
            if (
                job.defers < self.scheduler.config.defer_budget
                and self.scheduler.in_transient_window(device, tick)
            ):
                # The device entered a transient window between routing and
                # execution: hand the job back for rerouting.
                job.defers += 1
                job.tried.append(device.name)
                self.store.record_defer(job.run_id)
                self.telemetry.record_deferred(
                    device.name, job.run_id, tick, detail="pre-run re-check"
                )
                span.set(outcome="deferred")
                requeue = True
                return
            self.store.mark_running(job.run_id, device.name, tick)
            self.telemetry.record_scheduled(device.name, job.run_id, tick)
            try:
                result = self.execute(job.spec)
            except InjectedCrash:
                raise  # simulated process death — never absorbed here
            except Exception as exc:  # job isolation boundary
                detail = "".join(
                    traceback.format_exception_only(type(exc), exc)
                ).strip()
                if (
                    self.retry.is_retryable(exc)
                    and job.attempts + 1 < self.retry.max_attempts
                ):
                    # Transient failure with budget left: back off on the
                    # simulated clock and hand the job back for rerouting.
                    job.attempts = self.store.record_retry(
                        job.run_id, detail, self.clock.now()
                    )
                    job.tried.append(device.name)
                    METRICS.counter("retry.attempts").inc()
                    self.telemetry.record_retried(
                        device.name,
                        job.run_id,
                        self.clock.now(),
                        detail=detail,
                    )
                    self.clock.advance(
                        self.retry.backoff_ticks(job.run_id, job.attempts)
                    )
                    span.set(outcome="retried", attempts=job.attempts)
                    requeue = True
                    return
                if self.retry.is_retryable(exc):
                    METRICS.counter("retry.gave_up").inc()
                self.store.mark_failed(job.run_id, detail, self.clock.now())
                self.telemetry.record_failed(
                    device.name, job.run_id, self.clock.now(), detail=detail
                )
                if self.health.record_failure(device.name, self.clock.now()):
                    self.telemetry.record_quarantined(
                        device.name,
                        self.clock.now(),
                        detail="consecutive failures",
                    )
                span.set(outcome="failed")
            else:
                self.store.mark_done(job.run_id, result, self.clock.now())
                self.telemetry.record_completed(
                    device.name, job.run_id, self.clock.now()
                )
                self.health.record_success(device.name)
                span.set(outcome="completed")
            finished = True
        except InjectedCrash:
            # Simulated process death before a commit: the store row stays
            # exactly where the crash left it (``running`` or ``queued``)
            # and is recovered by the next service's ``requeue_running`` /
            # ``drain --resume``. Only in-memory bookkeeping is released
            # so the surviving drain can terminate.
            span.set(outcome="crashed")
            finished = True
        except Exception as exc:  # harness failure: fail the job, not the worker
            detail = f"fleet internal error on {device.name}: {exc!r}"
            try:
                self.store.mark_failed(job.run_id, detail, self.clock.now())
            # repro: allow-swallow — store down; telemetry still records it
            except Exception:
                pass
            self.telemetry.record_failed(
                device.name, job.run_id, self.clock.now(), detail=detail
            )
            span.set(outcome="error")
            finished = True
        finally:
            try:
                device.release()
            except RuntimeError:  # pragma: no cover — depth already zero
                pass
            self.clock.advance()
            with self._wake:
                self._inflight -= 1
                if requeue:
                    self._pending.append(job)
                elif finished:
                    self._active.discard(job.run_id)
                self._wake.notify_all()

    # -- high-level entry points --------------------------------------------

    def run_specs(
        self, specs: Sequence[RunSpec], timeout: Optional[float] = None
    ) -> List[RunResult]:
        """Submit + drain + collect, preserving input order.

        Results that :meth:`submit` served from the store (dedupe hits)
        come back with ``from_cache=True`` and zero elapsed time,
        mirroring :class:`~repro.runtime.executors.CachedExecutor`
        semantics; a ``done`` row that self-healed ran again and is not
        a hit. Raises :class:`FleetError` if any job failed.
        """
        specs = list(specs)
        submitted = {spec.run_id for spec in specs}
        self.submit(specs)
        self.drain(timeout=timeout)
        # Only *this* submission's failures matter — a shared store may
        # hold failed jobs from unrelated plans.
        failed = [
            record
            for record in self.store.jobs(status=FAILED)
            if record.run_id in submitted
        ]
        if failed:
            details = "; ".join(
                f"{record.run_id}: {record.error}" for record in failed[:5]
            )
            raise FleetError(
                f"{len(failed)} fleet job(s) failed ({details})"
            )
        results: List[RunResult] = []
        cache: Dict[str, RunResult] = {}
        for spec in specs:
            if spec.run_id not in cache:
                result = self.store.result(spec.run_id)
                if result is None:  # pragma: no cover — drain guarantees done
                    raise FleetError(f"job {spec.run_id} has no stored result")
                if spec.run_id in self._served:
                    result.from_cache = True
                    result.elapsed_s = 0.0
                cache[spec.run_id] = result
            results.append(cache[spec.run_id])
        return results

    def run_plan(
        self, plan: ExperimentPlan, timeout: Optional[float] = None
    ) -> PlanResult:
        return PlanResult(
            runs=self.run_specs(plan.expand(), timeout=timeout),
            plan=plan.to_dict(),
        )

    # -- introspection -------------------------------------------------------

    def status(self) -> Dict[str, Any]:
        """Store counts + live telemetry in one JSON-able dict."""
        return {
            "counts": self.store.counts(),
            "clock": self.clock.now(),
            "telemetry": self.telemetry.snapshot(),
        }


def _check_deadline(deadline: Optional[float]) -> None:
    if deadline is not None and monotonic() > deadline:
        raise TimeoutError("fleet drain exceeded its timeout")
