"""The fleet service: submit plans, schedule across devices, collect results.

:class:`FleetService` glues the subsystem together —

* the :class:`~repro.fleet.registry.DeviceFleet` (machines + shared
  simulated clock),
* the :class:`~repro.fleet.store.JobStore` (persistent, dedupes resubmitted
  specs by content-hash run id),
* the :class:`~repro.fleet.scheduler.TransientAwareScheduler` (routes jobs
  away from predicted transient windows, load-balances otherwise),
* the existing :func:`~repro.runtime.execute.execute_run` hot path, run
  inline by the drain loop, one job at a time.

Every decision the service makes — a job placed, deferred, retried,
failed or served from the store, a device quarantined — is a row in the
store's journal, and :meth:`FleetService.telemetry` counts the rows of
the service's own journal session into per-device utilization, deferral
and throughput counters.

Because every spec is fully seed-determined, *where* and *when* a job runs
changes only those counters — results are bit-identical to the serial
executor's, which is the invariant that makes fleet-scale execution safe
to switch on via ``REPRO_EXECUTOR=fleet``.

Dispatch model: one thread, the caller's, drives a service, and
:meth:`FleetService.drain` runs every job inline in an order that is a
pure function of its state, so the journal (and every counter counted
from it) is as seed-determined as the results. Several services may
share one store file, each driven from its own thread or process.
"""

from __future__ import annotations

import traceback
from collections import deque
from typing import (
    Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union,
)

from repro.faults.inject import InjectedCrash
from repro.faults.retry import RetryPolicy, call_with_retry
from repro.fleet.health import DeviceHealth, HealthConfig
from repro.fleet.registry import DeviceFleet, FleetDevice
from repro.fleet.scheduler import SchedulerConfig, TransientAwareScheduler
from repro.fleet.store import FAILED, FLEET_WIDE, JobStore
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
        #: Uniform transient-failure policy for jobs (jitter stream
        #: seeded by the fleet seed so backoff schedules reproduce).
        self.retry = retry if retry is not None else RetryPolicy.from_env(seed=seed)
        if isinstance(health, HealthConfig):
            health = DeviceHealth(health)
        self.health = health if health is not None else DeviceHealth()
        self.scheduler = TransientAwareScheduler(
            self.fleet, config=config, health=self.health
        )
        self.execute = execute
        #: Jobs waiting to be routed onto a device queue.
        self._pending: Deque[FleetJob] = deque()
        #: run_ids this service is currently responsible for (pending or
        #: queued on a device) — the guard against double-queueing one spec.
        self._active: set = set()
        self._closed = False
        #: run_ids that were satisfied straight from the store this session.
        self.store_hits = 0
        #: run_ids whose latest submission the store served (dedupe hits).
        self._served: set = set()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the store."""
        if self._closed:
            return
        self._closed = True
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
        hits: List[str] = []
        tick = self.clock.now()
        for spec in specs:
            run_ids.append(spec.run_id)
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
                hits.append(spec.run_id)
                continue
            self._served.discard(spec.run_id)
            self._active.add(spec.run_id)
            self._pending.append(FleetJob(spec, attempts=record.attempts))
        if hits:
            self.store.record_hits(hits, tick)
        return run_ids

    # -- dispatch loop ------------------------------------------------------

    def drain(self, timeout: Optional[float] = None) -> None:
        """Run every submitted job to ``done``/``failed`` on this thread.

        Each round routes the pending jobs onto per-device queues
        (reserving queue depth), then runs one job inline: the head of
        the queue of the device due first, the smallest ``(free_at,
        device name)``, where ``free_at`` is the clock tick after that
        device's last job. What the job hands back (pre-run re-check,
        retry) is routed in the next round.

        ``timeout`` (wall-clock seconds; ``None`` waits indefinitely) is
        checked between jobs: a job already executing is not
        interrupted. On expiry every job not yet started is marked
        ``failed`` with a ``timeout`` detail (resubmitting re-queues it)
        and ``TimeoutError`` is raised, leaving no row ``running``.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        if not self._pending:  # all-hit submission: nothing to run
            return
        deadline = None if timeout is None else monotonic() + timeout
        queues: Dict[str, Deque[FleetJob]] = {n: deque() for n in self.fleet.names()}
        free_at = dict.fromkeys(queues, 0)
        with TRACER.span("fleet.drain", category="fleet", queued=len(self._pending)):
            try:
                while self._pending or any(queues.values()):
                    if deadline is not None and monotonic() > deadline:
                        break
                    while self._pending:
                        job = self._pending.popleft()
                        device = self._dispatch(job)
                        if device is not None:
                            queues[device.name].append(job)
                    name = min(
                        (name for name, queue in queues.items() if queue),
                        key=lambda name: (free_at[name], name),
                    )
                    self._execute_on_device(
                        self.fleet.device(name), queues[name].popleft()
                    )
                    free_at[name] = self.clock.now()
            finally:
                # Jobs not yet started go back to pending with their depth
                # released, so an interrupted drain loses none of them.
                for name, queue in queues.items():
                    for _ in queue:
                        self.fleet.device(name).release()
                    self._pending.extend(queue)
        if self._pending:  # the deadline passed first
            self._abort_drain(timeout)
            raise TimeoutError("fleet drain exceeded its timeout")

    def _abort_drain(self, timeout: Optional[float]) -> None:
        """Timeout cleanup: fail every job the drain has not started.

        Jobs run inline, so none is in flight: the pending jobs are all
        that is left, and each is marked ``failed``.
        """
        detail = f"timeout: drain exceeded {timeout}s"
        tick = self.clock.now()
        while self._pending:
            job = self._pending.popleft()
            self._active.discard(job.run_id)
            self.store.mark_failed(job.run_id, detail, tick)

    def _dispatch(self, job: FleetJob) -> Optional[FleetDevice]:
        """Route one job: reserve its device and return it, or defer it.

        A job the whole fleet defers goes back to the pending queue after
        the clock advances a tick, and ``None`` is returned.
        """
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
        deferrals: List[Tuple[Optional[str], str]] = [
            (v.device, f"predicted={v.predicted:.3f} cfar={v.cfar_flag}")
            for v in decision.deferred_from
        ]
        if not decision.placed:
            # Whole fleet inside transient windows: QISMET-style deferral.
            deferrals.append((None, "all devices transient"))
        if deferrals:
            spent = len(decision.deferred_from) if decision.placed else 1
            job.defers += spent
            self.store.record_defer(
                job.run_id, spent, deferrals=deferrals, tick=tick
            )
        for verdict in decision.deferred_from:
            if self.health.record_transient(verdict.device, tick):
                self.store.record_quarantine(
                    job.run_id, verdict.device, tick, "consecutive transients"
                )
        if not decision.placed:
            job.tried.clear()
            self.clock.advance()  # let the window pass
            self._pending.append(job)
            return None
        decision.device.reserve()
        return decision.device

    # -- execution ----------------------------------------------------------

    def _execute_on_device(self, device: FleetDevice, job: FleetJob) -> None:
        """Execute (or re-defer) one job on ``device``, in a ``fleet.job`` span.

        Structured so that *no* exception escapes into the drain loop: a
        retryable failure in the execute hook re-queues the job (with
        backoff on the simulated clock) until the retry budget runs out,
        any other failure fails the job; a failure in the harness itself
        (store I/O, a transient check) also fails the job rather than
        ending the drain. An :class:`InjectedCrash` simulates process
        death: the job's store row is left exactly as the "dying"
        transition left it, which is what the resume path recovers from.
        """
        with TRACER.span(
            "fleet.job", category="fleet", run_id=job.run_id, device=device.name
        ) as span:
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
                    self.store.record_defer(
                        job.run_id,
                        deferrals=[(device.name, "pre-run re-check")],
                        tick=tick,
                    )
                    span.set(outcome="deferred")
                    requeue = True
                    return
                self.store.mark_running(job.run_id, device.name, tick)
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
                        self.clock.advance(
                            self.retry.backoff_ticks(job.run_id, job.attempts)
                        )
                        span.set(outcome="retried", attempts=job.attempts)
                        requeue = True
                        return
                    if self.retry.is_retryable(exc):
                        METRICS.counter("retry.gave_up").inc()
                    self.store.mark_failed(job.run_id, detail, self.clock.now())
                    if self.health.record_failure(device.name, self.clock.now()):
                        self.store.record_quarantine(
                            job.run_id,
                            device.name,
                            self.clock.now(),
                            "consecutive failures",
                        )
                    span.set(outcome="failed")
                else:
                    self.store.mark_done(
                        job.run_id, result, self.clock.now(), device=device.name
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
            except Exception as exc:  # harness failure: fail the job, not the drain
                detail = f"fleet internal error on {device.name}: {exc!r}"
                try:
                    self.store.mark_failed(
                        job.run_id, detail, self.clock.now(), device=device.name
                    )
                # repro: allow-swallow — store down: nothing can record it
                except Exception:
                    pass
                span.set(outcome="error")
                finished = True
            finally:
                try:
                    device.release()
                except RuntimeError:  # pragma: no cover — depth already zero
                    pass
                self.clock.advance()
                if requeue:
                    self._pending.append(job)
                elif finished:
                    self._active.discard(job.run_id)

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

    def telemetry(self) -> Dict[str, Any]:
        """This service's counters, from its own journal session.

        Per-device ``scheduled``/``completed``/``failed``/``deferred``/
        ``cache_hits``/``retries``/``quarantines`` (see
        :meth:`JobStore.telemetry`), the number of real devices that
        completed a job, total deferrals and completions, and completed
        jobs per tick over the session's span. It reads the store, so
        call it before :meth:`close`.
        """
        rollup = self.store.telemetry(own=True)
        devices = rollup["devices"]
        completed = {
            name: counters["completed"]
            for name, counters in devices.items()
            if name != FLEET_WIDE
        }
        total = sum(completed.values())
        return {
            "devices": devices,
            "devices_used": sum(1 for n in completed.values() if n),
            "total_deferrals": sum(c["deferred"] for c in devices.values()),
            "total_completed": total,
            "throughput_jobs_per_tick": (
                total / rollup["ticks"] if rollup["ticks"] else 0.0
            ),
        }
