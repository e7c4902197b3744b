"""Persistent job table keyed by ``RunSpec`` content hash.

Jobs move through ``queued -> running -> done | failed``; a failed job is
re-queued on resubmission, a done job is a **dedupe hit** — resubmitting
the same spec returns the stored result without re-executing anything
(the spec's seed-determinism guarantees the stored payload is exactly
what a fresh run would produce).

The ``jobs`` and ``telemetry`` tables belong to the experiment store's
versioned schema (:mod:`repro.store.schema`), so a fleet database *is*
an :class:`~repro.store.ExperimentStore`, opened here as
:attr:`JobStore.results`. The job table owns lifecycle only: a done
job's payload is an ordinary store run — queryable, deduped, exportable
with ``python -m repro.store`` pointed at the fleet db, and served as a
hit by a ``CachedExecutor`` on the same file. All timestamps are
fleet-clock ticks, keeping the store's contents reproducible
run-over-run.

Crash safety: every transition and its journal event run as one
:meth:`~repro.store.ExperimentStore.transaction` (one commit; a failed
statement rolls back, so it never leaves the file's write lock held for
other connections). ``mark_done`` commits the result payload *before*
flipping the row's status (so a crash between the two leaves a
re-runnable ``running`` row whose re-execution dedupes against the
stored payload), and ``mark_done``/``mark_failed`` are idempotent so a
resumed drain and a straggling worker cannot corrupt each other's
state. Several stores may open the same database file: inserts tolerate
a concurrent writer's row. Named fault sites (``jobstore.enqueue``,
``jobstore.mark_running``, ``jobstore.mark_done``,
``jobstore.mark_done.commit``) let the chaos suite drive exactly these
windows.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.faults.inject import INJECTOR
from repro.runtime.results import RunResult
from repro.runtime.spec import RunSpec
from repro.store.schema import FLEET_TICKS_KEY
from repro.store.store import ExperimentStore

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATUSES = (QUEUED, RUNNING, DONE, FAILED)

@dataclass
class JobRecord:
    """One row of the job table, spec-decoded."""

    run_id: str
    spec: RunSpec
    status: str
    device: Optional[str] = None
    defers: int = 0
    attempts: int = 0
    error: Optional[str] = None
    submitted_tick: int = 0
    started_tick: Optional[int] = None
    finished_tick: Optional[int] = None

    @property
    def is_done(self) -> bool:
        return self.status == DONE

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "spec": self.spec.to_dict(),
            "status": self.status,
            "device": self.device,
            "defers": self.defers,
            "attempts": self.attempts,
            "error": self.error,
            "submitted_tick": self.submitted_tick,
            "started_tick": self.started_tick,
            "finished_tick": self.finished_tick,
        }


class JobStore:
    """Job table + telemetry rollup, kept in one experiment store.

    ``path=":memory:"`` gives an ephemeral per-service store; a file path
    makes jobs (and their results) survive across processes, which is what
    lets a resubmitted plan dedupe against last week's run.
    """

    def __init__(self, path: Union[str, Path] = ":memory:"):
        self.results = ExperimentStore(path)
        self.path = self.results.path

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        self.results.close()

    def __enter__(self) -> "JobStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- job transitions ----------------------------------------------------

    def enqueue(self, spec: RunSpec, tick: int = 0) -> JobRecord:
        """Submit a spec; returns the (possibly pre-existing) record.

        * unknown spec — inserted as ``queued``;
        * ``done`` with an intact payload — returned as-is (dedupe hit);
        * ``done`` whose payload is missing or corrupt — **self-healed**:
          re-queued so the deterministic workload regenerates the bytes;
        * ``failed`` — re-queued with the error cleared;
        * ``queued``/``running`` — returned as-is (attach to in-flight job).
        """
        INJECTOR.fire("jobstore.enqueue", run_id=spec.run_id)
        with self.results.transaction() as conn:
            # Another store on the same file may insert the row between a
            # read and this write, so the insert itself decides.
            inserted = conn.execute(
                "INSERT INTO jobs (run_id, spec, status, submitted_tick)"
                " VALUES (?, ?, ?, ?) ON CONFLICT(run_id) DO NOTHING",
                (spec.run_id, json.dumps(spec.to_dict()), QUEUED, tick),
            ).rowcount
            if inserted:
                self.results.journal_append("enqueue", spec.run_id, tick=tick)
                return JobRecord(spec.run_id, spec, QUEUED, submitted_tick=tick)
            existing = _fetch(conn, spec.run_id)
            if existing.status == DONE and self.results.get(spec.run_id) is None:
                event = "heal"
            elif existing.status == FAILED:
                event = "requeue"
            else:
                return existing
            conn.execute(
                "UPDATE jobs SET status=?, error=NULL, device=NULL,"
                " defers=0, started_tick=NULL, finished_tick=NULL,"
                " submitted_tick=? WHERE run_id=?",
                (QUEUED, tick, spec.run_id),
            )
            self.results.journal_append(
                event, spec.run_id, attempt=existing.attempts, tick=tick
            )
            return _fetch(conn, spec.run_id)

    def mark_running(self, run_id: str, device: str, tick: int) -> None:
        INJECTOR.fire("jobstore.mark_running", run_id=run_id)
        self._transition(
            run_id,
            RUNNING,
            allowed=(QUEUED, RUNNING),
            extra="device=?, started_tick=?",
            params=(device, tick),
            event="running",
            device=device,
            tick=tick,
        )

    def mark_done(self, run_id: str, result: RunResult, tick: int) -> None:
        """Persist a result and flip the row to ``done`` — idempotently.

        The payload is appended to the experiment store *first*, the
        status transition commits second: a crash between the two leaves
        a ``running`` row whose resumed re-execution dedupes against the
        already-stored payload, so the final bytes are identical either
        way. Calling this on an already-``done`` row is a no-op, which is
        what makes a resumed drain safe against straggling workers.
        """
        INJECTOR.fire("jobstore.mark_done", run_id=run_id)
        with self.results.transaction() as conn:
            row = _row(conn, run_id, "status, device")
            if row["status"] == DONE:
                return
            device = row["device"]
            self.results.append(result, device=device, source="fleet")
            # The payload commits on its own, ahead of the status: the
            # crash window the chaos suite drives (payload persisted,
            # status not yet committed).
            conn.commit()
            INJECTOR.fire("jobstore.mark_done.commit", run_id=run_id)
            self._transition(
                run_id,
                DONE,
                allowed=(RUNNING, QUEUED, FAILED),
                extra="error=NULL, finished_tick=?",
                params=(tick,),
                event="done",
                device=device,
                tick=tick,
            )

    def mark_failed(self, run_id: str, error: str, tick: int) -> None:
        """Flip a job to ``failed`` (idempotent on already-failed rows)."""
        with self.results.transaction() as conn:
            row = _row(conn, run_id, "status, device")
            if row["status"] in (DONE, FAILED):
                return
            self._transition(
                run_id,
                FAILED,
                allowed=(RUNNING, QUEUED),
                extra="error=?, finished_tick=?",
                params=(str(error)[:2000], tick),
                event="failed",
                device=row["device"],
                tick=tick,
                detail=str(error)[:200],
            )

    def record_retry(self, run_id: str, detail: str, tick: int) -> int:
        """Retry lifecycle: put a running job back in the queue.

        Bumps ``attempts``, clears the device claim, and journals the
        retry; returns the new attempt count. The job re-enters the
        dispatch loop and backs off on the fleet clock (the service owns
        the backoff — the store only records the lifecycle).
        """
        with self.results.transaction() as conn:
            row = _row(conn, run_id, "status, attempts, device")
            if row["status"] not in (RUNNING, QUEUED):
                raise ValueError(
                    f"job {run_id}: cannot retry from {row['status']}"
                )
            attempts = row["attempts"] + 1
            conn.execute(
                "UPDATE jobs SET status=?, attempts=?, device=NULL,"
                " started_tick=NULL, error=? WHERE run_id=?",
                (QUEUED, attempts, str(detail)[:2000], run_id),
            )
            self.results.journal_append(
                "retry",
                run_id,
                device=row["device"],
                attempt=attempts,
                detail=str(detail)[:200],
                tick=tick,
            )
            return attempts

    def record_defer(self, run_id: str, count: int = 1) -> None:
        """Count ``count`` deferrals against a job (job stays queued).

        Per-device/tick attribution lives in the telemetry layer; the
        store keeps only the per-job total so ``status`` output and the
        in-memory ``FleetJob.defers`` budget agree.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        with self.results.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET defers = defers + ? WHERE run_id=?",
                (count, run_id),
            )

    def _transition(
        self, run_id: str, status: str, allowed, extra: str, params,
        event: str, device: Optional[str], tick: int, detail: str = "",
    ) -> None:
        with self.results.transaction() as conn:
            current = _row(conn, run_id, "status")["status"]
            if current not in allowed:
                raise ValueError(
                    f"job {run_id}: cannot move {current} -> {status}"
                )
            conn.execute(
                f"UPDATE jobs SET status=?, {extra} WHERE run_id=?",
                (status, *params, run_id),
            )
            self.results.journal_append(
                event, run_id, device=device, detail=detail, tick=tick
            )

    def requeue_running(self) -> int:
        """Crash recovery: put any ``running`` jobs back in the queue."""
        with self.results.transaction() as conn:
            stranded = [
                row["run_id"]
                for row in conn.execute(
                    "SELECT run_id FROM jobs WHERE status=?"
                    " ORDER BY run_id",
                    (RUNNING,),
                )
            ]
            if not stranded:
                return 0
            conn.execute(
                "UPDATE jobs SET status=?, device=NULL, started_tick=NULL"
                " WHERE status=?",
                (QUEUED, RUNNING),
            )
            for run_id in stranded:
                self.results.journal_append("requeue", run_id)
            return len(stranded)

    # -- queries ------------------------------------------------------------
    # (read-only transaction() blocks hold the lock and commit nothing)

    def fetch(self, run_id: str) -> Optional[JobRecord]:
        with self.results.transaction() as conn:
            return _fetch(conn, run_id)

    def result(self, run_id: str) -> Optional[RunResult]:
        """The stored ``RunResult`` of a done job (else ``None``)."""
        record = self.fetch(run_id)
        if record is None or not record.is_done:
            return None
        stored = self.results.get(run_id)
        if stored is not None:
            stored.from_cache = False
        return stored

    def _select(self, columns: str, status: Optional[str]) -> List[sqlite3.Row]:
        if status is not None and status not in STATUSES:
            raise ValueError(f"unknown status {status!r}; known: {STATUSES}")
        where = "" if status is None else " WHERE status=?"
        with self.results.transaction() as conn:
            return conn.execute(
                f"SELECT {columns} FROM jobs{where}"
                " ORDER BY submitted_tick, run_id",
                () if status is None else (status,),
            ).fetchall()

    def jobs(self, status: Optional[str] = None) -> List[JobRecord]:
        return [_record_from_row(row) for row in self._select("*", status)]

    def run_ids(self, status: Optional[str] = None) -> List[str]:
        """Run ids (optionally filtered by status), without spec decoding."""
        return [row["run_id"] for row in self._select("run_id", status)]

    def counts(self) -> Dict[str, int]:
        with self.results.transaction() as conn:
            rows = conn.execute(
                "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
            ).fetchall()
        counts = {status: 0 for status in STATUSES}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    # -- telemetry rollup ---------------------------------------------------

    def accumulate_telemetry(self, snapshot: Dict[str, Any]) -> None:
        """Fold a :meth:`FleetTelemetry.snapshot` into the persistent
        rollup (counters add across service lifetimes)."""
        with self.results.transaction() as conn:
            for device, counters in snapshot.get("devices", {}).items():
                conn.execute(
                    "INSERT INTO telemetry"
                    " (device, scheduled, completed, failed, deferred,"
                    "  cache_hits, retries, quarantines)"
                    " VALUES (?, ?, ?, ?, ?, ?, ?, ?)"
                    " ON CONFLICT(device) DO UPDATE SET"
                    "  scheduled = scheduled + excluded.scheduled,"
                    "  completed = completed + excluded.completed,"
                    "  failed = failed + excluded.failed,"
                    "  deferred = deferred + excluded.deferred,"
                    "  cache_hits = cache_hits + excluded.cache_hits,"
                    "  retries = retries + excluded.retries,"
                    "  quarantines = quarantines + excluded.quarantines",
                    (
                        device,
                        counters.get("scheduled", 0),
                        counters.get("completed", 0),
                        counters.get("failed", 0),
                        counters.get("deferred", 0),
                        counters.get("cache_hits", 0),
                        counters.get("retries", 0),
                        counters.get("quarantines", 0),
                    ),
                )
            # store_meta values are text; SQLite adds them as integers.
            conn.execute(
                "INSERT INTO store_meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value = value + excluded.value",
                (FLEET_TICKS_KEY, str(int(snapshot.get("ticks_elapsed", 0)))),
            )

    def telemetry(self) -> Dict[str, Any]:
        """The accumulated per-device rollup (plus total ticks)."""
        with self.results.transaction() as conn:
            rows = conn.execute(
                "SELECT * FROM telemetry ORDER BY device"
            ).fetchall()
            ticks = conn.execute(
                "SELECT value FROM store_meta WHERE key=?", (FLEET_TICKS_KEY,)
            ).fetchone()
        return {
            "devices": {
                row["device"]: {
                    "scheduled": row["scheduled"],
                    "completed": row["completed"],
                    "failed": row["failed"],
                    "deferred": row["deferred"],
                    "cache_hits": row["cache_hits"],
                    "retries": row["retries"],
                    "quarantines": row["quarantines"],
                }
                for row in rows
            },
            "ticks": int(ticks["value"]) if ticks is not None else 0,
        }


def _row(conn: sqlite3.Connection, run_id: str, columns: str) -> sqlite3.Row:
    row = conn.execute(
        f"SELECT {columns} FROM jobs WHERE run_id=?", (run_id,)
    ).fetchone()
    if row is None:
        raise KeyError(f"unknown job {run_id!r}")
    return row


def _fetch(conn: sqlite3.Connection, run_id: str) -> Optional[JobRecord]:
    row = conn.execute("SELECT * FROM jobs WHERE run_id=?", (run_id,)).fetchone()
    return _record_from_row(row) if row is not None else None


def _record_from_row(row: sqlite3.Row) -> JobRecord:
    return JobRecord(
        run_id=row["run_id"],
        spec=RunSpec.from_dict(json.loads(row["spec"])),
        status=row["status"],
        device=row["device"],
        defers=row["defers"],
        attempts=row["attempts"],
        error=row["error"],
        submitted_tick=row["submitted_tick"],
        started_tick=row["started_tick"],
        finished_tick=row["finished_tick"],
    )
