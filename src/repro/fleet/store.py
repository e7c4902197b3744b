"""Persistent job table keyed by ``RunSpec`` content hash.

Jobs move through ``queued -> running -> done | failed``; a failed job is
re-queued on resubmission, a done job is a **dedupe hit** — resubmitting
the same spec returns the stored result without re-executing anything
(the spec's seed-determinism guarantees the stored payload is exactly
what a fresh run would produce).

The ``jobs`` table belongs to the experiment store's versioned schema
(:mod:`repro.store.schema`), so a fleet database *is* an
:class:`~repro.store.ExperimentStore`, opened here as
:attr:`JobStore.results`. The job table owns lifecycle only: a done
job's payload is an ordinary store run — queryable, deduped, exportable
with ``python -m repro.store`` pointed at the fleet db, and served as a
hit by a ``CachedExecutor`` on the same file. All timestamps are
fleet-clock ticks, keeping the store's contents reproducible
run-over-run.

The store's journal is the only record of what the fleet decided: every
transition, deferral, cache hit and quarantine is one row, and the
per-device counters (:meth:`JobStore.telemetry`) are counted from those
rows — for one service, the rows of its own journal session.

Crash safety: every transition and its journal event run as one
:meth:`~repro.store.ExperimentStore.transaction` (one commit; a failed
statement rolls back, so it never leaves the file's write lock held for
other connections). ``mark_done`` commits the result payload *before*
flipping the row's status (so a crash between the two leaves a
re-runnable ``running`` row whose re-execution dedupes against the
stored payload), and ``mark_done``/``mark_failed`` are idempotent so a
resumed drain and a straggling service on the same file cannot corrupt
each other's state. Several stores may open the same database file: a
transition holds the file's write lock from its status read to its
commit, and inserts tolerate a concurrent writer's row. Queries take only the
store's own lock (:meth:`~repro.store.ExperimentStore.read`), so they
return the committed state at once while another store holds the
write lock. Named fault sites
(``jobstore.enqueue``, ``jobstore.mark_running``, ``jobstore.mark_done``,
``jobstore.mark_done.commit``) let the chaos suite drive exactly these
windows.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.inject import INJECTOR
from repro.runtime.results import RunResult
from repro.runtime.spec import RunSpec
from repro.store.store import ExperimentStore

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

STATUSES = (QUEUED, RUNNING, DONE, FAILED)

#: Device label of journal rows no single machine owns: a deferral of
#: the whole fleet, a cache hit, a job failed before any device took it.
FLEET_WIDE = "(fleet)"

#: Journal event -> the fleet counter it feeds, in snapshot order.
COUNTERS = {
    "running": "scheduled",
    "done": "completed",
    "failed": "failed",
    "defer": "deferred",
    "hit": "cache_hits",
    "retry": "retries",
    "quarantine": "quarantines",
}


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
    """Job table and fleet journal, kept in one experiment store.

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
            existing = self.fetch(spec.run_id)
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
            return self.fetch(spec.run_id)

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

    def mark_done(
        self,
        run_id: str,
        result: RunResult,
        tick: int,
        device: Optional[str] = None,
    ) -> None:
        """Persist a result and flip the row to ``done`` — idempotently.

        The payload is appended to the experiment store *first*, the
        status transition commits second: a crash between the two leaves
        a ``running`` row whose resumed re-execution dedupes against the
        already-stored payload, so the final bytes are identical either
        way. Calling this on an already-``done`` row is a no-op, which is
        what makes a resumed drain safe against a straggling service.

        The stored run and the journal row name the row's device, else
        ``device`` (the device that ran a job whose claim a concurrent
        ``requeue_running`` cleared).
        """
        INJECTOR.fire("jobstore.mark_done", run_id=run_id)
        with self.results.transaction() as conn:
            row = _row(conn, run_id, "status, device")
            if row["status"] == DONE:
                return
            device = row["device"] or device
            self.results.append(result, device=device, source="fleet")
            # The payload commits on its own, ahead of the status: the
            # crash window the chaos suite drives (payload persisted,
            # status not yet committed).
            self.results.commit_and_relock()
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

    def mark_failed(
        self, run_id: str, error: str, tick: int, device: Optional[str] = None
    ) -> None:
        """Flip a job to ``failed`` (idempotent on already-failed rows).

        The journal row names the row's device, else ``device`` (the
        device that failed a job before it claimed the row).
        """
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
                device=row["device"] or device,
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

    def record_defer(
        self,
        run_id: str,
        count: int = 1,
        *,
        deferrals: Sequence[Tuple[Optional[str], str]] = (),
        tick: int = 0,
    ) -> None:
        """Spend ``count`` of a job's defer budget (job stays queued).

        ``deferrals`` holds one ``(device, detail)`` pair per deferral
        the dispatcher made — a device routed away from, or ``None`` for
        a wait on the whole fleet — and each becomes a ``defer`` journal
        row in the same transaction. ``count`` is what the job's
        ``defers`` counter (and the in-memory ``FleetJob.defers``
        budget) grows by: one per device routed away from, but one in
        all for a whole-fleet wait, however many devices it skipped.
        """
        if count < 1:
            raise ValueError("count must be >= 1")
        with self.results.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET defers = defers + ? WHERE run_id=?",
                (count, run_id),
            )
            for device, detail in deferrals:
                self.results.journal_append(
                    "defer", run_id, device=device, detail=detail, tick=tick
                )

    def record_hits(self, run_ids: Sequence[str], tick: int) -> None:
        """Journal a submission's store hits, in one commit."""
        with self.results.transaction():
            for run_id in run_ids:
                self.results.journal_append("hit", run_id, tick=tick)

    def record_quarantine(
        self, run_id: str, device: str, tick: int, detail: str
    ) -> None:
        """Journal a device's new quarantine, tipped over by ``run_id``."""
        self.results.journal_append(
            "quarantine", run_id, device=device, detail=detail, tick=tick
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

    def fetch(self, run_id: str) -> Optional[JobRecord]:
        rows = self.results.read("SELECT * FROM jobs WHERE run_id=?", (run_id,))
        return _record_from_row(rows[0]) if rows else None

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
        return self.results.read(
            f"SELECT {columns} FROM jobs{where}"
            " ORDER BY submitted_tick, run_id",
            () if status is None else (status,),
        )

    def jobs(self, status: Optional[str] = None) -> List[JobRecord]:
        return [_record_from_row(row) for row in self._select("*", status)]

    def run_ids(self, status: Optional[str] = None) -> List[str]:
        """Run ids (optionally filtered by status), without spec decoding."""
        return [row["run_id"] for row in self._select("run_id", status)]

    def counts(self) -> Dict[str, int]:
        rows = self.results.read(
            "SELECT status, COUNT(*) AS n FROM jobs GROUP BY status"
        )
        counts = {status: 0 for status in STATUSES}
        counts.update({row["status"]: row["n"] for row in rows})
        return counts

    # -- counters -------------------------------------------------------------

    def telemetry(self, own: bool = False) -> Dict[str, Any]:
        """Per-device fleet counters and the tick total, from the journal.

        Each counter counts its event's journal rows (:data:`COUNTERS`);
        rows without a device count under :data:`FLEET_WIDE`. The tick
        total sums, over journal sessions, each session's span from its
        first to its last counted row (rows journaled before schema v6
        share session 0). ``own=True`` counts only this store's session,
        which is empty until its first journal write.
        """
        where = f"event IN ({', '.join('?' * len(COUNTERS))})"
        params: List[Any] = list(COUNTERS)
        if own:
            where += " AND session = ?"
            params.append(self.results.session)
        rows = self.results.read(
            "SELECT session, device, event, COUNT(*) AS n,"
            " MIN(tick) AS first, MAX(tick) AS last FROM journal"
            f" WHERE {where} GROUP BY session, device, event",
            params,
        )
        devices: Dict[str, Dict[str, int]] = {}
        spans: Dict[int, Tuple[int, int]] = {}
        for row in rows:
            counters = devices.setdefault(
                row["device"] or FLEET_WIDE, dict.fromkeys(COUNTERS.values(), 0)
            )
            counters[COUNTERS[row["event"]]] += row["n"]
            first, last = spans.get(row["session"], (row["first"], row["last"]))
            spans[row["session"]] = (
                min(first, row["first"]),
                max(last, row["last"]),
            )
        return {
            "devices": dict(sorted(devices.items())),
            "ticks": sum(last - first + 1 for first, last in spans.values()),
        }


def _row(conn: sqlite3.Connection, run_id: str, columns: str) -> sqlite3.Row:
    row = conn.execute(
        f"SELECT {columns} FROM jobs WHERE run_id=?", (run_id,)
    ).fetchone()
    if row is None:
        raise KeyError(f"unknown job {run_id!r}")
    return row


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
