"""The experiment lakehouse: one content-addressed store behind every cache.

:class:`ExperimentStore` is an append-only SQLite store of executed runs.
Run metadata (app, scheme, seed, device, timestamps, ...) lives in
indexed columns; the result payload is canonical JSON content-addressed
into a shared ``blobs`` table, so identical results — a fleet re-run, a
duplicate submit — are stored once and dedupe on ``run_id``.

Reads go through the typed query API (:meth:`query_runs`,
:meth:`comparisons`, :meth:`aggregate`); Fig. 17-style geomean
aggregates can additionally be *materialized* incrementally
(:meth:`materialize`): per-cell improvement ratios are cached in the
``matviews`` table with an append-order watermark, and a later
materialize only recomputes cells that received runs newer than the
watermark.

One connection serves every thread, guarded by a re-entrant lock.
Every write goes through :meth:`transaction`, which also takes the
file's write lock; reads take the store's lock only (:meth:`read`), so
they never wait on another connection's open transaction. The fleet's
``JobStore`` keeps its job table in the same file and runs each job
transition, with its journal event, as one such transaction.
"""

from __future__ import annotations

import json
import os
import sqlite3
import threading
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from repro.faults.inject import INJECTOR
from repro.obs import METRICS, TRACER
from repro.runtime.results import RunResult
from repro.store.query import RunQuery, StoredRun
from repro.store.schema import SCHEMA_VERSION, ensure_schema, payload_hash
from repro.utils.serialization import canonical_json

import numpy as np

#: Environment knob naming the store every env-constructed component uses.
STORE_ENV = "REPRO_STORE"

#: Default materialized-view name (the Fig. 17 aggregation).
DEFAULT_VIEW = "fig17"

_RUN_COLUMNS = (
    "seq, run_id, app, scheme, seed, shots, trace_scale, iterations,"
    " device, source, ground_truth, elapsed_s, created_at, spec"
)


def resolve_store_path(path: Union[str, Path]) -> str:
    """Normalize a store reference to a concrete SQLite path.

    ``:memory:`` passes through; an existing file, or a path with a
    ``.sqlite``/``.sqlite3``/``.db`` suffix, is the database file itself;
    anything else is treated as a directory holding ``store.sqlite`` (so
    ``REPRO_STORE`` can point at a results directory).
    """
    if str(path) == ":memory:":
        return ":memory:"
    path = Path(path)
    if path.suffix in (".sqlite", ".sqlite3", ".db") or path.is_file():
        return str(path)
    return str(path / "store.sqlite")


class ExperimentStore:
    """Append-only, content-addressed run store with a typed query API."""

    def __init__(self, path: Union[str, Path] = ":memory:") -> None:
        self.path = resolve_store_path(path)
        if self.path != ":memory:":
            Path(self.path).parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, check_same_thread=False)
        self._conn.row_factory = sqlite3.Row
        self._lock = threading.RLock()
        self._depth = 0  # open transaction() blocks (owner thread only)
        try:
            self.migrated_from = ensure_schema(self._conn)
        except BaseException:
            self._conn.close()
            raise

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "ExperimentStore":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- writes --------------------------------------------------------------

    @contextmanager
    def transaction(self) -> Iterator[sqlite3.Connection]:
        """The connection, under the store's lock, as one write transaction.

        The outermost block takes the file's write lock as it opens
        (``BEGIN IMMEDIATE``), so no other connection can commit between
        a read in the block and a write that depends on it. It commits
        once when it exits and rolls back if it raises, so a failed write
        is never left pending for the next commit, nor holds the write
        lock against other connections. Nested blocks (a job
        transition's journal event) join the open transaction.
        """
        with self._lock:
            self._depth += 1
            try:
                if self._depth == 1:
                    self._begin()
                yield self._conn
                if self._depth == 1:
                    self._conn.commit()
            except BaseException:
                if self._depth == 1:
                    self._conn.rollback()
                raise
            finally:
                self._depth -= 1

    def commit_and_relock(self) -> None:
        """Commit the open transaction's writes, then take the write lock
        again, for a :meth:`transaction` block that must persist part of
        its work before it goes on."""
        self._conn.commit()
        self._begin()

    def _begin(self) -> None:
        self._conn.execute("BEGIN IMMEDIATE")

    def read(self, sql: str, params: Sequence[Any] = ()) -> List[sqlite3.Row]:
        """All rows of one query, under the store's lock only.

        No write lock is taken, so another connection's open transaction
        does not block the read: it sees the last committed state (or,
        inside this store's own :meth:`transaction`, that block's writes).
        """
        with self._lock:
            return self._conn.execute(sql, params).fetchall()

    def append(
        self,
        run: RunResult,
        *,
        device: Optional[str] = None,
        source: str = "executor",
    ) -> bool:
        """Record one executed run; returns True if a row was written.

        Appends dedupe on ``run_id`` (the spec content hash): a run that
        is already stored intact is a no-op returning False. A stored row
        whose payload no longer decodes or no longer matches its content
        address is *healed* — replaced by the fresh payload — rather than
        shadowing the good result behind a corrupt one.
        """
        INJECTOR.fire("store.blob.write", run_id=run.run_id)
        spec_text = canonical_json(run.spec.to_dict())
        payload = canonical_json(run.result.to_dict())
        digest = payload_hash(payload)
        # Corruption is injected *after* the content address is computed,
        # so the stored bytes mismatch their hash and every read-side
        # integrity check must catch it.
        payload = INJECTOR.corrupt("store.blob.write", payload, run_id=run.run_id)
        METRICS.counter("store.appends").inc()
        with TRACER.span(
            "store.append", category="store", run_id=run.run_id
        ), self.transaction() as conn:
            row = conn.execute(
                "SELECT seq, payload_hash FROM runs WHERE run_id = ?",
                (run.run_id,),
            ).fetchone()
            if row is not None:
                if self._payload_ok(row["payload_hash"]):
                    return False
                self._put_blob(digest, payload)
                conn.execute(
                    "UPDATE runs SET payload_hash = ? WHERE run_id = ?",
                    (digest, run.run_id),
                )
                return True
            self._put_blob(digest, payload)
            # A writer on another connection to the same file may have
            # stored this run since the read above: theirs stands.
            inserted = conn.execute(
                "INSERT INTO runs (run_id, app, scheme, seed, shots,"
                " trace_scale, iterations, device, source, ground_truth,"
                " elapsed_s, created_at, spec, payload_hash)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(run_id) DO NOTHING",
                (
                    run.run_id,
                    run.spec.app_name,
                    run.spec.scheme,
                    run.spec.seed,
                    run.spec.shots,
                    run.spec.trace_scale,
                    run.spec.iterations,
                    device,
                    source,
                    float(run.ground_truth),
                    float(run.elapsed_s),
                    datetime.now(timezone.utc).isoformat(),
                    spec_text,
                    digest,
                ),
            ).rowcount
            return bool(inserted)

    def append_many(
        self,
        runs: Iterable[RunResult],
        *,
        device: Optional[str] = None,
        source: str = "executor",
    ) -> int:
        """Append a batch; returns how many rows were actually written."""
        return sum(
            1 for run in runs if self.append(run, device=device, source=source)
        )

    def record_plan(self, plan: Any) -> None:
        """Remember an executed plan's sweep definition (by ``plan_id``)."""
        with self.transaction() as conn:
            conn.execute(
                "INSERT INTO store_meta (key, value) VALUES (?, ?)"
                " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
                (f"plan:{plan.plan_id}", canonical_json(plan.to_dict())),
            )

    def append_trace(self, summary: Dict[str, Any], label: str = "") -> int:
        """Persist one ``repro.obs`` trace/metric summary; returns its id.

        Summaries are content-addressed through the shared ``blobs``
        table like run payloads, so re-recording an identical profile
        costs one small row.  They live *next to* results, never inside
        them — the determinism contract keeps payload bytes free of
        timing data.
        """
        payload = canonical_json(summary)
        digest = payload_hash(payload)
        with TRACER.span(
            "store.append_trace", category="store"
        ), self.transaction() as conn:
            self._put_blob(digest, payload)
            cursor = conn.execute(
                "INSERT INTO traces (label, created_at, payload_hash)"
                " VALUES (?, ?, ?)",
                (
                    label,
                    datetime.now(timezone.utc).isoformat(),
                    digest,
                ),
            )
        METRICS.counter("store.trace_appends").inc()
        return int(cursor.lastrowid)

    def traces(self, limit: int = 10) -> List[Dict[str, Any]]:
        """Most-recent-first stored trace summaries (decoded payloads).

        Each summary dict gains ``trace_id`` / ``created_at`` keys from
        its row. Rows whose payload fails the content-address check are
        dropped, mirroring :meth:`query_runs`.
        """
        rows = self.read(
            "SELECT traces.trace_id, traces.label, traces.created_at,"
            " traces.payload_hash, blobs.data AS payload"
            " FROM traces LEFT JOIN blobs"
            " ON blobs.hash = traces.payload_hash"
            " ORDER BY traces.trace_id DESC LIMIT ?",
            (int(limit),),
        )
        out: List[Dict[str, Any]] = []
        for row in rows:
            payload = row["payload"]
            if payload is None or payload_hash(payload) != row["payload_hash"]:
                continue
            try:
                summary = json.loads(payload)
            except (TypeError, ValueError):
                continue
            summary["trace_id"] = row["trace_id"]
            summary["created_at"] = row["created_at"]
            if row["label"]:
                summary["label"] = row["label"]
            out.append(summary)
        return out

    def journal_append(
        self,
        event: str,
        run_id: str,
        *,
        device: Optional[str] = None,
        attempt: int = 0,
        detail: str = "",
        tick: int = 0,
    ) -> int:
        """Append one WAL-style execution-journal event; returns its seq.

        The journal is append-only and ordered by ``seq``, so replaying
        it reconstructs the exact lifecycle of a sweep — including one
        that died mid-drain. The fleet's ``JobStore`` writes an event in
        the same transaction as every job transition.
        """
        with self.transaction() as conn:
            cursor = conn.execute(
                "INSERT INTO journal (tick, event, run_id, device, attempt,"
                " detail) VALUES (?, ?, ?, ?, ?, ?)",
                (int(tick), event, run_id, device, int(attempt), detail),
            )
        METRICS.counter("store.journal_appends").inc()
        return int(cursor.lastrowid)

    def journal_entries(
        self, run_id: Optional[str] = None, limit: Optional[int] = None
    ) -> List[Dict[str, Any]]:
        """Journal events in append order (optionally for one run)."""
        sql = (
            "SELECT seq, tick, event, run_id, device, attempt, detail"
            " FROM journal"
        )
        params: List[Any] = []
        if run_id is not None:
            sql += " WHERE run_id = ?"
            params.append(run_id)
        sql += " ORDER BY seq"
        if limit is not None:
            sql += " LIMIT ?"
            params.append(int(limit))
        return [dict(row) for row in self.read(sql, params)]

    def _put_blob(self, digest: str, payload: str) -> None:
        self._conn.execute(
            "INSERT INTO blobs (hash, data, size) VALUES (?, ?, ?)"
            " ON CONFLICT(hash) DO UPDATE SET data=excluded.data,"
            " size=excluded.size",
            (digest, payload, len(payload)),
        )

    def _payload_ok(self, digest: str) -> bool:
        blob = self._conn.execute(
            "SELECT data FROM blobs WHERE hash = ?", (digest,)
        ).fetchone()
        if blob is None:
            return False
        data = blob["data"]
        if payload_hash(data) != digest:
            return False
        try:
            json.loads(data)
        except (TypeError, ValueError):
            return False
        return True

    # -- reads ---------------------------------------------------------------

    def get_stored(self, run_id: str) -> Optional[StoredRun]:
        """The stored row for one run id, or None if absent/corrupt."""
        rows = self.query_runs(RunQuery(run_ids=run_id))
        return rows[0] if rows else None

    def get(self, run_id: str) -> Optional[RunResult]:
        """Rehydrate one run as an executor-layer :class:`RunResult`."""
        stored = self.get_stored(run_id)
        if stored is None:
            return None
        try:
            return stored.to_run_result()
        except (KeyError, TypeError, ValueError):
            return None

    def query_runs(self, query: Optional[RunQuery] = None) -> List[StoredRun]:
        """Typed rows matching ``query``, in append order.

        Rows whose payload fails its content-address check are dropped
        (they read as cache misses upstream, never as wrong results).
        """
        query = query or RunQuery()
        INJECTOR.fire("store.blob.read")
        where, params = query.where()
        METRICS.counter("store.queries").inc()
        with TRACER.span("store.query_runs", category="store"):
            rows = self.read(
                f"SELECT {_RUN_COLUMNS}, blobs.data AS payload,"
                " runs.payload_hash AS payload_hash"
                f" FROM runs LEFT JOIN blobs ON blobs.hash = runs.payload_hash"
                f"{where}",
                params,
            )
        out: List[StoredRun] = []
        for row in rows:
            payload = row["payload"]
            if payload is not None:
                # A corrupt read mangles the bytes *before* the integrity
                # check, so it degrades to a miss, never a wrong result.
                payload = INJECTOR.corrupt(
                    "store.blob.read", payload, run_id=row["run_id"]
                )
            if payload is None or payload_hash(payload) != row["payload_hash"]:
                continue
            out.append(
                StoredRun(
                    seq=row["seq"],
                    run_id=row["run_id"],
                    app=row["app"],
                    scheme=row["scheme"],
                    seed=row["seed"],
                    shots=row["shots"],
                    trace_scale=row["trace_scale"],
                    iterations=row["iterations"],
                    device=row["device"],
                    source=row["source"],
                    ground_truth=row["ground_truth"],
                    elapsed_s=row["elapsed_s"],
                    created_at=row["created_at"],
                    spec_json=row["spec"],
                    payload=payload,
                )
            )
        return out

    def run_ids(self) -> List[str]:
        rows = self.read("SELECT run_id FROM runs ORDER BY seq")
        return [row["run_id"] for row in rows]

    def __len__(self) -> int:
        return int(self.read("SELECT COUNT(*) FROM runs")[0][0])

    def __contains__(self, run_id: str) -> bool:
        rows = self.read("SELECT 1 FROM runs WHERE run_id = ?", (run_id,))
        return bool(rows)

    # -- aggregation ---------------------------------------------------------

    def comparisons(self, query: Optional[RunQuery] = None) -> Dict[
        Tuple[str, int, float], Any
    ]:
        """Regroup matching runs into per-cell scheme comparisons.

        Cells come back in first-append order — except when the query
        names explicit ``run_ids``, in which case *that* order wins, so
        regrouping a plan's runs matches ``PlanResult.comparisons()``
        exactly (down to the float-summation order of the geomean) even
        on a store that ingested the runs in another order. Like it,
        refuses to regroup a sweep whose cells repeat a scheme (an
        overrides sweep) — narrow the query instead.
        """
        from repro.experiments.runner import ComparisonResult

        rows = self.query_runs(query)
        if query is not None and query.run_ids:
            position = {rid: i for i, rid in enumerate(query.run_ids)}
            rows.sort(key=lambda s: position[s.run_id])
        out: Dict[Tuple[str, int, float], ComparisonResult] = {}
        for stored in rows:
            key = (stored.app, stored.seed, stored.trace_scale)
            if key not in out:
                out[key] = ComparisonResult(
                    app_name=stored.app, ground_truth=stored.ground_truth
                )
            if stored.scheme in out[key].results:
                raise ValueError(
                    f"cell {key} has multiple {stored.scheme!r} runs; "
                    "narrow the query (iterations/shots/overrides differ)"
                )
            out[key].results[stored.scheme] = stored.to_run_result().result
        return out

    def aggregate(
        self,
        query: Optional[RunQuery] = None,
        baseline: str = "baseline",
    ) -> Dict[str, float]:
        """Fig. 17-style per-scheme geomean improvement over matching runs.

        Delegates to :func:`repro.experiments.runner.geomean_improvements`
        on the regrouped comparisons, so the numbers are bit-identical to
        what the figure builders compute from direct executor results.
        """
        from repro.experiments.runner import geomean_improvements

        return geomean_improvements(
            list(self.comparisons(query).values()), baseline
        )

    # -- materialized aggregates ---------------------------------------------

    def _cell_key(self, stored: StoredRun) -> str:
        """Materialization cell identity: the full spec minus the scheme.

        A superset of ``comparison_key`` — including iterations, shots
        and overrides keeps heterogeneous sweeps sharing one store from
        colliding into the same comparison cell.
        """
        spec = json.loads(stored.spec_json)
        return canonical_json(
            [
                stored.app,
                stored.seed,
                stored.trace_scale,
                stored.iterations,
                stored.shots,
                spec.get("overrides", []),
            ]
        )

    def materialize(
        self,
        view: str = DEFAULT_VIEW,
        baseline: str = "baseline",
        full: bool = False,
    ) -> Dict[str, Any]:
        """Incrementally (re)compute the per-cell improvement ratios.

        Only cells containing runs appended after the view's watermark
        are recomputed; ``full=True`` (or a baseline change) rebuilds
        every cell. Cells missing the baseline scheme are skipped — the
        baseline's later arrival bumps the watermark past the whole cell
        and re-triggers it. A run that fails to decode aborts the whole
        refresh: the view and its watermark stay as they were.
        """
        from repro.experiments.runner import ComparisonResult

        METRICS.counter("store.materializations").inc()
        with TRACER.span(
            "store.materialize", category="store", view=view
        ), self.transaction() as conn:
            mark = conn.execute(
                "SELECT watermark, baseline FROM matview_watermarks"
                " WHERE view = ?",
                (view,),
            ).fetchone()
            watermark = -1
            if mark is not None and not full and mark["baseline"] == baseline:
                watermark = mark["watermark"]
            else:
                conn.execute("DELETE FROM matviews WHERE view = ?", (view,))
            all_runs = self.query_runs()
            max_seq = max((s.seq for s in all_runs), default=watermark)
            cells: Dict[str, List[StoredRun]] = {}
            for stored in all_runs:
                cells.setdefault(self._cell_key(stored), []).append(stored)
            affected = [
                cell
                for cell, members in cells.items()
                if any(s.seq > watermark for s in members)
            ]
            updated = 0
            for cell in affected:
                members = cells[cell]
                conn.execute(
                    "DELETE FROM matviews WHERE view = ? AND cell = ?",
                    (view, cell),
                )
                schemes = {s.scheme for s in members}
                if baseline not in schemes:
                    continue
                comp = ComparisonResult(
                    app_name=members[0].app,
                    ground_truth=members[0].ground_truth,
                )
                for stored in members:
                    comp.results[stored.scheme] = (
                        stored.to_run_result().result
                    )
                ratios = comp.improvements(baseline)
                order = min(s.seq for s in members)
                for scheme, ratio in ratios.items():
                    conn.execute(
                        "INSERT INTO matviews"
                        " (view, cell, scheme, ratio, cell_order)"
                        " VALUES (?, ?, ?, ?, ?)",
                        (view, cell, scheme, float(ratio), order),
                    )
                updated += 1
            conn.execute(
                "INSERT INTO matview_watermarks (view, watermark, baseline)"
                " VALUES (?, ?, ?)"
                " ON CONFLICT(view) DO UPDATE SET"
                " watermark=excluded.watermark, baseline=excluded.baseline",
                (view, max_seq, baseline),
            )
        return {
            "view": view,
            "baseline": baseline,
            "watermark": max_seq,
            "updated_cells": updated,
            "total_cells": len(cells),
        }

    def aggregate_materialized(self, view: str = DEFAULT_VIEW) -> Dict[str, float]:
        """Per-scheme geomean from the materialized per-cell ratios.

        Reconstructs the ratio lists in cell append order and evaluates
        the exact expression :func:`geomean_improvements` uses, so a
        materialized aggregate is bit-identical to the direct one.
        """
        rows = self.read(
            "SELECT cell, scheme, ratio, cell_order FROM matviews"
            " WHERE view = ? ORDER BY cell_order",
            (view,),
        )
        if not rows:
            raise ValueError(f"no materialized cells for view {view!r}")
        by_cell: Dict[str, Dict[str, float]] = {}
        for row in rows:
            by_cell.setdefault(row["cell"], {})[row["scheme"]] = row["ratio"]
        schemes = set.intersection(*(set(r) for r in by_cell.values()))
        out: Dict[str, float] = {}
        for scheme in sorted(schemes):
            ratios = [cell[scheme] for cell in by_cell.values()]
            out[scheme] = float(np.exp(np.mean(np.log(ratios))))
        return out

    # -- maintenance ---------------------------------------------------------

    def prune(self, query: RunQuery) -> int:
        """Delete runs matching ``query``; returns how many were removed.

        Materialized views are invalidated wholesale (deletions cannot be
        expressed as watermark increments) — the next ``materialize``
        rebuilds them from the surviving runs.
        """
        matching = [s.run_id for s in self.query_runs(query)]
        if not matching:
            return 0
        with self.transaction() as conn:
            placeholders = ",".join("?" for _ in matching)
            conn.execute(
                f"DELETE FROM runs WHERE run_id IN ({placeholders})", matching
            )
            conn.execute("DELETE FROM matviews")
            conn.execute("DELETE FROM matview_watermarks")
        return len(matching)

    def compact(self) -> Dict[str, int]:
        """Drop blobs no run references any more and reclaim file space."""
        with self.transaction() as conn:
            before = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM blobs"
            ).fetchone()
            conn.execute(
                "DELETE FROM blobs WHERE hash NOT IN"
                " (SELECT DISTINCT payload_hash FROM runs)"
                " AND hash NOT IN"
                " (SELECT DISTINCT payload_hash FROM traces)"
            )
            after = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM blobs"
            ).fetchone()
        if self.path != ":memory:":
            with self._lock:
                self._conn.execute("VACUUM")
        return {
            "blobs_removed": int(before[0] - after[0]),
            "bytes_reclaimed": int(before[1] - after[1]),
        }

    # -- introspection -------------------------------------------------------

    def info(self) -> Dict[str, Any]:
        with self._lock:
            runs = self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0]
            traces = self._conn.execute(
                "SELECT COUNT(*) FROM traces"
            ).fetchone()[0]
            journal = self._conn.execute(
                "SELECT COUNT(*) FROM journal"
            ).fetchone()[0]
            blobs = self._conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(size), 0) FROM blobs"
            ).fetchone()
            apps = [
                r[0]
                for r in self._conn.execute(
                    "SELECT DISTINCT app FROM runs ORDER BY app"
                )
            ]
            schemes = [
                r[0]
                for r in self._conn.execute(
                    "SELECT DISTINCT scheme FROM runs ORDER BY scheme"
                )
            ]
            devices = [
                r[0]
                for r in self._conn.execute(
                    "SELECT DISTINCT device FROM runs"
                    " WHERE device IS NOT NULL ORDER BY device"
                )
            ]
            views = [
                {
                    "view": r["view"],
                    "watermark": r["watermark"],
                    "baseline": r["baseline"],
                    "cells": self._conn.execute(
                        "SELECT COUNT(DISTINCT cell) FROM matviews"
                        " WHERE view = ?",
                        (r["view"],),
                    ).fetchone()[0],
                }
                for r in self._conn.execute(
                    "SELECT view, watermark, baseline FROM matview_watermarks"
                    " ORDER BY view"
                )
            ]
        return {
            "path": self.path,
            "schema_version": SCHEMA_VERSION,
            "runs": int(runs),
            "traces": int(traces),
            "journal": int(journal),
            "blobs": int(blobs[0]),
            "payload_bytes": int(blobs[1]),
            "apps": apps,
            "schemes": schemes,
            "devices": devices,
            "views": views,
        }


def open_store(path: Optional[Union[str, Path]] = None) -> ExperimentStore:
    """Open the experiment store.

    Resolution order: explicit ``path`` argument, then the
    ``REPRO_STORE`` environment knob, then an in-memory store (scratch —
    nothing persists).
    """
    if path is None:
        path = os.environ.get(STORE_ENV) or ":memory:"
    return ExperimentStore(path)
