"""Store schema: versioned tables + forward migrations.

The experiment store's on-disk layout is versioned through a
``store_meta`` row (``schema_version``). Opening a store at an older
version applies every forward migration in order inside one transaction;
opening a *newer* store fails loudly rather than corrupting it, and so
does creating a store in a file whose tables were not made by it.

Version history:

* **v1** — one wide ``runs`` table with the result payload inlined as a
  JSON column (the initial lakehouse layout).
* **v2** — content-addressed payloads: run rows carry a
  ``payload_hash`` into a shared ``blobs`` table (identical payloads are
  stored once, integrity is checkable by re-hashing), an autoincrement
  ``seq`` records append order (the watermark basis for incremental
  materialized aggregates), and the ``matviews`` / ``matview_watermarks``
  tables hold per-cell improvement ratios plus the high-water mark of the
  last materialization.
* **v3** — adds the ``traces`` table: ``repro.obs``
  trace/metric summaries persisted next to the results they profile,
  payloads content-addressed through the same ``blobs`` table.
* **v4** — adds the ``journal`` table: a WAL-style, append-only record
  of job-lifecycle events (enqueue/running/retry/done/failed/…) written
  by the fleet's ``JobStore`` inside the same transactions as the
  transitions they describe. The journal is what lets
  ``python -m repro.fleet drain --resume`` reconstruct and finish a
  killed sweep.
* **v5** (current) — the fleet's ``jobs`` table (lifecycle only: the
  payload lives in ``runs``/``blobs``) and its per-device ``telemetry``
  rollup join the schema, so a fleet database *is* an experiment store.
  The fleet clock total moves from the fleet's own ``meta`` table into
  ``store_meta`` (:data:`FLEET_TICKS_KEY`); ``meta`` and the pre-store
  inline ``jobs.result`` column are dropped.

Migrations move payload text **verbatim** — a v1 store migrated to v2
serves bit-identical payloads (asserted in
``tests/test_store_migration.py``).
"""

from __future__ import annotations

import hashlib
import re
import sqlite3
from typing import Callable, Dict

#: Current on-disk schema version.
SCHEMA_VERSION = 5

#: The v1 layout, kept for migration tests and ``create_v1_store``.
V1_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id       TEXT PRIMARY KEY,
    app          TEXT NOT NULL,
    scheme       TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    shots        INTEGER NOT NULL,
    trace_scale  REAL NOT NULL,
    iterations   INTEGER NOT NULL,
    device       TEXT,
    source       TEXT NOT NULL DEFAULT 'executor',
    ground_truth REAL NOT NULL,
    elapsed_s    REAL NOT NULL DEFAULT 0.0,
    created_at   TEXT NOT NULL DEFAULT '',
    spec         TEXT NOT NULL,
    payload      TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: The v2 layout (kept verbatim: the v1->v2 migration recreates it and
#: the v2->v3 step builds on top).
V2_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    seq          INTEGER PRIMARY KEY AUTOINCREMENT,
    run_id       TEXT NOT NULL UNIQUE,
    app          TEXT NOT NULL,
    scheme       TEXT NOT NULL,
    seed         INTEGER NOT NULL,
    shots        INTEGER NOT NULL,
    trace_scale  REAL NOT NULL,
    iterations   INTEGER NOT NULL,
    device       TEXT,
    source       TEXT NOT NULL DEFAULT 'executor',
    ground_truth REAL NOT NULL,
    elapsed_s    REAL NOT NULL DEFAULT 0.0,
    created_at   TEXT NOT NULL DEFAULT '',
    spec         TEXT NOT NULL,
    payload_hash TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS runs_app_scheme ON runs (app, scheme);
CREATE INDEX IF NOT EXISTS runs_cell ON runs (app, seed, trace_scale);
CREATE TABLE IF NOT EXISTS blobs (
    hash TEXT PRIMARY KEY,
    data TEXT NOT NULL,
    size INTEGER NOT NULL
);
CREATE TABLE IF NOT EXISTS matviews (
    view       TEXT NOT NULL,
    cell       TEXT NOT NULL,
    scheme     TEXT NOT NULL,
    ratio      REAL NOT NULL,
    cell_order INTEGER NOT NULL,
    PRIMARY KEY (view, cell, scheme)
);
CREATE TABLE IF NOT EXISTS matview_watermarks (
    view      TEXT PRIMARY KEY,
    watermark INTEGER NOT NULL,
    baseline  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS store_meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: v3 additions: obs trace/metric summaries, content-addressed like runs.
TRACES_SCHEMA = """
CREATE TABLE IF NOT EXISTS traces (
    trace_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    label        TEXT NOT NULL DEFAULT '',
    created_at   TEXT NOT NULL DEFAULT '',
    payload_hash TEXT NOT NULL
);
"""

#: The v3 layout (kept: the v3->v4 step builds on top).
V3_SCHEMA = V2_SCHEMA + TRACES_SCHEMA

#: v4 additions: the WAL-style execution journal (append-only; ``seq``
#: preserves event order across service lifetimes).
JOURNAL_SCHEMA = """
CREATE TABLE IF NOT EXISTS journal (
    seq     INTEGER PRIMARY KEY AUTOINCREMENT,
    tick    INTEGER NOT NULL DEFAULT 0,
    event   TEXT NOT NULL,
    run_id  TEXT NOT NULL,
    device  TEXT,
    attempt INTEGER NOT NULL DEFAULT 0,
    detail  TEXT NOT NULL DEFAULT ''
);
CREATE INDEX IF NOT EXISTS journal_run ON journal (run_id, seq);
"""

#: The v4 layout (kept: the v4->v5 step builds on top).
V4_SCHEMA = V3_SCHEMA + JOURNAL_SCHEMA

#: v5 additions: the fleet's job lifecycle table (the payload of a done
#: job lives in ``runs``/``blobs``) and its per-device telemetry rollup.
FLEET_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    run_id      TEXT PRIMARY KEY,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL,
    device      TEXT,
    defers      INTEGER NOT NULL DEFAULT 0,
    attempts    INTEGER NOT NULL DEFAULT 0,
    error       TEXT,
    submitted_tick INTEGER NOT NULL DEFAULT 0,
    started_tick   INTEGER,
    finished_tick  INTEGER
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status);
CREATE TABLE IF NOT EXISTS telemetry (
    device      TEXT PRIMARY KEY,
    scheduled   INTEGER NOT NULL DEFAULT 0,
    completed   INTEGER NOT NULL DEFAULT 0,
    failed      INTEGER NOT NULL DEFAULT 0,
    deferred    INTEGER NOT NULL DEFAULT 0,
    cache_hits  INTEGER NOT NULL DEFAULT 0,
    retries     INTEGER NOT NULL DEFAULT 0,
    quarantines INTEGER NOT NULL DEFAULT 0
);
"""

#: The current (v5) layout.
V5_SCHEMA = V4_SCHEMA + FLEET_SCHEMA

#: Every table the current layout creates.
_STORE_TABLES = tuple(re.findall(r"CREATE TABLE IF NOT EXISTS (\w+)", V5_SCHEMA))

#: ``store_meta`` key of the fleet clock total (ticks, summed across
#: service lifetimes).
FLEET_TICKS_KEY = "fleet_ticks"

#: Counters older fleet databases lack (the fleet added them on open
#: before its tables joined the schema).
_FLEET_COLUMNS = (
    ("jobs", "attempts"),
    ("telemetry", "retries"),
    ("telemetry", "quarantines"),
)


class SchemaError(RuntimeError):
    """The store's on-disk schema cannot be used by this code version."""


def payload_hash(payload: str) -> str:
    """Content address of one canonical payload text."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _run_script(conn: sqlite3.Connection, script: str) -> None:
    """Execute DDL statement by statement, inside the open transaction
    (``executescript`` would commit it first)."""
    for statement in script.split(";"):
        if statement.strip():
            conn.execute(statement)


def _tables(conn: sqlite3.Connection) -> set:
    return {
        row[0]
        for row in conn.execute("SELECT name FROM sqlite_master WHERE type='table'")
    }


def _columns(conn: sqlite3.Connection, table: str) -> set:
    return {row[1] for row in conn.execute(f"PRAGMA table_info({table})")}


def _get_version(conn: sqlite3.Connection) -> int:
    """Schema version of an open database (0 = no store tables yet)."""
    if "store_meta" not in _tables(conn):
        # A bare `runs` table without store_meta is not ours to touch.
        return 0
    value = conn.execute(
        "SELECT value FROM store_meta WHERE key='schema_version'"
    ).fetchone()
    return int(value[0]) if value is not None else 0


def _set_version(conn: sqlite3.Connection, version: int) -> None:
    conn.execute(
        "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)"
        " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
        (str(version),),
    )


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """Inline payloads -> content-addressed blobs + append-order ``seq``.

    Payload text moves verbatim; append order is preserved by walking the
    v1 table in rowid order so ``seq`` reproduces the original insertion
    sequence (the matview watermark basis).
    """
    conn.execute("ALTER TABLE runs RENAME TO runs_v1")
    _run_script(conn, V2_SCHEMA)
    rows = conn.execute("SELECT * FROM runs_v1 ORDER BY rowid").fetchall()
    for row in rows:
        digest = payload_hash(row["payload"])
        conn.execute(
            "INSERT OR IGNORE INTO blobs (hash, data, size) VALUES (?, ?, ?)",
            (digest, row["payload"], len(row["payload"])),
        )
        conn.execute(
            "INSERT INTO runs (run_id, app, scheme, seed, shots, trace_scale,"
            " iterations, device, source, ground_truth, elapsed_s, created_at,"
            " spec, payload_hash)"
            " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                row["run_id"], row["app"], row["scheme"], row["seed"],
                row["shots"], row["trace_scale"], row["iterations"],
                row["device"], row["source"], row["ground_truth"],
                row["elapsed_s"], row["created_at"], row["spec"], digest,
            ),
        )
    conn.execute("DROP TABLE runs_v1")


def _migrate_v2_to_v3(conn: sqlite3.Connection) -> None:
    """Additive: the ``traces`` table only — run rows do not move."""
    _run_script(conn, TRACES_SCHEMA)


def _migrate_v3_to_v4(conn: sqlite3.Connection) -> None:
    """Additive: the ``journal`` table only — run rows do not move."""
    _run_script(conn, JOURNAL_SCHEMA)


def _migrate_v4_to_v5(conn: sqlite3.Connection) -> None:
    """The fleet tables join the schema — run rows do not move.

    Creates ``jobs``/``telemetry`` when absent, adds the counters older
    fleet databases lack, moves the fleet clock total from ``meta`` into
    ``store_meta`` and drops ``meta`` and the pre-store ``jobs.result``
    column. Every part checks before it acts, so the step is safe to
    run twice.
    """
    _run_script(conn, FLEET_SCHEMA)
    for table, column in _FLEET_COLUMNS:
        if column not in _columns(conn, table):
            conn.execute(
                f"ALTER TABLE {table} ADD COLUMN {column}"
                " INTEGER NOT NULL DEFAULT 0"
            )
    if "result" in _columns(conn, "jobs"):
        conn.execute("ALTER TABLE jobs DROP COLUMN result")
    if "meta" in _tables(conn):
        conn.execute(
            "INSERT INTO store_meta (key, value)"
            " SELECT ?, value FROM meta WHERE key = 'ticks'"
            " ON CONFLICT(key) DO UPDATE SET value=excluded.value",
            (FLEET_TICKS_KEY,),
        )
        conn.execute("DROP TABLE meta")


#: Forward migrations: from-version -> migration function.
MIGRATIONS: Dict[int, Callable[[sqlite3.Connection], None]] = {
    1: _migrate_v1_to_v2,
    2: _migrate_v2_to_v3,
    3: _migrate_v3_to_v4,
    4: _migrate_v4_to_v5,
}


def ensure_schema(conn: sqlite3.Connection) -> int:
    """Create (or migrate) the store tables; returns the migrated-from
    version (``SCHEMA_VERSION`` when nothing had to move).

    Creation and migration run in one ``BEGIN EXCLUSIVE`` transaction:
    two connections opening a new file cannot both create it, readers on
    other connections wait for the finished layout instead of seeing a
    half-made one, and a failed step leaves the file as it was. A version-0 file that already
    holds a table the store would create (a pre-store fleet database, a
    foreign ``runs`` table) raises :class:`SchemaError` untouched.
    """
    if _get_version(conn) == SCHEMA_VERSION:
        return SCHEMA_VERSION
    conn.execute("BEGIN EXCLUSIVE")
    try:
        version = _get_version(conn)
        if version > SCHEMA_VERSION:
            raise SchemaError(
                f"store schema v{version} is newer than this code "
                f"(supports up to v{SCHEMA_VERSION})"
            )
        if version == 0:
            clash = sorted(_tables(conn).intersection(_STORE_TABLES))
            if clash:
                raise SchemaError(
                    f"file holds table(s) {', '.join(clash)} but no store "
                    "schema version; refusing to adopt it"
                )
            _run_script(conn, V5_SCHEMA)
        else:
            for step in range(version, SCHEMA_VERSION):
                migrate = MIGRATIONS.get(step)
                if migrate is None:
                    raise SchemaError(f"no migration from store schema v{step}")
                migrate(conn)
        _set_version(conn, SCHEMA_VERSION)
        conn.commit()
    except BaseException:
        conn.rollback()
        raise
    return version or SCHEMA_VERSION


def create_v1_store(conn: sqlite3.Connection) -> None:
    """Lay down the historical v1 schema (migration tests / fixtures)."""
    conn.executescript(V1_SCHEMA)
    conn.execute(
        "INSERT INTO store_meta (key, value) VALUES ('schema_version', '1')"
        " ON CONFLICT(key) DO UPDATE SET value='1'"
    )
    conn.commit()


def create_v2_store(conn: sqlite3.Connection) -> None:
    """Lay down the historical v2 schema (migration tests / fixtures)."""
    conn.executescript(V2_SCHEMA)
    conn.execute(
        "INSERT INTO store_meta (key, value) VALUES ('schema_version', '2')"
        " ON CONFLICT(key) DO UPDATE SET value='2'"
    )
    conn.commit()
