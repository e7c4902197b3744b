"""Schema migrations: every older store and fleet database opens at the
current version with its contents intact; foreign files are refused."""

import json
import sqlite3

import pytest

from repro.fleet import FleetService, JobStore
from repro.fleet.cli import main as fleet_main
from repro.fleet.store import DONE, QUEUED, RUNNING
from repro.runtime import CachedExecutor, ExperimentPlan, RunSpec, SerialExecutor
from repro.store import ExperimentStore, RunQuery, SchemaError, payload_hash
from repro.store.schema import (
    MIGRATIONS,
    SCHEMA_VERSION,
    V3_SCHEMA,
    V4_SCHEMA,
    create_v1_store,
    create_v2_store,
)
from repro.utils.serialization import canonical_json

PLAN = ExperimentPlan(
    apps=("App1",),
    schemes=("baseline", "qismet"),
    iterations=5,
    seeds=(3, 4),
)


def _v1_store(path, runs):
    """Lay down a v1-layout store file holding the given runs inline."""
    conn = sqlite3.connect(str(path))
    conn.row_factory = sqlite3.Row
    create_v1_store(conn)
    for run in runs:
        conn.execute(
            "INSERT INTO runs (run_id, app, scheme, seed, shots, trace_scale,"
            " iterations, device, source, ground_truth, elapsed_s, created_at,"
            " spec, payload) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                run.run_id,
                run.spec.app_name,
                run.spec.scheme,
                run.spec.seed,
                run.spec.shots,
                run.spec.trace_scale,
                run.spec.iterations,
                None,
                "executor",
                float(run.ground_truth),
                float(run.elapsed_s),
                "2026-01-01T00:00:00+00:00",
                canonical_json(run.spec.to_dict()),
                canonical_json(run.result.to_dict()),
            ),
        )
    conn.commit()
    conn.close()


def test_v1_to_v2_migration_preserves_payload_bits(tmp_path):
    runs = SerialExecutor().run_plan(PLAN).runs
    db = tmp_path / "store.sqlite"
    _v1_store(db, runs)
    v1_payloads = {
        run.run_id: canonical_json(run.result.to_dict()) for run in runs
    }

    with ExperimentStore(db) as store:
        assert store.migrated_from == 1
        # every payload moved verbatim: byte-equal text, matching address
        for stored in store.query_runs():
            assert stored.payload == v1_payloads[stored.run_id]
        # append order survives as seq order
        assert store.run_ids() == [run.run_id for run in runs]
        # the migrated store is fully functional: aggregate + materialize
        direct = store.aggregate(RunQuery(run_ids=[r.run_id for r in runs]))
        store.materialize()
        assert store.aggregate_materialized() == direct

    # reopening is a no-op migration
    with ExperimentStore(db) as store:
        assert store.migrated_from == SCHEMA_VERSION


def test_v1_duplicate_payloads_collapse_into_one_blob(tmp_path):
    runs = SerialExecutor().run_plan(PLAN).runs
    db = tmp_path / "store.sqlite"
    # two v1 rows with identical payload text (a synthetic duplicate):
    # content addressing must collapse them into one blob
    dup = runs[:1] * 1
    _v1_store(db, runs)
    conn = sqlite3.connect(str(db))
    conn.execute(
        "INSERT INTO runs SELECT 'copy-of-first', app, scheme, seed, shots,"
        " trace_scale, iterations, device, source, ground_truth, elapsed_s,"
        " created_at, spec, payload FROM runs WHERE run_id = ?",
        (dup[0].run_id,),
    )
    conn.commit()
    conn.close()

    with ExperimentStore(db) as store:
        payload = canonical_json(dup[0].result.to_dict())
        count = store._conn.execute(
            "SELECT COUNT(*) FROM blobs WHERE hash = ?",
            (payload_hash(payload),),
        ).fetchone()[0]
        assert count == 1
        assert len(store) == len(runs) + 1


def test_v2_to_v3_migration_is_additive(tmp_path):
    """v2 -> v3 adds the ``traces`` table; run rows do not move."""
    runs = SerialExecutor().run_plan(PLAN).runs
    db = tmp_path / "store.sqlite"
    conn = sqlite3.connect(str(db))
    conn.row_factory = sqlite3.Row
    create_v2_store(conn)
    conn.close()
    with ExperimentStore(db) as store:
        for run in runs:
            store.append(run)

    # Rewind the version stamp to 2: the rows above are v2-layout rows.
    conn = sqlite3.connect(str(db))
    conn.execute("DROP TABLE traces")
    conn.execute(
        "UPDATE store_meta SET value = '2' WHERE key = 'schema_version'"
    )
    conn.commit()
    conn.close()

    with ExperimentStore(db) as store:
        assert store.migrated_from == 2
        assert store.run_ids() == [run.run_id for run in runs]
        for stored in store.query_runs():
            assert json.loads(stored.payload) == {
                run.run_id: run.result.to_dict() for run in runs
            }[stored.run_id]
        # the migrated store accepts trace summaries immediately
        trace_id = store.append_trace({"wall_s": 1.5}, label="post-migration")
        assert store.traces()[0]["trace_id"] == trace_id
        assert store.info()["traces"] == 1

    with ExperimentStore(db) as store:  # reopening is a no-op migration
        assert store.migrated_from == SCHEMA_VERSION
        assert store.traces()[0]["label"] == "post-migration"


def test_trace_payloads_are_content_addressed(tmp_path):
    db = tmp_path / "store.sqlite"
    with ExperimentStore(db) as store:
        store.append_trace({"wall_s": 2.0}, label="a")
        store.append_trace({"wall_s": 2.0}, label="b")  # same payload bits
    conn = sqlite3.connect(str(db))
    blobs = conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]
    rows = conn.execute("SELECT COUNT(*) FROM traces").fetchone()[0]
    conn.close()
    assert rows == 2 and blobs == 1  # two summaries, one shared blob


def test_future_schema_refused(tmp_path):
    db = tmp_path / "store.sqlite"
    with ExperimentStore(db):
        pass
    conn = sqlite3.connect(str(db))
    conn.execute(
        "UPDATE store_meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION + 1),),
    )
    conn.commit()
    conn.close()
    with pytest.raises(SchemaError, match="newer than this code"):
        ExperimentStore(db)


# -- fleet databases -----------------------------------------------------------

#: The fleet's own tables as ``JobStore`` laid them down next to a v4
#: store: an inline ``result`` column, a private ``meta`` table for the
#: fleet clock total, and the three counters it patched in on open.
FLEET_V4_DDL = """
CREATE TABLE jobs (
    run_id      TEXT PRIMARY KEY,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL,
    device      TEXT,
    defers      INTEGER NOT NULL DEFAULT 0,
    attempts    INTEGER NOT NULL DEFAULT 0,
    error       TEXT,
    result      TEXT,
    submitted_tick INTEGER NOT NULL DEFAULT 0,
    started_tick   INTEGER,
    finished_tick  INTEGER
);
CREATE INDEX jobs_status ON jobs (status);
CREATE TABLE telemetry (
    device      TEXT PRIMARY KEY,
    scheduled   INTEGER NOT NULL DEFAULT 0,
    completed   INTEGER NOT NULL DEFAULT 0,
    failed      INTEGER NOT NULL DEFAULT 0,
    deferred    INTEGER NOT NULL DEFAULT 0,
    cache_hits  INTEGER NOT NULL DEFAULT 0,
    retries     INTEGER NOT NULL DEFAULT 0,
    quarantines INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: The same tables before ``attempts``/``retries``/``quarantines``.
FLEET_EARLY_DDL = """
CREATE TABLE jobs (
    run_id      TEXT PRIMARY KEY,
    spec        TEXT NOT NULL,
    status      TEXT NOT NULL,
    device      TEXT,
    defers      INTEGER NOT NULL DEFAULT 0,
    error       TEXT,
    result      TEXT,
    submitted_tick INTEGER NOT NULL DEFAULT 0,
    started_tick   INTEGER,
    finished_tick  INTEGER
);
CREATE TABLE telemetry (
    device      TEXT PRIMARY KEY,
    scheduled   INTEGER NOT NULL DEFAULT 0,
    completed   INTEGER NOT NULL DEFAULT 0,
    failed      INTEGER NOT NULL DEFAULT 0,
    deferred    INTEGER NOT NULL DEFAULT 0,
    cache_hits  INTEGER NOT NULL DEFAULT 0
);
CREATE TABLE meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

FLEET_MACHINES = ["toronto", "cairo"]
DONE_SPEC = RunSpec(app="App1", scheme="baseline", iterations=4, seed=3)
STRANDED_SPEC = RunSpec(app="App1", scheme="baseline", iterations=4, seed=4)


def _old_fleet_db(path, schema, version, fleet_ddl):
    """Lay down a fleet database the way an older release left it."""
    conn = sqlite3.connect(str(path))
    conn.executescript(schema + fleet_ddl)
    conn.execute(
        "INSERT INTO store_meta (key, value) VALUES ('schema_version', ?)",
        (str(version),),
    )
    conn.commit()
    return conn


def _store_run(conn, run, device):
    payload = canonical_json(run.result.to_dict())
    digest = payload_hash(payload)
    conn.execute(
        "INSERT INTO blobs (hash, data, size) VALUES (?, ?, ?)",
        (digest, payload, len(payload)),
    )
    conn.execute(
        "INSERT INTO runs (run_id, app, scheme, seed, shots, trace_scale,"
        " iterations, device, source, ground_truth, elapsed_s, created_at,"
        " spec, payload_hash) VALUES (?, ?, ?, ?, ?, ?, ?, ?, 'fleet', ?, ?,"
        " '2026-01-01T00:00:00+00:00', ?, ?)",
        (
            run.run_id, run.spec.app_name, run.spec.scheme, run.spec.seed,
            run.spec.shots, run.spec.trace_scale, run.spec.iterations,
            device, float(run.ground_truth), float(run.elapsed_s),
            canonical_json(run.spec.to_dict()), digest,
        ),
    )


def _v4_fleet_db(path):
    """A v4 fleet database mid-sweep: one job done (payload in the
    store, ``result`` NULL), one stranded ``running``, telemetry rows
    and the fleet clock total in ``meta``."""
    done = SerialExecutor().run_one(DONE_SPEC)
    conn = _old_fleet_db(path, V4_SCHEMA, 4, FLEET_V4_DDL)
    _store_run(conn, done, "toronto")
    conn.executemany(
        "INSERT INTO jobs (run_id, spec, status, device, attempts,"
        " submitted_tick, started_tick, finished_tick)"
        " VALUES (?, ?, ?, ?, ?, 0, ?, ?)",
        [
            (DONE_SPEC.run_id, json.dumps(DONE_SPEC.to_dict()), DONE,
             "toronto", 1, 1, 2),
            (STRANDED_SPEC.run_id, json.dumps(STRANDED_SPEC.to_dict()),
             RUNNING, "cairo", 0, 3, None),
        ],
    )
    conn.executemany(
        "INSERT INTO journal (tick, event, run_id, device) VALUES (?, ?, ?, ?)",
        [
            (0, "enqueue", DONE_SPEC.run_id, None),
            (0, "enqueue", STRANDED_SPEC.run_id, None),
            (1, "running", DONE_SPEC.run_id, "toronto"),
            (2, "done", DONE_SPEC.run_id, "toronto"),
            (3, "running", STRANDED_SPEC.run_id, "cairo"),
        ],
    )
    conn.execute(
        "INSERT INTO telemetry (device, scheduled, completed, retries)"
        " VALUES ('toronto', 2, 1, 1), ('cairo', 1, 0, 0)"
    )
    conn.execute("INSERT INTO meta (key, value) VALUES ('ticks', '9')")
    conn.commit()
    conn.close()
    return done


def _tables_and_columns(path):
    conn = sqlite3.connect(str(path))
    try:
        tables = {
            name: {row[1] for row in conn.execute(f"PRAGMA table_info({name})")}
            for (name,) in conn.execute(
                "SELECT name FROM sqlite_master WHERE type='table'"
            )
        }
    finally:
        conn.close()
    return tables


@pytest.mark.parametrize("name", ["fleet.db", "fleet"])
def test_v4_fleet_db_opens_at_v5_and_resumes(tmp_path, name, capsys):
    """A v4 fleet database (any suffix) migrates in place: jobs,
    attempts, telemetry and the clock total survive, and
    ``drain --resume`` finishes the stranded job."""
    db = tmp_path / name
    done = _v4_fleet_db(db)

    with JobStore(db) as store:
        assert store.results.migrated_from == 4
        assert store.path == str(db)
        assert store.counts() == {QUEUED: 0, RUNNING: 1, DONE: 1, "failed": 0}
        assert store.fetch(DONE_SPEC.run_id).attempts == 1
        assert store.result(DONE_SPEC.run_id) == done
        rollup = store.telemetry()
        assert rollup["ticks"] == 9
        assert rollup["devices"]["toronto"]["retries"] == 1
        assert rollup["devices"]["cairo"]["scheduled"] == 1
        assert len(store.results.journal_entries()) == 5
    tables = _tables_and_columns(db)
    assert "meta" not in tables and "result" not in tables["jobs"]

    assert fleet_main(["stats", "--db", str(db), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["ticks"] == 9

    argv = ["drain", "--resume", "--db", str(db), "--machines", *FLEET_MACHINES]
    assert fleet_main(argv) == 0
    out = capsys.readouterr().out
    assert "1 recovered" in out and "done=2" in out
    with JobStore(db) as store:
        assert store.results.migrated_from == SCHEMA_VERSION
        assert store.counts()[DONE] == 2
        assert store.result(STRANDED_SPEC.run_id) == SerialExecutor().run_one(
            STRANDED_SPEC
        )
        assert store.telemetry()["ticks"] > 9
        events = [e["event"] for e in store.results.journal_entries(STRANDED_SPEC.run_id)]
    assert events == ["enqueue", "running", "requeue", "running", "done"]


def test_v3_fleet_db_gains_the_late_columns(tmp_path):
    db = tmp_path / "fleet.db"
    conn = _old_fleet_db(db, V3_SCHEMA, 3, FLEET_EARLY_DDL)
    conn.execute(
        "INSERT INTO jobs (run_id, spec, status) VALUES (?, ?, ?)",
        (DONE_SPEC.run_id, json.dumps(DONE_SPEC.to_dict()), QUEUED),
    )
    conn.execute("INSERT INTO telemetry (device, completed) VALUES ('toronto', 4)")
    conn.commit()
    conn.close()

    with JobStore(db) as store:
        assert store.results.migrated_from == 3
        assert store.fetch(DONE_SPEC.run_id).attempts == 0
        counters = store.telemetry()["devices"]["toronto"]
        assert counters["completed"] == 4
        assert counters["retries"] == counters["quarantines"] == 0
        assert store.telemetry()["ticks"] == 0
    tables = _tables_and_columns(db)
    assert "attempts" in tables["jobs"] and "result" not in tables["jobs"]
    assert {"retries", "quarantines"} <= tables["telemetry"]
    assert "journal" in tables and "meta" not in tables

    # The v4->v5 step is safe to run twice.
    conn = sqlite3.connect(str(db))
    MIGRATIONS[4](conn)
    conn.commit()
    conn.close()
    assert _tables_and_columns(db) == tables


@pytest.mark.parametrize(
    "ddl",
    [
        # a pre-store fleet database: inline payloads, no store_meta
        "CREATE TABLE jobs (run_id TEXT PRIMARY KEY, status TEXT,"
        " device TEXT, result TEXT);"
        " INSERT INTO jobs VALUES ('r1', 'done', 'toronto', '{}');",
        # somebody else's table that happens to be called runs
        "CREATE TABLE runs (id INTEGER PRIMARY KEY, note TEXT);"
        " INSERT INTO runs (note) VALUES ('not a store');",
    ],
    ids=["pre-store-fleet-db", "foreign-runs-table"],
)
def test_unversioned_file_with_store_tables_is_refused(tmp_path, ddl):
    db = tmp_path / "other.db"
    conn = sqlite3.connect(str(db))
    conn.executescript(ddl)
    conn.commit()
    conn.close()
    before = db.read_bytes()
    with pytest.raises(SchemaError, match="no store schema version"):
        ExperimentStore(db)
    with pytest.raises(SchemaError):
        JobStore(db)
    assert db.read_bytes() == before


def test_one_file_serves_the_fleet_and_the_cache(tmp_path):
    """The fleet's database is an experiment store: a CachedExecutor on
    the same file serves what the fleet executed as hits."""
    db = str(tmp_path / "fleet.db")
    specs = PLAN.expand()[:2]
    with FleetService(machines=FLEET_MACHINES, db_path=db) as service:
        fleet_runs = service.run_specs(specs, timeout=120)

    inner = SerialExecutor()
    inner.run = lambda specs: pytest.fail("the fleet's runs must be hits")
    cached = CachedExecutor(db, inner=inner)
    try:
        runs = cached.run(specs)
    finally:
        cached.close()
    assert [run.from_cache for run in runs] == [True, True]
    assert (cached.hits, cached.misses) == (2, 0)
    assert runs == fleet_runs
