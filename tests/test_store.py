"""Experiment store: content addressing, queries, aggregates, maintenance."""

import json
import os
import subprocess
import sys
import threading

import pytest

from repro.runtime import ExperimentPlan, RunSpec, SerialExecutor
from repro.store import (
    ExperimentStore,
    RunQuery,
    export_plan_result,
    open_store,
    payload_hash,
    resolve_store_path,
)

PLAN = ExperimentPlan(
    apps=("App1", "App2"),
    schemes=("baseline", "qismet", "noise-free"),
    iterations=6,
    seeds=(5, 7),
)


@pytest.fixture(scope="module")
def outcome():
    return SerialExecutor().run_plan(PLAN)


@pytest.fixture
def store(outcome):
    with ExperimentStore() as store:
        for run in outcome:
            store.append(run)
        yield store


# -- path resolution -----------------------------------------------------------


def test_resolve_store_path():
    assert resolve_store_path(":memory:") == ":memory:"
    assert resolve_store_path("runs/store.sqlite") == "runs/store.sqlite"
    assert resolve_store_path("runs/fleet.db") == "runs/fleet.db"
    assert resolve_store_path("runs") == "runs/store.sqlite"


def test_open_store_honors_env(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    scratch = open_store()
    assert scratch.path == ":memory:"
    scratch.close()

    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "results"))
    store = open_store()
    assert store.path == str(tmp_path / "results" / "store.sqlite")
    store.close()


# -- append / dedupe / content addressing --------------------------------------


def test_append_dedupes_on_run_id(outcome):
    with ExperimentStore() as store:
        run = outcome.runs[0]
        assert store.append(run) is True
        assert store.append(run) is False
        assert len(store) == 1
        assert run.run_id in store


def test_payload_is_content_addressed(store, outcome):
    run = outcome.runs[0]
    stored = store.get_stored(run.run_id)
    digest = store._conn.execute(
        "SELECT payload_hash FROM runs WHERE run_id = ?", (run.run_id,)
    ).fetchone()[0]
    assert payload_hash(stored.payload) == digest
    assert json.loads(stored.payload) == run.result.to_dict()


def test_roundtrip_is_bit_identical(store, outcome):
    for run in outcome:
        back = store.get(run.run_id)
        assert back.to_dict()["result"] == run.to_dict()["result"]
        assert back.spec == run.spec
        assert back.from_cache is True


def test_corrupt_payload_reads_as_miss_and_heals(outcome):
    with ExperimentStore() as store:
        run = outcome.runs[0]
        store.append(run)
        store._conn.execute("UPDATE blobs SET data = '{broken'")
        store._conn.commit()
        assert store.get(run.run_id) is None
        assert store.query_runs() == []
        # re-appending the same run heals the entry in place
        assert store.append(run) is True
        assert store.get(run.run_id) is not None


def test_identical_payloads_share_one_blob():
    # Same app/scheme/seed at different shots produces different run_ids
    # but (shots only affects sampling metadata here) the store still
    # dedupes at the blob level whenever payload bytes coincide.
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=3)
    run = SerialExecutor().run([spec])[0]
    with ExperimentStore() as store:
        store.append(run)
        blobs = store._conn.execute("SELECT COUNT(*) FROM blobs").fetchone()[0]
        assert blobs == 1
        info = store.info()
        assert info["runs"] == 1 and info["blobs"] == 1


# -- typed queries -------------------------------------------------------------


def test_query_filters(store):
    assert len(store.query_runs()) == 12
    assert len(store.query_runs(RunQuery(apps="App1"))) == 6
    assert len(store.query_runs(RunQuery(schemes=("qismet",)))) == 4
    assert len(store.query_runs(RunQuery(apps="App1", seeds=5))) == 3
    assert len(store.query_runs(RunQuery(limit=2))) == 2
    rows = store.query_runs(RunQuery(apps="App2", schemes="baseline", seeds=7))
    assert len(rows) == 1 and rows[0].app == "App2"


def test_query_preserves_append_order(store, outcome):
    assert [s.run_id for s in store.query_runs()] == [
        run.run_id for run in outcome
    ]
    assert store.run_ids() == [run.run_id for run in outcome]


# -- aggregation parity --------------------------------------------------------


def test_comparisons_match_plan_result(store, outcome):
    query = RunQuery(run_ids=[run.run_id for run in outcome])
    comps = store.comparisons(query)
    direct = outcome.comparisons()
    assert set(comps) == set(direct)
    for key, comp in comps.items():
        assert comp.improvements() == direct[key].improvements()


def test_aggregate_bitwise_matches_geomean(store, outcome):
    query = RunQuery(run_ids=[run.run_id for run in outcome])
    assert store.aggregate(query) == outcome.geomean_improvements()


def test_comparisons_follow_the_query_order_not_append_order(outcome):
    """Runs appended in reverse regroup, under a query naming the plan's
    run ids, into the plan's own cells in the plan's order; without run
    ids, cells come back in append order."""
    query = RunQuery(run_ids=[run.run_id for run in outcome])
    with ExperimentStore() as store:
        store.append_many(reversed(outcome.runs))
        comps = store.comparisons(query)
        aggregate = store.aggregate(query)
        appended = store.comparisons()
    direct = outcome.comparisons()
    assert list(comps) == list(direct)
    for key, comp in comps.items():
        assert comp.app_name == direct[key].app_name
        assert comp.ground_truth == direct[key].ground_truth
        assert list(comp.results) == list(direct[key].results)
        for scheme, result in comp.results.items():
            assert result.to_dict() == direct[key].results[scheme].to_dict()
    assert aggregate == outcome.geomean_improvements()
    assert list(appended) == list(reversed(direct))


def test_comparisons_refuse_scheme_collisions():
    specs = [
        RunSpec(
            app="App1", scheme="baseline", iterations=4, seed=3,
            overrides={"retry_budget": budget},
        )
        for budget in (1, 5)
    ]
    runs = SerialExecutor().run(specs)
    with ExperimentStore() as store:
        for run in runs:
            store.append(run)
        # the two overrides share one comparison cell: a query mixing
        # them is refused rather than keeping whichever run came last
        with pytest.raises(ValueError, match="multiple 'baseline' runs"):
            store.comparisons()
        assert len(store.comparisons(RunQuery(run_ids=[runs[0].run_id]))) == 1


def test_threads_sharing_a_store_commit_whole_transactions(tmp_path):
    """Each transaction() block commits or rolls back as a unit, with its
    nested journal writes, while other threads write to the same store."""
    store = ExperimentStore(tmp_path / "store.sqlite")
    errors = []

    def worker(index):
        for step in range(40):
            try:
                with store.transaction():
                    store.journal_append("first", f"w{index}-{step}")
                    store.journal_append("second", f"w{index}-{step}")
                    if step % 2:
                        raise KeyError("roll this block back")
            except KeyError:
                pass
            except Exception as exc:  # noqa: BLE001 — collected for assert
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    store.close()
    with ExperimentStore(tmp_path / "store.sqlite") as reopened:
        entries = reopened.journal_entries()
    by_run = {}
    for entry in entries:
        by_run.setdefault(entry["run_id"], []).append(entry["event"])
    assert sorted(by_run) == sorted(
        f"w{i}-{step}" for i in range(8) for step in range(0, 40, 2)
    )
    assert all(events == ["first", "second"] for events in by_run.values())


#: One thread opens transactions in a loop while the main thread closes
#: the store under it, 300 times over.
_CLOSE_RACE = """
import sqlite3, threading
from repro.store import ExperimentStore

closed = 0
for _ in range(300):
    store = ExperimentStore(":memory:")
    started = threading.Event()
    outcome = []

    def spin():
        started.set()
        try:
            while True:
                with store.transaction():
                    pass
        except sqlite3.ProgrammingError:
            outcome.append("closed")

    worker = threading.Thread(target=spin)
    worker.start()
    started.wait()
    store.close()
    worker.join()
    closed += outcome == ["closed"]
print(closed)
"""


def test_close_under_a_running_transaction_raises_instead_of_crashing():
    """close() waits for the statement in flight: the other thread's next
    call raises ``sqlite3.ProgrammingError`` and the interpreter lives."""
    result = subprocess.run(
        [sys.executable, "-c", _CLOSE_RACE],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip() == "300"


def test_rolled_back_journal_write_frees_its_session(tmp_path):
    db = tmp_path / "store.sqlite"
    with ExperimentStore(db) as first, ExperimentStore(db) as second:
        with pytest.raises(KeyError):
            with first.transaction():
                first.journal_append("enqueue", "r1")
                assert first.session == 1
                raise KeyError("roll back")
        assert first.session is None
        second.journal_append("enqueue", "r2")
        first.journal_append("enqueue", "r3")
        assert (second.session, first.session) == (1, 2)
        assert [
            (entry["run_id"], entry["session"])
            for entry in first.journal_entries()
        ] == [("r2", 1), ("r3", 2)]


# -- maintenance ---------------------------------------------------------------


def test_prune_removes_runs_and_invalidates_views(store):
    removed = store.prune(RunQuery(apps="App2"))
    assert removed == 6
    assert len(store) == 6
    assert [key[0] for key in store.comparisons()] == ["App1", "App1"]


def test_compact_reclaims_orphaned_blobs(store):
    store.prune(RunQuery(apps="App1"))
    report = store.compact()
    assert report["blobs_removed"] == 6
    assert report["bytes_reclaimed"] > 0
    # surviving runs still resolve
    assert len(store.query_runs()) == 6


# -- export facade -------------------------------------------------------------


def test_export_plan_result_roundtrip(tmp_path, store, outcome):
    out = tmp_path / "export.json"
    run_ids = [run.run_id for run in outcome]
    export_plan_result(store, run_ids, out, plan=PLAN.to_dict())
    data = json.loads(out.read_text())
    assert [entry["spec"] for entry in data["runs"]] == [
        run.to_dict()["spec"] for run in outcome
    ]
    assert [entry["result"] for entry in data["runs"]] == [
        run.to_dict()["result"] for run in outcome
    ]
    assert data["plan"] == json.loads(json.dumps(PLAN.to_dict()))

    with pytest.raises(KeyError):
        export_plan_result(store, ["missing-run"], tmp_path / "nope.json")


# -- introspection -------------------------------------------------------------


def test_info_summarizes_contents(store):
    info = store.info()
    assert info["runs"] == 12
    assert info["apps"] == ["App1", "App2"]
    assert set(info["schemes"]) == set(PLAN.schemes)
