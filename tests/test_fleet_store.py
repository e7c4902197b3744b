"""Job store: lifecycle transitions, dedupe, persistence."""

import threading

import pytest

import repro.fleet.store as fleet_store
from repro.fleet.store import DONE, FAILED, QUEUED, RUNNING, JobStore
from repro.obs import Stopwatch
from repro.runtime import RunSpec, SerialExecutor


def _spec(seed=3, scheme="noise-free"):
    return RunSpec(app="App1", scheme=scheme, iterations=3, seed=seed)


def _result(spec):
    return SerialExecutor().run([spec])[0]


def test_enqueue_new_job_is_queued():
    with JobStore() as store:
        spec = _spec()
        record = store.enqueue(spec, tick=5)
        assert record.status == QUEUED
        assert record.submitted_tick == 5
        fetched = store.fetch(spec.run_id)
        assert fetched.spec == spec
        assert fetched.status == QUEUED


def test_full_lifecycle_and_result_roundtrip():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_running(spec.run_id, "toronto", tick=1)
        assert store.fetch(spec.run_id).status == RUNNING
        assert store.fetch(spec.run_id).device == "toronto"
        result = _result(spec)
        store.mark_done(spec.run_id, result, tick=2)
        record = store.fetch(spec.run_id)
        assert record.status == DONE and record.finished_tick == 2
        stored = store.result(spec.run_id)
        assert stored == result  # RunResult equality = spec + payload


def test_enqueue_done_job_is_dedupe_hit():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_done(spec.run_id, _result(spec), tick=1)
        again = store.enqueue(spec, tick=9)
        assert again.is_done
        # nothing was reset: original completion metadata survives
        assert again.finished_tick == 1


def test_enqueue_failed_job_requeues():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_running(spec.run_id, "cairo", tick=1)
        store.mark_failed(spec.run_id, "boom", tick=2)
        assert store.fetch(spec.run_id).error == "boom"
        record = store.enqueue(spec, tick=3)
        assert record.status == QUEUED
        assert record.error is None and record.defers == 0


def test_invalid_transition_rejected():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_done(spec.run_id, _result(spec), tick=1)
        with pytest.raises(ValueError):
            store.mark_running(spec.run_id, "toronto", tick=2)
        with pytest.raises(KeyError):
            store.mark_running("no-such-job", "toronto", tick=2)


def test_record_defer_increments():
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.record_defer(spec.run_id)
        store.record_defer(spec.run_id, count=3)
        assert store.fetch(spec.run_id).defers == 4
        with pytest.raises(ValueError):
            store.record_defer(spec.run_id, count=0)


def test_counts_jobs_and_run_ids():
    with JobStore() as store:
        done_spec, queued_spec = _spec(1), _spec(2)
        store.enqueue(done_spec)
        store.enqueue(queued_spec)
        store.mark_done(done_spec.run_id, _result(done_spec), tick=1)
        counts = store.counts()
        assert counts == {QUEUED: 1, RUNNING: 0, DONE: 1, FAILED: 0}
        assert [r.run_id for r in store.jobs(status=DONE)] == [done_spec.run_id]
        assert store.run_ids(status=DONE) == [done_spec.run_id]
        assert len(store.run_ids()) == 2
        with pytest.raises(ValueError):
            store.jobs(status="bogus")


def test_persistence_across_reopen(tmp_path):
    db = tmp_path / "fleet.db"
    spec = _spec()
    result = _result(spec)
    with JobStore(db) as store:
        store.enqueue(spec)
        store.mark_done(spec.run_id, result, tick=4)
    with JobStore(db) as store:
        assert store.fetch(spec.run_id).is_done
        assert store.result(spec.run_id) == result


def test_requeue_running_recovers_crashed_jobs(tmp_path):
    db = tmp_path / "fleet.db"
    spec = _spec()
    with JobStore(db) as store:
        store.enqueue(spec)
        store.mark_running(spec.run_id, "toronto", tick=1)
    with JobStore(db) as store:
        assert store.requeue_running() == 1
        record = store.fetch(spec.run_id)
        assert record.status == QUEUED and record.device is None


def test_failed_transition_rolls_back_and_frees_the_file(tmp_path, monkeypatch):
    db = tmp_path / "fleet.db"
    spec = _spec()
    with JobStore(db) as first, JobStore(db) as second:
        first.enqueue(spec)

        def journal_fails(*args, **kwargs):
            raise RuntimeError("journal write failed")

        # The status UPDATE has run when the journal write in the same
        # transaction fails.
        monkeypatch.setattr(first.results, "journal_append", journal_fails)
        with pytest.raises(RuntimeError):
            first.mark_running(spec.run_id, "toronto", tick=1)
        assert first.fetch(spec.run_id).status == QUEUED
        # The other store on the file can still write.
        assert second.enqueue(_spec(seed=4)).status == QUEUED


def test_transition_holds_the_write_lock_from_status_read_to_write(
    tmp_path, monkeypatch
):
    """Another store on the file finishes the job right after
    ``mark_running`` reads its status. That commit must wait for the
    transition's own, not slip in between and be overwritten: the row
    ends ``done`` with a readable result, never back at ``running``."""
    db = tmp_path / "fleet.db"
    spec = _spec()
    result = _result(spec)
    read_row = fleet_store._row
    finishers, errors = [], []

    def finish():
        try:
            second.mark_done(spec.run_id, result, tick=2)
        except Exception as exc:  # noqa: BLE001 — collected for assert
            errors.append(exc)

    def racing_row(conn, run_id, columns):
        row = read_row(conn, run_id, columns)
        if not finishers:
            finishers.append(threading.Thread(target=finish))
            finishers[0].start()
            # Long enough for an unblocked mark_done to commit.
            finishers[0].join(timeout=1.0)
        return row

    with JobStore(db) as first, JobStore(db) as second:
        first.enqueue(spec)
        monkeypatch.setattr(fleet_store, "_row", racing_row)
        first.mark_running(spec.run_id, "toronto", tick=1)
        finishers[0].join(timeout=30)
        assert not finishers[0].is_alive() and errors == []
        assert first.fetch(spec.run_id).status == DONE
        assert first.result(spec.run_id) == result


def test_reads_do_not_wait_for_another_stores_write_lock(tmp_path):
    """While another store on the file holds its write lock with an
    uncommitted change, queries return the committed state at once
    rather than waiting for the lock (and timing out after 5 s)."""
    db = tmp_path / "fleet.db"
    spec = _spec()
    with JobStore(db) as first, JobStore(db) as second:
        first.enqueue(spec)
        with second.results.transaction() as conn:
            conn.execute(
                "UPDATE jobs SET status=? WHERE run_id=?", (RUNNING, spec.run_id)
            )
            with Stopwatch() as watch:
                record = first.fetch(spec.run_id)
                counts = first.counts()
                listed = first.jobs()
        assert watch.elapsed < 1.0
        assert record.status == QUEUED
        assert counts[QUEUED] == 1 and counts[RUNNING] == 0
        assert [job.status for job in listed] == [QUEUED]
        # Once the other store commits, the same reads see its change.
        assert first.fetch(spec.run_id).status == RUNNING


def test_result_payload_delegated_to_experiment_store():
    """mark_done hands the payload to the embedded ExperimentStore — the
    jobs table keeps lifecycle only, the store owns content."""
    with JobStore() as store:
        spec = _spec()
        store.enqueue(spec)
        store.mark_running(spec.run_id, "toronto", tick=1)
        store.mark_done(spec.run_id, _result(spec), tick=2)
        stored = store.results.get_stored(spec.run_id)
        assert stored is not None
        assert stored.source == "fleet" and stored.device == "toronto"
        # the jobs table has no payload column at all
        with store.results.transaction() as conn:
            columns = {row["name"] for row in conn.execute("PRAGMA table_info(jobs)")}
        assert "result" not in columns
