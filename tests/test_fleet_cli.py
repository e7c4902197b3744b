"""``python -m repro.fleet`` CLI: submit / status / stats / devices."""

import json

import pytest

from repro.fleet.cli import main
from repro.runtime import ExperimentPlan


@pytest.fixture
def db(tmp_path):
    return str(tmp_path / "fleet.db")


def _submit(db, *extra):
    return main(
        [
            "submit",
            "--apps", "App1",
            "--schemes", "baseline", "qismet",
            "--iterations", "4",
            "--seeds", "3",
            "--db", db,
            *extra,
        ]
    )


def test_devices_lists_fleet(capsys):
    assert main(["devices"]) == 0
    out = capsys.readouterr().out
    for machine in ("guadalupe", "toronto", "sydney", "jakarta"):
        assert machine in out


def test_submit_then_status_then_stats(db, capsys):
    assert _submit(db) == 0
    out = capsys.readouterr().out
    assert "2 runs" in out and "executed 2" in out

    assert main(["status", "--db", db, "--expect"]) == 0
    out = capsys.readouterr().out
    assert "done=2" in out and "all 2 jobs are 'done'" in out

    assert main(["stats", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "device" in out and "throughput" in out


def test_resubmit_dedupes(db, capsys):
    assert _submit(db) == 0
    capsys.readouterr()
    assert _submit(db) == 0
    out = capsys.readouterr().out
    assert "store hits 2" in out and "executed 0" in out
    assert "cached" in out


def test_submit_from_plan_file(db, tmp_path, capsys):
    plan = ExperimentPlan(
        apps=("App1",), schemes=("noise-free",), iterations=3, name="from-file"
    )
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan.to_dict()))
    assert main(["submit", "--plan", str(plan_file), "--db", db]) == 0
    out = capsys.readouterr().out
    assert "from-file" in out and "1 runs" in out


def test_submit_exports_plan_result(db, tmp_path, capsys):
    out_path = tmp_path / "result.json"
    assert _submit(db, "--export", str(out_path)) == 0
    capsys.readouterr()
    payload = json.loads(out_path.read_text())
    assert len(payload["runs"]) == 2
    assert payload["plan"]["apps"] == ["App1"]


def test_stats_reports_stored_results(db, capsys):
    assert _submit(db) == 0
    capsys.readouterr()
    assert main(["stats", "--db", db]) == 0
    out = capsys.readouterr().out
    assert "stored results: 2" in out


def test_stats_json_serves_rollup(db, capsys):
    assert _submit(db) == 0
    capsys.readouterr()
    assert main(["stats", "--db", db, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["completed"] == 2
    assert payload["stored_results"]["total"] == 2
    assert sum(payload["stored_results"]["by_device"].values()) == 2
    assert payload["ticks"] > 0 and payload["throughput"] > 0
    for counters in payload["devices"].values():
        assert set(counters) == {
            "scheduled", "completed", "failed", "deferred", "cache_hits",
            "retries", "quarantines",
        }


def test_stats_breakdown_matches_store_derived_numbers(db, capsys):
    """The rollup-served breakdown can never go stale vs the store.

    ``stats`` serves stored-result counts from the persisted telemetry
    rollup (no payload decoding); this pins that shortcut against the
    numbers rebuilt the old way — querying the fleet-sourced runs out of
    the result store and counting by device.
    """
    from repro.fleet import JobStore
    from repro.fleet.cli import stats_payload
    from repro.store.query import RunQuery

    assert _submit(db) == 0
    assert _submit(db) == 0  # resubmission: cache hits must not inflate
    capsys.readouterr()
    with JobStore(db) as store:
        payload = stats_payload(store)
        stored = store.results.query_runs(RunQuery(sources="fleet"))
    derived: dict = {}
    for run in stored:
        derived[run.device] = derived.get(run.device, 0) + 1
    assert payload["stored_results"]["by_device"] == derived
    assert payload["stored_results"]["total"] == len(stored)


def test_status_expect_fails_when_not_all_done(db, capsys):
    # empty store: expectation cannot hold
    from repro.fleet import JobStore

    JobStore(db).close()
    assert main(["status", "--db", db, "--expect"]) == 1


def test_status_requires_db(monkeypatch, capsys):
    monkeypatch.delenv("REPRO_FLEET_DB", raising=False)
    assert main(["status"]) == 2
    assert main(["stats"]) == 2


def test_db_from_environment(db, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FLEET_DB", db)
    assert _submit(db) == 0
    capsys.readouterr()
    assert main(["status", "--expect"]) == 0
