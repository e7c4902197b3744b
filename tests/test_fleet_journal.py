"""Fleet counters are counted from the store's journal.

Every fleet decision is one journal row, so a service's counters (its
own session's rows) and ``python -m repro.fleet stats`` (every row) are
queries over it. The three single-spec snapshots below were recorded
from the in-memory counters the journal replaced; the journal must
reproduce them exactly.
"""

import threading

import pytest

from repro.faults import INJECTOR, FaultPlan, RetryPolicy
from repro.fleet import FleetService, JobStore
from repro.fleet.store import FLEET_WIDE
from repro.runtime import RunSpec, SerialExecutor


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.uninstall()
    yield
    INJECTOR.uninstall()


def _counters(**nonzero):
    counters = dict.fromkeys(
        (
            "scheduled", "completed", "failed", "deferred", "cache_hits",
            "retries", "quarantines",
        ),
        0,
    )
    counters.update(nonzero)
    return counters


def _routed_away():
    service = FleetService()
    service.fleet.inject_transient("toronto", start=0, length=300, magnitude=0.9)
    spec = RunSpec(app="App1", scheme="baseline", iterations=5, seed=7)
    service.run_specs([spec], timeout=120)
    return service


def _whole_fleet_wait():
    service = FleetService()
    for name in service.fleet.names():
        service.fleet.inject_transient(name, start=0, length=4, magnitude=0.9)
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=5)
    service.run_specs([spec], timeout=120)
    return service


def _retry_then_hit():
    INJECTOR.install(FaultPlan.parse("execute.run:fail:hits=0"))
    service = FleetService(
        machines=["toronto", "cairo"],
        retry=RetryPolicy(max_attempts=3, jitter=0),
    )
    spec = RunSpec(app="App1", scheme="baseline", iterations=5, seed=3)
    service.run_specs([spec], timeout=120)
    INJECTOR.uninstall()
    service.run_specs([spec], timeout=120)
    return service


_NOT_TORONTO = (
    "cairo", "casablanca", "guadalupe", "jakarta", "mumbai", "sydney",
)

PINNED = {
    "routed-away": (
        _routed_away,
        {
            "devices": {
                "mumbai": _counters(scheduled=1, completed=1),
                "toronto": _counters(deferred=1),
            },
            "devices_used": 1,
            "total_deferrals": 1,
            "total_completed": 1,
            "throughput_jobs_per_tick": 1.0,
        },
    ),
    "whole-fleet-wait": (
        _whole_fleet_wait,
        {
            "devices": {
                FLEET_WIDE: _counters(deferred=8),
                **{name: _counters(deferred=8) for name in _NOT_TORONTO},
                "toronto": _counters(scheduled=1, completed=1, deferred=8),
            },
            "devices_used": 1,
            "total_deferrals": 64,
            "total_completed": 1,
            "throughput_jobs_per_tick": 1 / 9,
        },
    ),
    "retry-then-hit": (
        _retry_then_hit,
        {
            "devices": {
                FLEET_WIDE: _counters(deferred=1, cache_hits=1),
                "cairo": _counters(deferred=1),
                "toronto": _counters(scheduled=2, completed=1, retries=1),
            },
            "devices_used": 1,
            "total_deferrals": 2,
            "total_completed": 1,
            "throughput_jobs_per_tick": 0.2,
        },
    ),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_service_counters_match_pinned_snapshots(case):
    scenario, expected = PINNED[case]
    service = scenario()
    try:
        assert service.telemetry() == expected
    finally:
        service.close()


def test_every_decision_is_one_journal_row(tmp_path):
    """JobStore-level: each kind of row feeds its counter, a store's
    own counters cover only its session, and the tick total sums each
    session's span."""
    db = tmp_path / "fleet.db"
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=1)
    doomed = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=2)
    result = SerialExecutor().run([spec])[0]
    with JobStore(db) as first, JobStore(db) as second:
        assert first.telemetry(own=True) == {"devices": {}, "ticks": 0}
        first.enqueue(spec, tick=0)
        first.record_defer(
            spec.run_id,
            deferrals=[
                ("toronto", "predicted=0.900 cfar=True"),
                ("cairo", "predicted=0.800 cfar=False"),
                (None, "all devices transient"),
            ],
            tick=1,
        )
        first.mark_running(spec.run_id, "cairo", tick=2)
        first.record_retry(spec.run_id, "flaky", tick=3)
        first.mark_running(spec.run_id, "cairo", tick=4)
        first.mark_done(spec.run_id, result, tick=5)
        first.record_quarantine(spec.run_id, "toronto", 5, "consecutive transients")
        second.enqueue(doomed, tick=0)
        second.record_hits([spec.run_id], tick=7)
        # failed before any device claimed the row: filed under the worker
        second.mark_failed(doomed.run_id, "boom", tick=9, device="toronto")

        assert first.fetch(spec.run_id).defers == 1  # one whole-fleet wait
        assert (first.results.session, second.results.session) == (1, 2)
        # enqueue rows are not counted: spans run 1..5 and 7..9
        assert first.telemetry(own=True) == {
            "devices": {
                FLEET_WIDE: _counters(deferred=1),
                "cairo": _counters(
                    scheduled=2, completed=1, deferred=1, retries=1
                ),
                "toronto": _counters(deferred=1, quarantines=1),
            },
            "ticks": 5,
        }
        assert second.telemetry(own=True) == {
            "devices": {
                FLEET_WIDE: _counters(cache_hits=1),
                "toronto": _counters(failed=1),
            },
            "ticks": 3,
        }
    with JobStore(db) as reader:
        assert reader.telemetry(own=True) == {"devices": {}, "ticks": 0}
        assert reader.telemetry() == {
            "devices": {
                FLEET_WIDE: _counters(deferred=1, cache_hits=1),
                "cairo": _counters(
                    scheduled=2, completed=1, deferred=1, retries=1
                ),
                "toronto": _counters(deferred=1, quarantines=1, failed=1),
            },
            "ticks": 8,
        }


def test_two_services_on_one_file_count_their_own_sessions(tmp_path):
    db = str(tmp_path / "fleet.db")
    specs = [
        RunSpec(app="App1", scheme="baseline", iterations=4, seed=seed)
        for seed in (3, 4, 5)
    ]
    first = FleetService(machines=["toronto", "cairo"], db_path=db)
    second = FleetService(machines=["jakarta", "mumbai"], db_path=db)
    errors = []

    def run(service):
        try:
            service.run_specs(specs, timeout=120)
        except Exception as exc:  # noqa: BLE001 — collected for assert
            errors.append(exc)

    threads = [
        threading.Thread(target=run, args=(service,))
        for service in (first, second)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    try:
        assert errors == []
        done_rows = [
            entry
            for entry in first.store.results.journal_entries()
            if entry["event"] == "done"
        ]
        assert len(done_rows) == len(specs)
        assert (
            first.telemetry()["total_completed"]
            + second.telemetry()["total_completed"]
            == len(done_rows)
        )
        assert first.store.results.session != second.store.results.session
    finally:
        first.close()
        second.close()
