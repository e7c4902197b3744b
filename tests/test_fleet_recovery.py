"""Chaos and crash-recovery properties of the fleet (the ISSUE gates).

* **No lost jobs**: under injected transient failures every submitted
  job still reaches ``done``, and the stored payloads are byte-identical
  to a fault-free run (the determinism contract makes retries safe).
* **Deterministic chaos**: the same fault plan against the same workload
  injects the same faults — the injector traces match run-over-run.
* **Crash safety**: a crash between payload persist and status commit
  leaves a ``running`` row that the next service recovers and completes
  bit-identically; a SIGKILLed CLI sweep resumes with ``drain --resume``.
* **Shared stores**: two concurrent services on one database file never
  lose or duplicate work (idempotent ``mark_done``); corrupt payloads
  self-heal on resubmission.
* **Degradation**: repeated failures quarantine a device; probes
  re-admit it when clean.
"""

import os
import signal
import sqlite3
import subprocess
import sys
import threading
import time
from typing import Dict

import pytest

from repro.faults import INJECTOR, FaultPlan, RetryPolicy
from repro.fleet import DeviceHealth, FleetExecutor, FleetService, HealthConfig
from repro.fleet.store import DONE, FAILED, QUEUED, RUNNING
from repro.runtime import RunSpec
from repro.runtime.execute import execute_run

MACHINES = ["toronto", "cairo"]

SPECS = [
    RunSpec(app="App1", scheme="baseline", iterations=4, seed=seed)
    for seed in (3, 4, 5)
]

#: run_id -> canonical stored payload text from a fault-free fleet run.
_REFERENCE: Dict[str, str] = {}


@pytest.fixture(autouse=True)
def clean_injector():
    INJECTOR.uninstall()
    yield
    INJECTOR.uninstall()


def stored_payloads(service, specs) -> Dict[str, str]:
    return {
        spec.run_id: service.store.results.get_stored(spec.run_id).payload
        for spec in specs
    }


def reference_payloads() -> Dict[str, str]:
    """Fault-free payload bytes for SPECS (computed once per session)."""
    if not _REFERENCE:
        INJECTOR.uninstall()
        with FleetService(machines=MACHINES) as service:
            service.run_specs(SPECS, timeout=120)
            _REFERENCE.update(stored_payloads(service, SPECS))
    return _REFERENCE


# -- chaos parity --------------------------------------------------------------


def chaos_sweep():
    """One faulty sweep: first attempt of every job fails, then latency."""
    INJECTOR.install(
        FaultPlan.parse(
            "execute.run:fail:hits=0"
            ";jobstore.mark_done:latency:latency=0.001"
        )
    )
    service = FleetService(
        machines=MACHINES,
        retry=RetryPolicy(max_attempts=3, jitter=0),
    )
    try:
        service.run_specs(SPECS, timeout=120)
        counts = service.store.counts()
        payloads = stored_payloads(service, SPECS)
        attempts = {
            spec.run_id: service.store.fetch(spec.run_id).attempts
            for spec in SPECS
        }
        return counts, payloads, attempts, INJECTOR.trace()
    finally:
        service.close()


def test_chaos_sweep_loses_no_jobs_and_matches_fault_free_bytes():
    counts, payloads, attempts, trace = chaos_sweep()
    assert counts[DONE] == len(SPECS)  # zero lost jobs
    assert counts.get(FAILED, 0) == 0
    assert payloads == reference_payloads()  # byte-identical parity
    assert all(count == 1 for count in attempts.values())  # one retry each
    assert [event["site"] for event in trace].count("execute.run") == len(SPECS)


def test_chaos_schedule_is_deterministic_run_over_run():
    first = chaos_sweep()
    second = chaos_sweep()
    assert first == second  # counts, payloads, attempts AND fault trace


def test_retry_lifecycle_recorded_in_journal():
    INJECTOR.install(FaultPlan.parse("execute.run:fail:hits=0"))
    spec = SPECS[0]
    with FleetService(
        machines=MACHINES, retry=RetryPolicy(max_attempts=3, jitter=0)
    ) as service:
        service.run_specs([spec], timeout=120)
        events = [
            entry["event"]
            for entry in service.store.results.journal_entries(spec.run_id)
        ]
        snapshot = service.telemetry.snapshot()
    assert events == ["enqueue", "running", "retry", "running", "done"]
    retried = sum(
        counters.get("retries", 0)
        for counters in snapshot["devices"].values()
    )
    assert retried >= 1


# -- crash safety --------------------------------------------------------------


def test_crash_before_commit_recovers_bit_identically(tmp_path):
    db = str(tmp_path / "fleet.db")
    spec = SPECS[0]
    INJECTOR.install(
        FaultPlan.parse("jobstore.mark_done.commit:crash:hits=0")
    )
    first = FleetService(machines=MACHINES, db_path=db)
    try:
        first.submit([spec])
        first.drain(timeout=120)
        # The crash hit between payload persist and the status flip:
        # the row is stranded mid-transition, the payload already stored.
        assert first.store.counts()[RUNNING] == 1
    finally:
        first.close()

    INJECTOR.uninstall()
    second = FleetService(machines=MACHINES, db_path=db)
    try:
        assert second.recovered == 1  # requeued on open
        second.run_specs([spec], timeout=120)
        assert second.store.counts()[DONE] == 1
        payload = second.store.results.get_stored(spec.run_id).payload
        events = [
            entry["event"]
            for entry in second.store.results.journal_entries(spec.run_id)
        ]
    finally:
        second.close()
    assert payload == reference_payloads()[spec.run_id]
    assert events == ["enqueue", "running", "requeue", "running", "done"]


def _job_counts(db: str) -> Dict[str, int]:
    """Poll job statuses without opening a JobStore (whose constructor
    requeues ``running`` rows — exactly what a poller must not do)."""
    conn = sqlite3.connect(db, timeout=10)
    try:
        rows = conn.execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        ).fetchall()
    finally:
        conn.close()
    return {status: count for status, count in rows}


def test_sigkill_mid_sweep_then_drain_resume(tmp_path):
    db = str(tmp_path / "fleet.db")
    env = dict(
        os.environ,
        PYTHONPATH="src",
        # Stretch every commit so the poller reliably observes a
        # mid-sweep state before the kill.
        REPRO_FAULTS="jobstore.mark_done:latency:latency=0.5",
    )
    child = subprocess.Popen(
        [
            sys.executable, "-m", "repro.fleet", "submit",
            "--apps", "App1", "--schemes", "baseline", "qismet",
            "--iterations", "10", "--seeds", "3", "4", "5",
            "--db", db, "--machines", *MACHINES,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    total = 6
    deadline = time.time() + 120
    try:
        while time.time() < deadline:
            counts = _job_counts(db) if os.path.exists(db) else {}
            if 1 <= counts.get(DONE, 0) < total:
                break
            if child.poll() is not None:
                pytest.fail("sweep finished before it could be killed")
            time.sleep(0.02)
        else:
            pytest.fail("sweep never reached a mid-drain state")
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    finally:
        if child.poll() is None:
            child.kill()
            child.wait(timeout=30)

    counts = _job_counts(db)
    assert counts.get(DONE, 0) < total  # the kill interrupted real work

    resume = subprocess.run(
        [
            sys.executable, "-m", "repro.fleet", "drain", "--resume",
            "--db", db, "--machines", *MACHINES, "--timeout", "300",
        ],
        env=dict(os.environ, PYTHONPATH="src"),
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert resume.returncode == 0, resume.stderr
    assert _job_counts(db) == {DONE: total}

    # Bit-identical to an uninterrupted sweep of the same plan.
    specs = [
        RunSpec(app="App1", scheme=scheme, iterations=10, seed=seed)
        for scheme in ("baseline", "qismet")
        for seed in (3, 4, 5)
    ]
    with FleetService(machines=MACHINES) as clean:
        clean.run_specs(specs, timeout=300)
        expected = stored_payloads(clean, specs)
    conn = sqlite3.connect(db, timeout=10)
    try:
        blob_for = dict(
            conn.execute(
                "SELECT runs.run_id, blobs.data FROM runs"
                " JOIN blobs ON blobs.hash = runs.payload_hash"
            ).fetchall()
        )
    finally:
        conn.close()
    assert {spec.run_id: blob_for[spec.run_id] for spec in specs} == expected


# -- shared stores -------------------------------------------------------------


def test_concurrent_services_on_one_store_lose_nothing(tmp_path):
    db = str(tmp_path / "fleet.db")
    first = FleetService(machines=MACHINES, db_path=db)
    second = FleetService(machines=["jakarta", "mumbai"], db_path=db)
    errors = []

    def run(service):
        try:
            service.run_specs(SPECS, timeout=120)
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
        assert first.store.counts()[DONE] == len(SPECS)
        assert stored_payloads(first, SPECS) == reference_payloads()
    finally:
        first.close()
        second.close()


def test_requeue_while_first_writer_still_running(tmp_path):
    db = str(tmp_path / "fleet.db")
    spec = SPECS[0]
    started = threading.Event()
    release = threading.Event()

    def gated_execute(run_spec):
        started.set()
        assert release.wait(60)
        return execute_run(run_spec)

    first = FleetService(machines=["toronto"], db_path=db, execute=gated_execute)
    first.submit([spec])
    drainer = threading.Thread(target=first.drain, kwargs={"timeout": 120})
    drainer.start()
    try:
        assert started.wait(60)
        # The row is mid-flight (`running`) on the shared store: a second
        # writer opening the database requeues it as stranded.
        second = FleetService(machines=["cairo"], db_path=db)
        assert second.recovered == 1
        second.close()
    finally:
        release.set()
        drainer.join(timeout=120)
    # The straggler's completion still landed: queued -> done is allowed
    # precisely so a live writer beats a concurrent requeue verdict.
    assert first.store.counts()[DONE] == 1
    # ... and a resubmission dedupes against the stored payload.
    third = FleetService(machines=MACHINES, db_path=db)
    results = third.run_specs([spec], timeout=120)
    assert third.store_hits == 1
    payload = third.store.results.get_stored(spec.run_id).payload
    third.close()
    first.close()
    assert len(results) == 1
    assert payload == reference_payloads()[spec.run_id]


def test_corrupt_payload_self_heals_on_resubmission(tmp_path):
    db = str(tmp_path / "fleet.db")
    spec = SPECS[0]
    with FleetService(machines=MACHINES, db_path=db) as service:
        service.run_specs([spec], timeout=120)
    conn = sqlite3.connect(db)
    conn.execute("UPDATE blobs SET data = 'garbage'")
    conn.commit()
    conn.close()

    with FleetService(machines=MACHINES, db_path=db) as service:
        # Enqueue notices the done row's payload fails its content
        # address, requeues it, and the deterministic workload
        # regenerates the bytes in flight.
        executor = FleetExecutor(service=service, timeout=120)
        results = executor.run([spec])
        assert service.store_hits == 0
        # ... so the run was executed, not served from the store.
        assert not results[0].from_cache
        assert (executor.hits, executor.misses) == (0, 1)
        payload = service.store.results.get_stored(spec.run_id).payload
        events = [
            entry["event"]
            for entry in service.store.results.journal_entries(spec.run_id)
        ]
    assert len(results) == 1
    assert payload == reference_payloads()[spec.run_id]
    assert "heal" in events


# -- drain timeout (satellite a) ----------------------------------------------


def test_drain_timeout_strands_no_running_rows():
    release = threading.Event()

    def wedged_execute(run_spec):
        assert release.wait(60)
        return execute_run(run_spec)

    service = FleetService(machines=["toronto"], execute=wedged_execute)
    spec = SPECS[0]
    service.submit([spec])
    try:
        with pytest.raises(TimeoutError):
            service.drain(timeout=0.3)
        counts = service.store.counts()
        assert counts[RUNNING] == 0  # nothing stranded mid-flight
        assert counts[QUEUED] == 0
        assert counts[FAILED] == 1
        record = service.store.fetch(spec.run_id)
        assert "timeout" in record.error
    finally:
        release.set()
        service.close()


# -- degradation ---------------------------------------------------------------


def test_consecutive_failures_quarantine_then_probe_readmits():
    health = DeviceHealth(HealthConfig(failure_threshold=3, quarantine_ticks=4))
    assert not health.record_failure("toronto", tick=10)
    assert not health.record_failure("toronto", tick=11)
    assert health.record_failure("toronto", tick=12)  # newly quarantined
    assert health.quarantines == 1
    assert health.blocked("toronto", tick=13)
    assert health.blocked("toronto", tick=15)
    # At the window's end a flagged probe extends, a clean one re-admits.
    assert health.blocked("toronto", tick=16, probe=lambda name: True)
    assert health.blocked("toronto", tick=17)  # extension in force
    assert not health.blocked("toronto", tick=20, probe=lambda name: False)
    assert health.quarantined_devices() == {}
    # Re-quarantining the same device is not double-counted while active.
    health.record_failure("cairo", tick=0)
    health.record_failure("cairo", tick=0)
    assert health.record_failure("cairo", tick=0)
    assert health.quarantines == 2


def test_success_clears_consecutive_counters():
    health = DeviceHealth(HealthConfig(failure_threshold=2))
    health.record_failure("toronto", tick=0)
    health.record_success("toronto")
    assert not health.record_failure("toronto", tick=1)  # streak broken
    health.record_transient("toronto", tick=1)
    health.record_success("toronto")
    assert health.quarantined_devices() == {}


def test_transient_streak_quarantines():
    health = DeviceHealth(HealthConfig(transient_threshold=3))
    assert not health.record_transient("sydney", tick=0)
    assert not health.record_transient("sydney", tick=1)
    assert health.record_transient("sydney", tick=2)
    assert "sydney" in health.quarantined_devices()


def test_fleet_routes_around_quarantined_device():
    spec = SPECS[0]
    health = DeviceHealth(HealthConfig(quarantine_ticks=10_000))
    # App1's affinity machine starts quarantined: routing must pick
    # another device rather than wait out the (enormous) window.
    health.record_failure("toronto", tick=0)
    health.record_failure("toronto", tick=0)
    health.record_failure("toronto", tick=0)
    with FleetService(machines=["toronto", "cairo"], health=health) as service:
        service.run_specs([spec], timeout=120)
        record = service.store.fetch(spec.run_id)
        payload = service.store.results.get_stored(spec.run_id).payload
    assert record.is_done and record.device == "cairo"
    assert payload == reference_payloads()[spec.run_id]
