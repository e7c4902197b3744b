"""FleetService / FleetExecutor: the ISSUE acceptance criteria.

* fleet results are bit-identical to the serial executor's;
* jobs distribute across >= 3 devices;
* an injected transient window causes >= 1 deferral;
* resubmitting a plan hits the job store and re-executes nothing.
"""

import numpy as np
import pytest

from repro.fleet import FleetError, FleetExecutor, FleetService
from repro.fleet.store import DONE, FAILED
from repro.fleet.telemetry import FLEET_WIDE
from repro.runtime import ExperimentPlan, RunSpec, SerialExecutor

PLAN = ExperimentPlan(
    apps=("App1", "App2"),
    schemes=("baseline", "qismet"),
    iterations=6,
    seeds=(3, 4),
    name="fleet-test",
)


def test_fleet_results_bit_identical_to_serial():
    serial = SerialExecutor().run_plan(PLAN)
    with FleetExecutor() as executor:
        fleet = executor.run_plan(PLAN)
    assert len(fleet) == len(serial) == 8
    for serial_run, fleet_run in zip(serial, fleet):
        assert serial_run.spec == fleet_run.spec
        assert serial_run.to_dict()["result"] == fleet_run.to_dict()["result"]


def test_jobs_distribute_across_at_least_three_devices():
    with FleetExecutor() as executor:
        executor.run_plan(PLAN)
        snapshot = executor.telemetry.snapshot()
    assert snapshot["devices_used"] >= 3
    assert snapshot["total_completed"] == 8


def test_injected_transient_window_defers_jobs():
    service = FleetService()
    # App1's affinity machine is turbulent: with every queue empty the
    # scheduler would otherwise pick toronto first, so the injected
    # window must produce a deferral away from it.
    service.fleet.inject_transient("toronto", start=0, length=300, magnitude=0.9)
    spec = RunSpec(app="App1", scheme="baseline", iterations=5, seed=7)
    results = service.run_specs([spec], timeout=120)
    snapshot = service.telemetry.snapshot()
    assert snapshot["devices"]["toronto"]["deferred"] >= 1
    assert snapshot["devices"]["toronto"]["completed"] == 0
    record = service.store.fetch(spec.run_id)
    assert record.is_done and record.device != "toronto"
    assert record.defers >= 1
    # the deferral changed *where* the job ran, not *what* it computed
    serial = SerialExecutor().run([spec])[0]
    assert serial.to_dict()["result"] == results[0].to_dict()["result"]
    service.close()


def test_whole_fleet_transient_defers_then_recovers():
    service = FleetService()
    for name in service.fleet.names():
        service.fleet.inject_transient(name, start=0, length=4, magnitude=0.9)
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=5)
    service.run_specs([spec], timeout=120)
    snapshot = service.telemetry.snapshot()
    assert snapshot["devices"][FLEET_WIDE]["deferred"] >= 1
    assert service.clock.now() > 4  # the clock waited out the window
    assert service.store.counts()[DONE] == 1
    service.close()


def test_resubmission_hits_store_and_reexecutes_nothing(tmp_path):
    db = tmp_path / "fleet.db"
    with FleetExecutor(db_path=db) as executor:
        first = executor.run_plan(PLAN)
        assert executor.misses == 8 and executor.hits == 0
    # A brand-new service over the same store: everything is a hit.
    with FleetExecutor(db_path=db) as executor:
        second = executor.run_plan(PLAN)
        assert executor.hits == 8 and executor.misses == 0
        assert all(run.from_cache for run in second)
        assert executor.telemetry.snapshot()["total_completed"] == 0
    for first_run, second_run in zip(first, second):
        assert first_run.to_dict()["result"] == second_run.to_dict()["result"]


def test_duplicate_specs_execute_once():
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=9)
    with FleetExecutor() as executor:
        results = executor.run([spec, spec, spec])
        assert len(results) == 3
        assert executor.telemetry.snapshot()["total_completed"] == 1
    assert (
        results[0].to_dict()["result"]
        == results[1].to_dict()["result"]
        == results[2].to_dict()["result"]
    )


def test_failed_jobs_raise_and_are_requeued_on_resubmit():
    bad_seed = 13

    def flaky_execute(spec):
        if spec.seed == bad_seed:
            raise RuntimeError("injected failure")
        from repro.runtime.execute import execute_run

        return execute_run(spec)

    service = FleetService(execute=flaky_execute)
    good = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=1)
    bad = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=bad_seed)
    with pytest.raises(FleetError, match="injected failure"):
        service.run_specs([good, bad], timeout=120)
    counts = service.store.counts()
    assert counts[DONE] == 1 and counts[FAILED] == 1
    assert "injected failure" in service.store.fetch(bad.run_id).error
    # resubmission re-queues the failed job; with the failure gone it runs
    service.execute = __import__(
        "repro.runtime.execute", fromlist=["execute_run"]
    ).execute_run
    results = service.run_specs([good, bad], timeout=120)
    assert service.store.counts()[DONE] == 2
    assert results[0].from_cache and not results[1].from_cache
    service.close()


def test_run_specs_preserves_input_order():
    specs = [
        RunSpec(app="App1", scheme="noise-free", iterations=3, seed=s)
        for s in (5, 1, 9)
    ]
    with FleetExecutor() as executor:
        results = executor.run(specs)
    assert [r.spec for r in results] == specs
    assert all(np.isfinite(r.result.final_true_energy) for r in results)


def test_plan_result_regroups_into_comparisons():
    with FleetExecutor() as executor:
        outcome = executor.run_plan(PLAN)
    comp = outcome.comparison("App1", seed=3)
    assert set(comp.results) == {"baseline", "qismet"}
    assert set(outcome.geomean_improvements()) == {"baseline", "qismet"}


def test_double_submit_before_drain_executes_once():
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=21)
    service = FleetService()
    service.submit([spec])
    service.submit([spec])  # resubmission attaches to the queued job
    service.drain(timeout=120)
    assert service.telemetry.snapshot()["total_completed"] == 1
    assert service.store.counts()[DONE] == 1
    service.close()


def test_stale_failed_job_does_not_poison_other_plans(tmp_path):
    db = tmp_path / "fleet.db"

    def always_fail(spec):
        raise RuntimeError("device exploded")

    doomed = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=33)
    service = FleetService(db_path=str(db), execute=always_fail)
    with pytest.raises(FleetError):
        service.run_specs([doomed], timeout=120)
    service.close()

    # A different plan on the same store must not see the stale failure.
    other = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=34)
    with FleetExecutor(db_path=db) as executor:
        results = executor.run([other])
    assert len(results) == 1 and results[0].spec == other


def test_harness_failure_fails_job_instead_of_wedging():
    service = FleetService()

    def broken_verdict(device, tick):
        raise RuntimeError("monitor offline")

    service.scheduler.in_transient_window = broken_verdict
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=41)
    with pytest.raises(FleetError, match="fleet internal error"):
        service.run_specs([spec], timeout=120)  # must not hang
    assert service.store.counts()[FAILED] == 1
    service.close()


def test_telemetry_persisted_per_drain_without_close(tmp_path):
    # executor_for("fleet") users never call close(); the rollup must still
    # land in the store at the end of each drain.
    db = tmp_path / "fleet.db"
    from repro.fleet import JobStore

    executor = FleetExecutor(db_path=db)
    executor.run([RunSpec(app="App1", scheme="noise-free", iterations=3)])
    with JobStore(db) as probe:
        rollup = probe.telemetry()
    assert sum(c["completed"] for c in rollup["devices"].values()) == 1
    # closing afterwards must not double-count the same counters
    executor.close()
    with JobStore(db) as probe:
        rollup = probe.telemetry()
    assert sum(c["completed"] for c in rollup["devices"].values()) == 1


def test_store_defers_match_job_budget_accounting():
    service = FleetService()
    for name in service.fleet.names():
        service.fleet.inject_transient(name, start=0, length=3, magnitude=0.9)
    spec = RunSpec(app="App1", scheme="noise-free", iterations=3, seed=55)
    service.run_specs([spec], timeout=120)
    record = service.store.fetch(spec.run_id)
    # every fleet-wide wait and every routed-away device landed in the
    # store's per-job counter
    assert record.defers >= 3
    service.close()


def test_submit_after_close_rejected():
    service = FleetService()
    service.close()
    with pytest.raises(RuntimeError):
        service.submit([RunSpec(app="App1", scheme="noise-free", iterations=3)])
