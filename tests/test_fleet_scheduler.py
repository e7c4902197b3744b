"""Fleet registry + clock + transient-aware routing decisions."""

import numpy as np
import pytest

from repro.fleet import (
    DeviceFleet,
    InjectedWindow,
    SchedulerConfig,
    SimulatedClock,
    TransientAwareScheduler,
)
from repro.runtime import RunSpec

QUIET = SchedulerConfig()


def _spec(app="App1"):
    return RunSpec(app=app, scheme="baseline", iterations=5, seed=7)


# -- clock -------------------------------------------------------------------


def test_clock_advances_by_positive_steps():
    clock = SimulatedClock()
    assert clock.now() == 0
    assert clock.advance(3) == 3
    with pytest.raises(ValueError):
        clock.advance(0)


# -- registry ----------------------------------------------------------------


def test_fleet_defaults_to_all_paper_machines():
    fleet = DeviceFleet(seed=1)
    assert len(fleet) == 7
    assert fleet.names() == sorted(
        ["guadalupe", "toronto", "sydney", "casablanca", "jakarta", "mumbai", "cairo"]
    )
    with pytest.raises(KeyError):
        fleet.device("osaka")
    with pytest.raises(ValueError):
        DeviceFleet(machines=["toronto", "Toronto"], seed=1)


def test_injected_window_overlays_monitor_trace():
    fleet = DeviceFleet(machines=["toronto"], seed=1)
    device = fleet.device("toronto")
    base = [device.observed(t) for t in range(10)]
    fleet.inject_transient("toronto", start=3, length=4, magnitude=0.5)
    for t in range(10):
        expected = base[t] + (0.5 if 3 <= t < 7 else 0.0)
        assert device.observed(t) == pytest.approx(expected)
    with pytest.raises(ValueError):
        InjectedWindow(start=-1, length=2, magnitude=0.5)
    with pytest.raises(ValueError):
        InjectedWindow(start=0, length=0, magnitude=0.5)


def test_observed_window_clamps_at_time_zero():
    fleet = DeviceFleet(machines=["toronto"], seed=1)
    device = fleet.device("toronto")
    assert device.observed_window(0, 32).shape == (1,)
    assert device.observed_window(5, 3).shape == (3,)
    full = device.observed_window(40, 32)
    assert full.shape == (32,)
    assert full[-1] == device.observed(40)


def test_calibration_snapshots_advance_with_ticks():
    fleet = DeviceFleet(machines=["toronto"], seed=1, recalibration_period=10)
    device = fleet.device("toronto")
    day0 = device.model_at(0)
    assert day0.calibration.cycle == 0
    day2 = device.model_at(25)
    assert day2.calibration.cycle == 2
    # refreshes drift the calibration, deterministically per fleet seed
    assert not np.array_equal(day0.calibration.t1_us, day2.calibration.t1_us)
    other = DeviceFleet(machines=["toronto"], seed=1, recalibration_period=10)
    assert np.array_equal(
        other.device("toronto").model_at(25).calibration.t1_us,
        day2.calibration.t1_us,
    )


def test_queue_depth_reserve_release():
    fleet = DeviceFleet(machines=["toronto"], seed=1)
    device = fleet.device("toronto")
    assert device.depth == 0
    device.reserve()
    device.reserve()
    assert device.depth == 2
    device.release()
    assert device.depth == 1
    device.release()
    with pytest.raises(RuntimeError):
        device.release()


# -- transient verdicts ------------------------------------------------------


def test_injected_window_flags_verdict():
    fleet = DeviceFleet(seed=1)
    scheduler = TransientAwareScheduler(fleet, config=QUIET)
    fleet.inject_transient("toronto", start=0, length=100, magnitude=0.9)
    verdict = scheduler.verdict(fleet.device("toronto"), tick=10)
    assert verdict.flagged
    assert verdict.observed > 0.9


def test_verdict_is_pure_function_of_tick():
    fleet = DeviceFleet(seed=5)
    scheduler = TransientAwareScheduler(fleet)
    device = fleet.device("sydney")
    first = scheduler.verdict(device, tick=17)
    second = scheduler.verdict(device, tick=17)
    assert first == second


def test_quiet_device_mostly_unflagged():
    fleet = DeviceFleet(seed=1)
    scheduler = TransientAwareScheduler(fleet)
    # Sydney is the fleet's smoothest machine (rare sharp phases); its
    # verdicts should be quiet most of the time. (Noisier machines can
    # legitimately spend long stretches flagged — e.g. mumbai's seed-1
    # monitor trace opens with an extended burst.)
    flagged = sum(
        scheduler.in_transient_window(fleet.device("sydney"), t)
        for t in range(200)
    )
    assert flagged < 60


# -- routing -----------------------------------------------------------------


def test_route_prefers_affinity_machine_when_idle():
    fleet = DeviceFleet(seed=1)
    scheduler = TransientAwareScheduler(fleet)
    # App1 is profiled on toronto; all depths equal => affinity wins
    # (unless toronto happens to be flagged at tick 0, which it is not
    # for this fleet seed).
    decision = scheduler.route(_spec("App1"), tick=0)
    assert decision.placed
    assert decision.device.name == "toronto"


def test_route_load_balances_on_queue_depth():
    fleet = DeviceFleet(seed=1)
    scheduler = TransientAwareScheduler(fleet)
    fleet.device("toronto").reserve()  # affinity machine is busy
    decision = scheduler.route(_spec("App1"), tick=0)
    assert decision.placed
    assert decision.device.name != "toronto"


def test_route_defers_away_from_injected_transient():
    fleet = DeviceFleet(seed=1)
    scheduler = TransientAwareScheduler(fleet)
    fleet.inject_transient("toronto", start=0, length=50, magnitude=0.9)
    decision = scheduler.route(_spec("App1"), tick=0)
    assert decision.placed
    assert decision.device.name != "toronto"
    assert [v.device for v in decision.deferred_from] == ["toronto"]


def test_route_returns_none_when_whole_fleet_transient():
    fleet = DeviceFleet(seed=1)
    scheduler = TransientAwareScheduler(fleet)
    for name in fleet.names():
        fleet.inject_transient(name, start=0, length=50, magnitude=0.9)
    decision = scheduler.route(_spec(), tick=0)
    assert not decision.placed
    assert len(decision.deferred_from) == len(fleet)
    forced = scheduler.route(_spec(), tick=0, force=True)
    assert forced.placed and forced.forced


def test_route_exclude_falls_back_instead_of_dead_ending():
    fleet = DeviceFleet(machines=["toronto", "sydney"], seed=1)
    scheduler = TransientAwareScheduler(fleet)
    decision = scheduler.route(_spec(), tick=0, exclude=["toronto", "sydney"])
    assert decision.placed  # exclusion of everything is ignored


def test_scheduler_config_validation():
    with pytest.raises(ValueError):
        SchedulerConfig(window=0)
    with pytest.raises(ValueError):
        SchedulerConfig(defer_budget=-1)
    with pytest.raises(ValueError):
        SchedulerConfig(transient_level=0.0)
