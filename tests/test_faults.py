"""repro.faults unit tests: plan grammar, deterministic schedules, retry.

The chaos-level properties (no lost jobs, fault-free vs faulty parity,
crash/resume) live in ``test_fleet_recovery.py``; this file pins the
building blocks — the ``REPRO_FAULTS`` grammar round-trips, schedules
are pure functions of their seeds, and the retry policy's budget,
backoff and classification behave exactly as documented.
"""

import pytest

from repro.faults import (
    DEFAULT_RETRYABLE,
    FAULTS_ENV,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    RETRY_MAX_ENV,
    RetryPolicy,
    call_with_retry,
)
from repro.faults.inject import CORRUPT_PREFIX


# -- plan grammar --------------------------------------------------------------


def test_parse_render_round_trip():
    text = (
        "execute.run:fail:rate=0.25:seed=11"
        ";jobstore.mark_done:crash:hits=3"
        ";store.blob.read:corrupt:hits=0,2:max=2"
        ";jobstore.*:latency:latency=0.001:detail=disk stall"
    )
    plan = FaultPlan.parse(text)
    assert len(plan.specs) == 4
    assert plan.specs[0] == FaultSpec(
        site="execute.run", kind="fail", rate=0.25, seed=11
    )
    assert plan.specs[1].hits == (3,)
    assert plan.specs[2].max_triggers == 2
    assert plan.specs[3].detail == "disk stall"
    # render() emits the same schedule; parsing it again is a fixpoint
    assert FaultPlan.parse(plan.render()) == plan


@pytest.mark.parametrize(
    "text",
    [
        "execute.run",  # missing kind
        "execute.run:explode",  # unknown kind
        "execute.run:fail:rate",  # option without =
        "execute.run:fail:bogus=1",  # unknown option
        "execute.run:fail:rate=1.5",  # rate out of range
        "execute.run:fail:hits=-1",  # negative hit index
        "execute.run:fail:max=0",  # max below 1
        ":fail",  # empty site
    ],
)
def test_malformed_plan_text_rejected(text):
    with pytest.raises(ValueError):
        FaultPlan.parse(text)


def test_site_glob_matching():
    spec = FaultSpec(site="jobstore.*", kind="fail")
    assert spec.matches("jobstore.enqueue")
    assert spec.matches("jobstore.mark_done.commit")
    assert not spec.matches("store.blob.read")
    plan = FaultPlan(specs=(spec,))
    assert plan.matching("jobstore.enqueue") == (spec,)
    assert plan.matching("execute.run") == ()


# -- deterministic schedules ---------------------------------------------------


def _drive(injector, sites, runs, invocations=3):
    """Fire every (site, run) pair a few times, collecting outcomes."""
    outcomes = []
    for index in range(invocations):
        for site in sites:
            for run in runs:
                try:
                    injector.fire(site, run_id=run)
                    outcomes.append((site, run, index, "ok"))
                except InjectedFault:
                    outcomes.append((site, run, index, "fail"))
                except InjectedCrash:
                    outcomes.append((site, run, index, "crash"))
    return outcomes


def test_schedule_reproduces_bit_identically_across_three_fault_classes():
    plan = FaultPlan.parse(
        "execute.run:fail:rate=0.5"
        ";jobstore.mark_done:crash:hits=1"
        ";store.blob.write:corrupt:rate=0.5",
        seed=7,
    )
    sites = ("execute.run", "jobstore.mark_done")
    runs = ("run-a", "run-b", "run-c")

    def one_pass():
        injector = FaultInjector()
        injector.install(plan)
        outcomes = _drive(injector, sites, runs)
        for index in range(3):
            for run in runs:
                payload = injector.corrupt(
                    "store.blob.write", f"payload-{run}", run_id=run
                )
                outcomes.append(
                    ("store.blob.write", run, index, payload)
                )
        return outcomes, injector.trace()

    first_outcomes, first_trace = one_pass()
    second_outcomes, second_trace = one_pass()
    assert first_outcomes == second_outcomes
    assert first_trace == second_trace
    kinds = {event["kind"] for event in first_trace}
    assert kinds == {"fail", "crash", "corrupt"}  # all three classes fired


def test_schedule_immune_to_interleaving():
    """Decisions key on the per-(site, run) index, not global call order."""
    plan = FaultPlan.parse("execute.run:fail:hits=1", seed=7)

    forward = FaultInjector()
    forward.install(plan)
    _drive(forward, ("execute.run",), ("run-a", "run-b"))

    reversed_order = FaultInjector()
    reversed_order.install(plan)
    _drive(reversed_order, ("execute.run",), ("run-b", "run-a"))

    assert forward.trace() == reversed_order.trace()


def test_hits_rate_and_max_semantics():
    injector = FaultInjector()
    # hits wins over rate; max caps total triggers across keys
    injector.install(
        FaultPlan.parse("execute.run:fail:hits=0,2:max=2")
    )
    outcomes = _drive(injector, ("execute.run",), ("a", "b"), invocations=4)
    fails = [o for o in outcomes if o[3] == "fail"]
    assert len(fails) == 2  # hits would allow 4 (2 keys x 2 indices); max=2
    assert all(o[2] in (0, 2) for o in fails)

    # rate=0 never fires, rate=1 always fires
    injector.install(FaultPlan.parse("execute.run:fail:rate=0"))
    assert all(
        o[3] == "ok"
        for o in _drive(injector, ("execute.run",), ("a",), invocations=5)
    )
    injector.install(FaultPlan.parse("execute.run:fail"))
    assert all(
        o[3] == "fail"
        for o in _drive(injector, ("execute.run",), ("a",), invocations=5)
    )


def test_corrupt_prefix_breaks_payload():
    injector = FaultInjector()
    injector.install(FaultPlan.parse("store.blob.write:corrupt:hits=0"))
    mangled = injector.corrupt("store.blob.write", '{"x": 1}', run_id="r")
    assert mangled.startswith(CORRUPT_PREFIX)
    clean = injector.corrupt("store.blob.write", '{"x": 1}', run_id="r")
    assert clean == '{"x": 1}'  # invocation 1 is past the scheduled hit


def test_no_plan_is_a_noop():
    injector = FaultInjector()
    injector.install(None)
    injector.fire("execute.run", run_id="r")  # must not raise
    assert injector.corrupt("site", "payload", run_id="r") == "payload"
    assert injector.trace() == []


def test_env_plan_resolved_lazily(monkeypatch):
    monkeypatch.setenv(FAULTS_ENV, "execute.run:fail:hits=0")
    injector = FaultInjector()  # no install(): resolves from env on fire
    with pytest.raises(InjectedFault):
        injector.fire("execute.run", run_id="r")
    injector.fire("execute.run", run_id="r")  # index 1: clean


# -- retry policy --------------------------------------------------------------


def test_crash_never_retryable():
    policy = RetryPolicy(retryable=(RuntimeError,))
    assert not policy.is_retryable(InjectedCrash("site", 0))
    assert policy.is_retryable(RuntimeError("x"))


def test_default_retryable_excludes_deterministic_failures():
    policy = RetryPolicy()
    assert policy.is_retryable(InjectedFault("site", "fail", 0))
    assert policy.is_retryable(TimeoutError())
    assert not policy.is_retryable(RuntimeError("same inputs, same crash"))
    assert not policy.is_retryable(ValueError("bad spec"))
    assert InjectedCrash not in DEFAULT_RETRYABLE


def test_backoff_ticks_deterministic_and_exponential():
    policy = RetryPolicy(backoff_base=2, backoff_factor=2.0, jitter=3, seed=5)
    schedule = [policy.backoff_ticks("job-1", a) for a in (1, 2, 3)]
    assert schedule == [policy.backoff_ticks("job-1", a) for a in (1, 2, 3)]
    # jitter-free floor grows exponentially; jitter adds at most 3
    for attempt, ticks in enumerate(schedule, start=1):
        floor = 2 * 2 ** (attempt - 1)
        assert floor <= ticks <= floor + 3
    # different labels de-synchronize
    other = [policy.backoff_ticks("job-2", a) for a in (1, 2, 3)]
    assert schedule != other or policy.jitter == 0


def test_backoff_always_at_least_one_tick():
    policy = RetryPolicy(backoff_base=0, jitter=0)
    assert policy.backoff_ticks("job", 1) == 1


def test_from_env(monkeypatch):
    monkeypatch.setenv(RETRY_MAX_ENV, "7")
    policy = RetryPolicy.from_env()
    assert policy.max_attempts == 7
    # explicit overrides win; malformed env falls back to defaults
    assert RetryPolicy.from_env(max_attempts=2).max_attempts == 2
    monkeypatch.setenv(RETRY_MAX_ENV, "not-a-number")
    assert RetryPolicy.from_env().max_attempts == RetryPolicy().max_attempts


def test_call_with_retry_succeeds_after_transients():
    calls = []

    def flaky():
        calls.append(1)
        if len(calls) < 3:
            raise InjectedFault("site", "fail", len(calls) - 1)
        return "ok"

    slept = []
    result = call_with_retry(
        flaky,
        policy=RetryPolicy(max_attempts=3, jitter=0),
        label="job",
        sleep=slept.append,
    )
    assert result == "ok"
    assert len(calls) == 3
    assert slept == [1, 2]  # base 1, factor 2, no jitter


def test_call_with_retry_gives_up_after_budget():
    calls = []

    def always_failing():
        calls.append(1)
        raise InjectedFault("site", "fail", len(calls) - 1)

    with pytest.raises(InjectedFault):
        call_with_retry(
            always_failing, policy=RetryPolicy(max_attempts=2), label="job"
        )
    assert len(calls) == 2


def test_call_with_retry_does_not_retry_crashes_or_deterministic_errors():
    crash_calls = []

    def crashing():
        crash_calls.append(1)
        raise InjectedCrash("site", 0)

    with pytest.raises(InjectedCrash):
        call_with_retry(crashing, policy=RetryPolicy(max_attempts=5))
    assert len(crash_calls) == 1

    value_calls = []

    def deterministic():
        value_calls.append(1)
        raise ValueError("same inputs, same failure")

    with pytest.raises(ValueError):
        call_with_retry(deterministic, policy=RetryPolicy(max_attempts=5))
    assert len(value_calls) == 1
