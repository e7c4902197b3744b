"""RunSpec / ExperimentPlan: identity, expansion, serialization."""

import json

import pytest

from repro.experiments.registry import AppConfig, get_app, machine_app
from repro.runtime import ExperimentPlan, RunSpec, freeze_overrides, resolve_app


def test_run_spec_defaults_and_identity():
    spec = RunSpec(app="App1", scheme="baseline", iterations=100)
    assert spec.seed == 2023
    assert spec.shots == 8192
    assert spec.trace_scale == 1.0
    assert spec.app_name == "App1"
    assert len(spec.run_id) == 16
    # content-hash: same fields -> same id, any field change -> new id
    assert spec.run_id == RunSpec(app="App1", scheme="baseline", iterations=100).run_id
    assert spec.run_id != RunSpec(app="App1", scheme="qismet", iterations=100).run_id
    assert spec.run_id != RunSpec(app="App1", scheme="baseline", iterations=101).run_id
    assert spec.run_id != RunSpec(
        app="App1", scheme="baseline", iterations=100, seed=1
    ).run_id
    assert spec.run_id != RunSpec(
        app="App1", scheme="baseline", iterations=100, overrides={"retry_budget": 3}
    ).run_id


def test_run_spec_validation():
    with pytest.raises(KeyError):
        RunSpec(app="App1", scheme="nope", iterations=10)
    with pytest.raises(KeyError):
        RunSpec(app="App99", scheme="baseline", iterations=10)
    with pytest.raises(ValueError):
        RunSpec(app="App1", scheme="baseline", iterations=0)
    with pytest.raises(ValueError):
        RunSpec(app="App1", scheme="baseline", iterations=10, shots=0)
    with pytest.raises(TypeError):
        RunSpec(
            app="App1", scheme="baseline", iterations=10,
            overrides={"bad": object()},
        )


def test_run_spec_json_round_trip():
    spec = RunSpec(
        app="App2", scheme="qismet", iterations=50, seed=7, shots=1024,
        trace_scale=1.5, overrides={"retry_budget": 3, "theta0": (0.1, -0.2)},
    )
    wire = json.loads(json.dumps(spec.to_dict()))
    back = RunSpec.from_dict(wire)
    assert back == spec
    assert back.run_id == spec.run_id
    assert back.override_dict() == {"retry_budget": 3, "theta0": (0.1, -0.2)}


def test_run_spec_with_explicit_app_config():
    app = AppConfig("Custom", 6, "RA", 4, "jakarta", "v1")
    spec = RunSpec(app=app, scheme="baseline", iterations=10)
    assert spec.app_name == "Custom"
    back = RunSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert back == spec
    assert resolve_app(back.app) == app


def test_app_spelling_canonicalized_for_stable_cache_keys():
    """Equivalent app spellings must produce identical run_ids, or cache
    entries warmed through one entry point miss for another."""
    by_name = RunSpec(app="App1", scheme="baseline", iterations=10)
    by_config = RunSpec(app=get_app("App1"), scheme="baseline", iterations=10)
    assert by_config.app == "App1"
    assert by_name.run_id == by_config.run_id

    by_ref = RunSpec(app="machine:Sydney", scheme="baseline", iterations=10)
    by_machine = RunSpec(app=machine_app("sydney"), scheme="baseline", iterations=10)
    assert by_ref.app == by_machine.app == "machine:sydney"
    assert by_ref.run_id == by_machine.run_id

    # genuinely ad-hoc AppConfigs stay as-is
    custom = AppConfig("Custom", 6, "RA", 4, "jakarta", "v1")
    assert RunSpec(app=custom, scheme="baseline", iterations=10).app == custom

    plan = ExperimentPlan(
        apps=(get_app("App1"), machine_app("toronto")), schemes=("baseline",),
        iterations=10,
    )
    assert plan.apps == ("App1", "machine:toronto")


def test_resolve_app_forms():
    assert resolve_app("App3") == get_app("App3")
    machine = resolve_app("machine:sydney")
    assert machine == machine_app("sydney")
    assert machine.machine == "sydney"
    with pytest.raises(KeyError):
        resolve_app("AppX")


def test_freeze_overrides_sorts_and_freezes():
    frozen = freeze_overrides({"b": [1, 2], "a": 1.5})
    assert frozen == (("a", 1.5), ("b", (1, 2)))
    # hashable (usable in frozen dataclasses / dict keys)
    hash(frozen)


def test_plan_expansion_order_and_len():
    plan = ExperimentPlan(
        apps=("App1", "App2"), schemes=("baseline", "qismet"),
        iterations=30, seeds=(1, 2), trace_scales=(1.0, 2.0),
    )
    specs = plan.expand()
    assert len(specs) == len(plan) == 2 * 2 * 2 * 2
    # deterministic: apps outer, schemes inner; comparison cells adjacent
    assert [s.scheme for s in specs[:2]] == ["baseline", "qismet"]
    assert specs[0].comparison_key == specs[1].comparison_key
    assert specs[0].comparison_key == ("App1", 1, 1.0)
    assert specs[-1].comparison_key == ("App2", 2, 2.0)
    # expansion is stable
    assert [s.run_id for s in specs] == [s.run_id for s in plan.expand()]
    assert len(plan.plan_id) == 16


def test_plan_validation_and_round_trip():
    with pytest.raises(ValueError):
        ExperimentPlan(apps=(), schemes=("baseline",), iterations=10)
    with pytest.raises(ValueError):
        ExperimentPlan(apps=("App1",), schemes=(), iterations=10)
    plan = ExperimentPlan(
        apps=("App1", machine_app("toronto")), schemes=("baseline",),
        iterations=10, seeds=(3,), overrides={"retry_budget": 2}, name="t",
    )
    back = ExperimentPlan.from_dict(json.loads(json.dumps(plan.to_dict())))
    assert back == plan
    assert back.plan_id == plan.plan_id


def test_plan_single_is_one_comparison_cell():
    plan = ExperimentPlan.single(
        "App1", ("baseline", "qismet"), 40, seed=5, trace_scale=2.0
    )
    specs = plan.expand()
    assert len(specs) == 2
    assert {s.scheme for s in specs} == {"baseline", "qismet"}
    assert all(s.seed == 5 and s.trace_scale == 2.0 for s in specs)
