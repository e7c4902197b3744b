"""Smoke tests: the example scripts' building blocks stay runnable.

The examples themselves are exercised at reduced scale here so CI catches
API drift without paying their full runtime.
"""

import importlib.util
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, EXAMPLES / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_examples_exist():
    for name in (
        "quickstart",
        "h2_dissociation",
        "scheme_comparison",
        "device_transient_analysis",
        "experiment_sweep",
        "fleet_demo",
    ):
        assert (EXAMPLES / f"{name}.py").exists()


def test_experiment_sweep_plan_declared():
    sweep = _load("experiment_sweep")
    # acceptance shape: >= 2 apps x >= 3 schemes x >= 2 seeds
    assert len(sweep.PLAN.apps) >= 2
    assert len(sweep.PLAN.schemes) >= 3
    assert len(sweep.PLAN.seeds) >= 2
    specs = sweep.PLAN.expand()
    assert len({spec.run_id for spec in specs}) == len(sweep.PLAN)


def test_scheme_comparison_plan_small(tmp_path):
    comparison = _load("scheme_comparison")
    from repro.runtime import CachedExecutor, ExperimentPlan, SerialExecutor

    plan = ExperimentPlan.single(
        comparison.get_app("App2"), ("baseline", "qismet"), 8,
        seed=comparison.SEED,
    )
    executor = CachedExecutor(tmp_path / "cache", inner=SerialExecutor())
    outcome = executor.run_plan(plan)
    assert set(outcome.comparison("App2").results) == {"baseline", "qismet"}
    assert executor.misses == 2


def test_fleet_demo_plan_and_reduced_run(tmp_path):
    demo = _load("fleet_demo")
    assert len(demo.PLAN) == 12
    # the demo's moves, at reduced scale: inject a window, run, resubmit
    from repro.fleet import FleetExecutor
    from repro.runtime import ExperimentPlan

    plan = ExperimentPlan.single(
        "App1", ("baseline",), 4, seed=7, name="fleet-demo-smoke"
    )
    db = tmp_path / "fleet.db"
    with FleetExecutor(db_path=db) as executor:
        executor.fleet.inject_transient("toronto", 0, 100, magnitude=0.8)
        executor.run_plan(plan)
        assert executor.telemetry()["devices"]["toronto"]["deferred"] >= 1
    with FleetExecutor(db_path=db) as executor:
        again = executor.run_plan(plan)
        assert executor.hits == 1 and all(r.from_cache for r in again)


def test_quickstart_builders():
    quickstart = _load("quickstart")
    vqe = quickstart.build_vqe(use_qismet=True)
    assert vqe.controller is not None
    result = vqe.run(12, seed=1)
    assert result.iterations == 12


def test_h2_example_solver_small():
    h2 = _load("h2_dissociation")
    energy = h2.solve("noise-free", 0.735, index=0)
    # a short run should land below the HF reference region
    assert energy < -0.8


def test_device_analysis_main_runs(capsys):
    analysis = _load("device_transient_analysis")
    analysis.main()
    out = capsys.readouterr().out
    assert "T1 fluctuations" in out
    assert "guadalupe" in out
