"""Design-choice ablations beyond the paper's own figures.

* retry budget sweep (paper Section 8.1 fixes it at 5);
* QISMET overhead accounting (Section 8.3's ">= 2x circuits" claim);
* trust-region SPSA interaction (step bounding vs transient kicks).
"""

from bench_helpers import print_table, run_once

from repro.experiments.config import default_iterations
from repro.experiments.registry import get_app
from repro.experiments.runner import ComparisonResult
from repro.runtime import ExperimentPlan, RunSpec, executor_for


def retry_budget_sweep(seed=43, executor=None):
    """One spec per (budget, scheme) cell, executed in a single fan-out —
    the overrides sweep the plan runtime was built for."""
    iterations = default_iterations(800, 200)
    app = get_app("App5")
    budgets = (0, 1, 5, 10)
    schemes = ("baseline", "qismet")
    specs = [
        RunSpec(
            app=app, scheme=scheme, iterations=iterations, seed=seed,
            overrides={"retry_budget": budget},
        )
        for budget in budgets
        for scheme in schemes
    ]
    runs = (executor or executor_for()).run(specs)
    rows = {}
    for index, budget in enumerate(budgets):
        pair = runs[index * len(schemes):(index + 1) * len(schemes)]
        comp = ComparisonResult(
            app_name=app.name,
            ground_truth=app.ground_truth_energy(),
            results={run.scheme: run.result for run in pair},
        )
        rows[budget] = comp.improvements()["qismet"]
    return rows


def test_ablation_retry_budget(benchmark):
    rows = run_once(benchmark, retry_budget_sweep)
    print_table(
        "Ablation: QISMET retry budget (expectation rel. baseline)",
        [(f"budget={k}", v) for k, v in sorted(rows.items())],
    )
    # budget 0 degenerates toward the baseline (every rejection is forced
    # through); some budget should not be dramatically worse than none.
    assert all(v > 0.5 for v in rows.values())


def overhead_accounting(seed=44):
    iterations = default_iterations(600, 200)
    app = get_app("App2")
    plan = ExperimentPlan.single(app, ["baseline", "qismet"], iterations, seed=seed)
    comp = executor_for().run_plan(plan).comparison(app.name)
    base, qis = comp.results["baseline"], comp.results["qismet"]
    return {
        "baseline_circuits_per_job": base.total_circuits / base.total_jobs,
        "qismet_circuits_per_job": qis.total_circuits / qis.total_jobs,
        "qismet_job_overhead": qis.total_jobs / base.total_jobs,
        "qismet_skip_fraction": qis.total_retries / qis.total_jobs,
    }


def test_ablation_overhead(benchmark):
    stats = run_once(benchmark, overhead_accounting)
    print_table(
        "Ablation: QISMET overheads (paper Sec 8.3: >= 2x circuits)",
        sorted(stats.items()),
    )
    # Every QISMET execution instance reruns the reference: ~2x circuits.
    assert stats["qismet_circuits_per_job"] > 1.9
    assert stats["baseline_circuits_per_job"] < 1.1
    # Skips bounded by the 10% budget (plus retry multiplicity).
    assert stats["qismet_job_overhead"] < 1.6


def trust_region_interaction(seed=45, executor=None):
    """Bounded vs unbounded SPSA steps on the same transient trace: two
    specs differing only in the ``spsa_trust_radius`` override, so both
    rows share every random stream."""
    from repro.experiments.metrics import tail_energy

    iterations = default_iterations(600, 200)
    app = get_app("App5")
    variants = (("unbounded", {}), ("trust=0.1", {"spsa_trust_radius": 0.1}))
    specs = [
        RunSpec(
            app=app, scheme="baseline", iterations=iterations, seed=seed,
            overrides=overrides,
        )
        for _, overrides in variants
    ]
    runs = (executor or executor_for()).run(specs)
    return {
        label: tail_energy(run.result)
        for (label, _), run in zip(variants, runs)
    }


def test_ablation_trust_region(benchmark):
    rows = run_once(benchmark, trust_region_interaction)
    print_table(
        "Ablation: SPSA trust region under transients (final true energy)",
        sorted(rows.items()),
    )
    # Step bounding mitigates transient kicks: bounded is at least as good.
    assert rows["trust=0.1"] <= rows["unbounded"] + 0.5
