"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` lists the same metrics; the benchmark's tests check
that the two agree.
"""

#: (name, unit, better) of every end-to-end metric (``--trace 0``).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("evals_per_s", "1/s", "higher"),
    ("warm_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

#: (name, unit, better) of every per-layer metric (``--trace 1``).
PER_LAYER = (
    ("vqa.run.self_s", "s", "lower"),
    ("vqa.record_evals", "count", "lower"),
    ("optimizers.propose.calls", "count", "lower"),
    ("optimizers.propose.self_s", "s", "lower"),
    ("core.decide.calls", "count", "lower"),
    ("core.decide.self_s", "s", "lower"),
    ("core.guarded_energy.calls", "count", "lower"),
    ("core.retry_ratio", "ratio", "lower"),
    ("core.skip_fraction", "ratio", "lower"),
    ("core.forced_accepts", "count", "lower"),
    ("backends.job_energy.calls", "count", "lower"),
    ("backends.job_energy.self_s", "s", "lower"),
    ("backends.evaluate_jobs.calls", "count", "lower"),
    ("backends.evaluate_jobs.rows_per_call", "rows", "higher"),
    ("objective.ideal_energy.calls", "count", "lower"),
    ("objective.ideal_energy.busy_s", "s", "lower"),
    ("objective.ideal_energy.p50_us", "us", "lower"),
    ("objective.ideal_energy.p99_us", "us", "lower"),
    ("objective.batch_energies.calls", "count", "lower"),
    ("objective.batch_energies.rows_per_call", "rows", "higher"),
    ("objective.batch_energies.busy_s", "s", "lower"),
    ("simulator.run_plan.calls", "count", "lower"),
    ("simulator.run_plan.p50_us", "us", "lower"),
    ("simulator.run_flat.calls", "count", "lower"),
    ("simulator.run_flat.busy_s", "s", "lower"),
    ("simulator.bytes_per_eval", "B", "lower"),
    ("operators.expectation.busy_s", "s", "lower"),
    ("compiler.plan_cache.hit_ratio", "ratio", "higher"),
    ("compiler.compile.busy_s", "s", "lower"),
    ("runtime.execute_run.calls", "count", "lower"),
    ("runtime.build.busy_s", "s", "lower"),
    ("store.append.busy_s", "s", "lower"),
    ("store.get.calls", "count", "lower"),
    ("store.get.p50_us", "us", "lower"),
    ("store.hit_ratio", "ratio", "higher"),
    ("store.query.busy_s", "s", "lower"),
    ("fleet.route.calls", "count", "lower"),
    ("fleet.route.p50_us", "us", "lower"),
    ("fleet.deferrals", "count", "lower"),
    ("fleet.job_wait_s", "s", "lower"),
    ("fleet.jobstore.busy_s", "s", "lower"),
    ("fleet.drain.self_s", "s", "lower"),
    ("layer.vqa.self_s", "s", "lower"),
    ("layer.optimizers.self_s", "s", "lower"),
    ("layer.core.self_s", "s", "lower"),
    ("layer.backends.self_s", "s", "lower"),
    ("layer.objective.self_s", "s", "lower"),
    ("layer.simulator.self_s", "s", "lower"),
    ("layer.operators.self_s", "s", "lower"),
    ("layer.compiler.self_s", "s", "lower"),
    ("layer.runtime.self_s", "s", "lower"),
    ("layer.store.self_s", "s", "lower"),
    ("layer.fleet.self_s", "s", "lower"),
    ("trace.pass_s", "s", "lower"),
    ("trace.coverage", "ratio", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

#: Per-call latency metrics: (metric, span name, percentile).
CALL_LATENCIES = (
    ("objective.ideal_energy.p50_us", "objective.ideal_energy", 0.50),
    ("objective.ideal_energy.p99_us", "objective.ideal_energy", 0.99),
    ("simulator.run_plan.p50_us", "simulator.run_plan", 0.50),
    ("store.get.p50_us", "store.get", 0.50),
    ("fleet.route.p50_us", "fleet.route", 0.50),
)
