"""Declarative sweeps: ExperimentPlan + the experiment store.

Declares one plan over 2 apps x 3 schemes x 2 seeds (12 VQE runs), runs
it on the environment-selected executor (``REPRO_EXECUTOR=serial``,
``parallel`` or ``fleet`` — default parallel here), then re-runs it
through a store-backed CachedExecutor twice to show that the second
pass is served entirely from the store (identical numbers, ~zero cost)
and that the store's query/aggregate API reproduces the figure-builder
numbers bit-for-bit.

Run:  python examples/experiment_sweep.py
      REPRO_STORE=results.sqlite python examples/experiment_sweep.py
      REPRO_EXECUTOR=fleet REPRO_FLEET_DB=fleet.db \
          python examples/experiment_sweep.py
"""

import os
import tempfile
import time

from repro.runtime import ExperimentPlan, executor_for
from repro.store import ExperimentStore, RunQuery

ITERATIONS = 120

PLAN = ExperimentPlan(
    apps=("App1", "App2"),
    schemes=("baseline", "qismet", "blocking"),
    iterations=ITERATIONS,
    seeds=(7, 8),
    name="example-sweep",
)


def show(outcome) -> None:
    print(f"  {len(outcome)} runs | VQE wall-clock {outcome.total_elapsed_s:.1f}s "
          f"| cache hits {outcome.cache_hits}")
    for (app, seed, _scale), comp in sorted(outcome.comparisons().items()):
        ratios = ", ".join(
            f"{scheme}={ratio:.3f}"
            for scheme, ratio in sorted(comp.improvements().items())
        )
        print(f"  {app} seed={seed}: {ratios}")
    print(f"  geomean: {outcome.geomean_improvements()}")


def main() -> None:
    print(f"plan {PLAN.name!r}: {len(PLAN)} runs "
          f"({len(PLAN.apps)} apps x {len(PLAN.schemes)} schemes x "
          f"{len(PLAN.seeds)} seeds), id {PLAN.plan_id}")

    kind = os.environ.get("REPRO_EXECUTOR") or "parallel"
    executor = executor_for(kind)
    print(f"\n[1] {type(executor).__name__} (environment-selected)")
    start = time.perf_counter()
    first = executor.run_plan(PLAN)
    print(f"  elapsed {time.perf_counter() - start:.1f}s")
    show(first)
    close = getattr(executor, "close", None)
    if close is not None:
        close()

    with tempfile.TemporaryDirectory() as scratch:
        store = ExperimentStore(os.path.join(scratch, "store.sqlite"))

        print("\n[2] CachedExecutor over a fresh store, cold")
        executor = executor_for("parallel", store=store)
        start = time.perf_counter()
        cold = executor.run_plan(PLAN)
        print(f"  elapsed {time.perf_counter() - start:.1f}s "
              f"(hits={executor.hits}, misses={executor.misses})")

        print("\n[3] same executor, warm store")
        start = time.perf_counter()
        warm = executor.run_plan(PLAN)
        print(f"  elapsed {time.perf_counter() - start:.1f}s "
              f"(hits={executor.hits}, misses={executor.misses})")
        show(warm)

        same = all(
            cold_run.to_dict()["result"] == warm_run.to_dict()["result"]
            for cold_run, warm_run in zip(cold, warm)
        )
        print(f"\nwarm pass bit-equal to cold pass: {same}")

        print("\n[4] store query + aggregates")
        store.record_plan(PLAN)
        query = RunQuery(run_ids=[run.run_id for run in warm])
        info = store.info()
        print(f"  {info['runs']} runs, {info['blobs']} blobs "
              f"({info['payload_bytes']} payload bytes) at {info['path']}")
        aggregate = store.aggregate(query)
        print(f"  aggregate: {aggregate}")
        print(f"  store matches PlanResult bit-for-bit: "
              f"{aggregate == warm.geomean_improvements()}")
        store.close()


if __name__ == "__main__":
    main()
