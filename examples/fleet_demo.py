"""The fleet scheduling service: jobs across seven simulated IBMQ machines.

Declares a plan, submits it to ``repro.fleet`` (transient-aware scheduler
+ persistent SQLite job store + one worker thread per device), and shows:

1. jobs distributed across the fleet, with per-device utilization and
   deferral counters (counted from the job store's journal, where every
   scheduling decision is one row);
2. a scripted transient window (Toronto turbulent from tick 0) causing
   QISMET-style deferrals away from that machine — with bit-identical
   results, because every run is fully seed-determined;
3. resubmission of the same plan deduping against the job store — nothing
   re-executes.

Run:  python examples/fleet_demo.py
"""

import tempfile
import time
from pathlib import Path

from repro.fleet import FleetExecutor
from repro.runtime import ExperimentPlan

ITERATIONS = 60

PLAN = ExperimentPlan(
    apps=("App1", "App2", "App5"),
    schemes=("baseline", "qismet"),
    iterations=ITERATIONS,
    seeds=(7, 8),
    name="fleet-demo",
)


def show_counters(executor: FleetExecutor) -> None:
    snapshot = executor.telemetry()
    for name, counters in sorted(snapshot["devices"].items()):
        print(
            f"  {name:>12}: completed={counters['completed']:<3}"
            f" deferred={counters['deferred']:<3}"
            f" failed={counters['failed']}"
        )
    print(
        f"  devices used: {snapshot['devices_used']}"
        f" | deferrals: {snapshot['total_deferrals']}"
        f" | throughput: {snapshot['throughput_jobs_per_tick']:.2f} jobs/tick"
    )


def main() -> None:
    print(
        f"plan {PLAN.name!r}: {len(PLAN)} runs "
        f"({len(PLAN.apps)} apps x {len(PLAN.schemes)} schemes x "
        f"{len(PLAN.seeds)} seeds)"
    )

    with tempfile.TemporaryDirectory() as tmp:
        db = Path(tmp) / "fleet.db"

        print("\n[1] fleet run with a scripted transient window on toronto")
        with FleetExecutor(db_path=db) as executor:
            # Toronto is turbulent for the first 400 ticks: the scheduler
            # should route its jobs elsewhere and count the deferrals.
            executor.fleet.inject_transient(
                "toronto", start=0, length=400, magnitude=0.8
            )
            start = time.perf_counter()
            first = executor.run_plan(PLAN)
            print(f"  elapsed {time.perf_counter() - start:.1f}s")
            show_counters(executor)
            toronto = executor.telemetry()["devices"].get("toronto")
            print(
                "  toronto deferrals during injected window: "
                f"{toronto['deferred'] if toronto else 0}"
            )

        print("\n[2] resubmission dedupes against the job store")
        with FleetExecutor(db_path=db) as executor:
            start = time.perf_counter()
            second = executor.run_plan(PLAN)
            print(
                f"  elapsed {time.perf_counter() - start:.1f}s "
                f"(store hits={executor.hits}, executed={executor.misses})"
            )

        same = all(
            a.to_dict()["result"] == b.to_dict()["result"]
            for a, b in zip(first, second)
        )
        print(f"\nresubmitted results bit-equal to first pass: {same}")
        print(f"geomean improvements: {second.geomean_improvements()}")


if __name__ == "__main__":
    main()
