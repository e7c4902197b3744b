"""``python -m repro.fleet`` — submit plans, poll jobs, count fleet events.

Subcommands:

* ``submit``  — build an :class:`~repro.runtime.spec.ExperimentPlan` from
  flags (or a plan JSON file) and run it through the fleet service;
* ``drain``   — finish whatever an existing job store still owes:
  requeue stranded ``running`` rows (crash recovery) and execute every
  ``queued`` job; ``--resume`` additionally re-queues ``failed`` jobs
  (e.g. ones a timed-out drain marked with a ``timeout`` detail). A
  sweep killed mid-drain finishes with bit-identical payloads under
  ``drain --resume`` because every spec is seed-determined and
  ``mark_done`` dedupes against already-persisted results;
* ``status``  — per-status job counts and rows from a job store
  (``--expect done`` exits non-zero unless every job is done — the CI
  integration contract);
* ``stats``   — per-device utilization / deferral / throughput
  counters, counted from every row of the store's journal;
* ``devices`` — the fleet's machines and their transient profiles.

The job store path comes from ``--db`` or ``REPRO_FLEET_DB``; the file
is an experiment store, so ``python -m repro.store --store`` reads it too.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.fleet.executor import FLEET_DB_ENV, FleetExecutor
from repro.fleet.store import DONE, JobStore
from repro.runtime.spec import ExperimentPlan
from repro.store.export import export_plan_result


_TIMEOUT_HELP = (
    "wall-clock seconds for the drain, checked between jobs: the job in "
    "progress is not interrupted, and every job not yet started is marked "
    "failed (drain --resume re-queues it)"
)


def _db_path(args) -> Optional[str]:
    return args.db or os.environ.get(FLEET_DB_ENV, "").strip() or None


def _print_table(rows: List[List[str]], header: List[str]) -> None:
    widths = [
        max(len(str(row[i])) for row in [header, *rows])
        for i in range(len(header))
    ]
    for row in [header, *rows]:
        print("  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)))


# -- submit ------------------------------------------------------------------


def _plan_from_args(args) -> ExperimentPlan:
    if args.plan:
        with open(args.plan, "r", encoding="utf-8") as handle:
            return ExperimentPlan.from_dict(json.load(handle))
    return ExperimentPlan(
        apps=tuple(args.apps),
        schemes=tuple(args.schemes),
        iterations=args.iterations,
        seeds=tuple(args.seeds),
        shots=args.shots,
        name=args.name,
    )


def cmd_submit(args) -> int:
    plan = _plan_from_args(args)
    print(
        f"plan {plan.name or plan.plan_id}: {len(plan)} runs "
        f"({len(plan.apps)} apps x {len(plan.schemes)} schemes x "
        f"{len(plan.seeds)} seeds)"
    )
    with FleetExecutor(
        machines=args.machines or None,
        db_path=_db_path(args),
        seed=args.fleet_seed,
        timeout=args.timeout,
    ) as executor:
        outcome = executor.run_plan(plan)
        snapshot = executor.telemetry()
        rows = [
            [
                run.run_id,
                run.spec.app_name,
                run.spec.scheme,
                "cached" if run.from_cache else "done",
                f"{run.elapsed_s:.2f}s",
            ]
            for run in outcome
        ]
        _print_table(rows, ["run_id", "app", "scheme", "status", "elapsed"])
        print(
            f"\n{len(outcome)} runs | store hits {executor.hits} "
            f"| executed {executor.misses} "
            f"| devices used {snapshot['devices_used']} "
            f"| deferrals {snapshot['total_deferrals']}"
        )
        if args.export:
            export_plan_result(
                executor.results,
                [run.run_id for run in outcome],
                args.export,
                plan=plan.to_dict(),
            )
            print(f"plan result saved to {args.export}")
    return 0


# -- drain (crash-safe resume) -------------------------------------------------


def cmd_drain(args) -> int:
    from repro.fleet.service import FleetError, FleetService
    from repro.fleet.store import FAILED, QUEUED

    db = _db_path(args)
    if db is None:
        print("drain requires --db or REPRO_FLEET_DB", file=sys.stderr)
        return 2
    with FleetService(
        machines=args.machines or None,
        db_path=db,
        seed=args.fleet_seed,
    ) as service:
        # Constructing the service already requeued stranded `running`
        # rows (crash recovery); --resume also retries failed jobs.
        recovered = service.recovered
        pending = service.store.jobs(status=QUEUED)
        retried = []
        if args.resume:
            retried = service.store.jobs(status=FAILED)
        specs = [record.spec for record in pending + retried]
        print(
            f"drain: {recovered} recovered, {len(pending)} queued, "
            f"{len(retried)} failed re-queued"
        )
        if not specs:
            print("nothing to drain")
            return 0
        try:
            service.run_specs(specs, timeout=args.timeout)
        except (FleetError, TimeoutError) as exc:
            print(f"drain failed: {exc}", file=sys.stderr)
            return 1
        counts = service.store.counts()
    print(" | ".join(f"{status}={n}" for status, n in sorted(counts.items())))
    print(f"drained {len(specs)} job(s)")
    return 0


# -- status ------------------------------------------------------------------


def cmd_status(args) -> int:
    db = _db_path(args)
    if db is None:
        print("status requires --db or REPRO_FLEET_DB", file=sys.stderr)
        return 2
    with JobStore(db) as store:
        counts = store.counts()
        jobs = store.jobs(status=args.status)
    print(" | ".join(f"{status}={n}" for status, n in sorted(counts.items())))
    rows = [
        [
            record.run_id,
            record.spec.app_name,
            record.spec.scheme,
            record.status,
            record.device or "-",
            str(record.defers),
        ]
        for record in jobs[: args.limit]
    ]
    if rows:
        _print_table(
            rows, ["run_id", "app", "scheme", "status", "device", "defers"]
        )
    if args.expect:
        total = sum(counts.values())
        expected = counts.get(args.expect, 0)
        if total == 0 or expected != total:
            print(
                f"expectation failed: {expected}/{total} jobs are "
                f"{args.expect!r}",
                file=sys.stderr,
            )
            return 1
        print(f"all {total} jobs are {args.expect!r}")
    return 0


# -- stats -------------------------------------------------------------------


def stats_payload(store: JobStore) -> dict:
    """Assemble the ``stats`` view from the store's journal.

    Every service that ever wrote to the file counts
    (:meth:`JobStore.telemetry`), and the stored-results breakdown is
    the per-device ``completed`` counters — the ``done`` rows, each
    journaled with the device its payload was stored under — so no
    result payload is decoded.  ``tests/test_fleet_cli.py`` pins this
    against the store-derived numbers so the shortcut can never drift.
    """
    rollup = store.telemetry()
    devices = rollup["devices"]
    completed = sum(c["completed"] for c in devices.values())
    ticks = rollup["ticks"]
    return {
        "devices": devices,
        "ticks": ticks,
        "completed": completed,
        "throughput": completed / ticks if ticks else 0.0,
        "stored_results": {
            "total": completed,
            "by_device": {
                name: c["completed"]
                for name, c in sorted(devices.items())
                if c["completed"]
            },
        },
    }


def cmd_stats(args) -> int:
    db = _db_path(args)
    if db is None:
        print("stats requires --db or REPRO_FLEET_DB", file=sys.stderr)
        return 2
    with JobStore(db) as store:
        payload = stats_payload(store)
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    devices = payload["devices"]
    if not devices:
        print("no fleet events journaled yet")
        return 0
    total_completed = payload["completed"] or 1
    rows = [
        [
            name,
            str(c["scheduled"]),
            str(c["completed"]),
            str(c["failed"]),
            str(c["deferred"]),
            str(c["cache_hits"]),
            f"{100.0 * c['completed'] / total_completed:.0f}%",
        ]
        for name, c in sorted(devices.items())
    ]
    _print_table(
        rows,
        [
            "device",
            "scheduled",
            "completed",
            "failed",
            "deferred",
            "cached",
            "share",
        ],
    )
    ticks = payload["ticks"]
    completed = payload["completed"]
    if ticks:
        print(f"\nthroughput: {completed / ticks:.2f} jobs/tick over {ticks} ticks")
    stored = payload["stored_results"]
    if stored["total"]:
        breakdown = ", ".join(
            f"{name}={n}" for name, n in sorted(stored["by_device"].items())
        )
        print(f"stored results: {stored['total']} ({breakdown})")
    return 0


# -- devices -----------------------------------------------------------------


def cmd_devices(args) -> int:
    from repro.devices.ibmq_fake import available_machines, get_device
    from repro.noise.transient.trace_generator import profile_for_machine

    rows = []
    for name in args.machines or available_machines():
        device = get_device(name)
        profile = profile_for_machine(name)
        rows.append(
            [
                device.name,
                str(device.num_qubits),
                f"{device.mean_t1_us():.0f}us",
                f"{profile.spike_rate:.3f}",
                f"{profile.spike_magnitude:.2f}",
            ]
        )
    _print_table(
        rows, ["machine", "qubits", "mean T1", "spike rate", "spike mag"]
    )
    return 0


# -- parser ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    submit = sub.add_parser("submit", help="run a plan through the fleet")
    submit.add_argument("--apps", nargs="+", default=["App1"])
    submit.add_argument("--schemes", nargs="+", default=["baseline", "qismet"])
    submit.add_argument("--iterations", type=int, default=100)
    submit.add_argument("--seeds", nargs="+", type=int, default=[2023])
    submit.add_argument("--shots", type=int, default=8192)
    submit.add_argument("--name", default="fleet-cli")
    submit.add_argument("--plan", help="plan JSON file (overrides flags)")
    submit.add_argument("--machines", nargs="*", help="fleet machine subset")
    submit.add_argument("--db", help=f"job store path (or {FLEET_DB_ENV})")
    submit.add_argument("--fleet-seed", type=int, default=2023)
    submit.add_argument("--timeout", type=float, default=None, help=_TIMEOUT_HELP)
    submit.add_argument(
        "--export",
        help="export the plan result (store-backed) as PlanResult JSON",
    )
    submit.set_defaults(func=cmd_submit)

    drain = sub.add_parser(
        "drain", help="finish a job store's queued (and stranded) jobs"
    )
    drain.add_argument("--db", help=f"job store path (or {FLEET_DB_ENV})")
    drain.add_argument("--machines", nargs="*", help="fleet machine subset")
    drain.add_argument("--fleet-seed", type=int, default=2023)
    drain.add_argument("--timeout", type=float, default=None, help=_TIMEOUT_HELP)
    drain.add_argument(
        "--resume",
        action="store_true",
        help="also re-queue failed jobs (continue a killed/timed-out sweep)",
    )
    drain.set_defaults(func=cmd_drain)

    status = sub.add_parser("status", help="poll a job store")
    status.add_argument("--db", help=f"job store path (or {FLEET_DB_ENV})")
    status.add_argument("--status", help="filter rows by status")
    status.add_argument("--limit", type=int, default=50)
    status.add_argument(
        "--expect",
        nargs="?",
        const=DONE,
        help="exit non-zero unless ALL jobs have this status (default: done)",
    )
    status.set_defaults(func=cmd_status)

    stats = sub.add_parser(
        "stats", help="per-device counters from the store's journal"
    )
    stats.add_argument("--db", help=f"job store path (or {FLEET_DB_ENV})")
    stats.add_argument(
        "--json", action="store_true", help="emit the counters as JSON"
    )
    stats.set_defaults(func=cmd_stats)

    devices = sub.add_parser("devices", help="list fleet machines")
    devices.add_argument("--machines", nargs="*")
    devices.set_defaults(func=cmd_devices)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
