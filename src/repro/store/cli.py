"""``python -m repro.store`` — inspect and maintain the experiment store.

Subcommands::

    info            store summary (runs, blobs, apps, devices)
    query           list runs matching column filters
    aggregate       per-scheme geomean improvements over matching runs
    compact         drop unreferenced blobs and reclaim file space

The store path comes from ``--store`` or the ``REPRO_STORE`` environment
knob; every subcommand supports ``--json`` for machine-readable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, List, Optional

from repro.store.query import RunQuery
from repro.store.store import STORE_ENV, ExperimentStore, open_store


def _emit(payload: Any, as_json: bool) -> None:
    if as_json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if isinstance(payload, dict):
        for key, value in payload.items():
            print(f"{key:>16}: {value}")
    else:
        print(payload)


def _open(args: argparse.Namespace) -> ExperimentStore:
    store = open_store(args.store)
    if store.path == ":memory:":
        raise SystemExit(
            f"no store given: pass --store PATH or set {STORE_ENV}"
        )
    return store


def _query_from(args: argparse.Namespace) -> RunQuery:
    return RunQuery(
        apps=args.app or None,
        schemes=args.scheme or None,
        seeds=args.seed or None,
        devices=args.device or None,
        sources=args.source or None,
        limit=args.limit,
    )


def _add_filters(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--app", action="append", help="filter by app name")
    parser.add_argument("--scheme", action="append", help="filter by scheme")
    parser.add_argument("--seed", action="append", type=int, help="filter by seed")
    parser.add_argument("--device", action="append", help="filter by device")
    parser.add_argument(
        "--source", action="append", help="filter by source (executor/fleet)"
    )
    parser.add_argument("--limit", type=int, default=None, help="max rows")


def cmd_info(args: argparse.Namespace) -> int:
    with _open(args) as store:
        _emit(store.info(), args.json)
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    with _open(args) as store:
        rows = store.query_runs(_query_from(args))
    if args.json:
        _emit(
            [
                {
                    "seq": s.seq,
                    "run_id": s.run_id,
                    "app": s.app,
                    "scheme": s.scheme,
                    "seed": s.seed,
                    "trace_scale": s.trace_scale,
                    "iterations": s.iterations,
                    "device": s.device,
                    "source": s.source,
                    "ground_truth": s.ground_truth,
                    "elapsed_s": s.elapsed_s,
                    "created_at": s.created_at,
                }
                for s in rows
            ],
            True,
        )
        return 0
    header = (
        f"{'seq':>5}  {'run_id':16}  {'app':12}  {'scheme':14}"
        f"  {'seed':>6}  {'device':12}  {'source':8}"
    )
    print(header)
    print("-" * len(header))
    for s in rows:
        print(
            f"{s.seq:>5}  {s.run_id:16}  {s.app:12}  {s.scheme:14}"
            f"  {s.seed:>6}  {s.device or '-':12}  {s.source:8}"
        )
    print(f"{len(rows)} run(s)")
    return 0


def cmd_aggregate(args: argparse.Namespace) -> int:
    with _open(args) as store:
        values = store.aggregate(_query_from(args), baseline=args.baseline)
    _emit({k: float(v) for k, v in values.items()}, args.json)
    return 0


def cmd_compact(args: argparse.Namespace) -> int:
    with _open(args) as store:
        summary = store.compact()
    _emit(summary, args.json)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.store",
        description="Inspect and maintain the experiment store.",
    )
    parser.add_argument(
        "--store",
        default=None,
        help=f"store path (default: ${STORE_ENV})",
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="store summary").set_defaults(func=cmd_info)

    query = sub.add_parser("query", help="list runs matching filters")
    _add_filters(query)
    query.set_defaults(func=cmd_query)

    aggregate = sub.add_parser(
        "aggregate", help="per-scheme geomean improvements"
    )
    _add_filters(aggregate)
    aggregate.add_argument("--baseline", default="baseline")
    aggregate.set_defaults(func=cmd_aggregate)

    sub.add_parser(
        "compact", help="drop unreferenced blobs, reclaim space"
    ).set_defaults(func=cmd_compact)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
