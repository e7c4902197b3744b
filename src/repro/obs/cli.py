"""``python -m repro.obs`` — trace capture, reports and metrics.

Subcommands:

``trace <script> [args...]``
    Run a Python script under tracing and export a Chrome trace
    (default ``trace.json``; override with ``--out``).

``report``
    Per-phase time breakdown + cache scoreboard from an exported trace
    file (``--trace``, default ``$REPRO_TRACE_EXPORT`` or
    ``trace.json``) or from the latest summary in a store
    (``--store``).  ``--format text|json|markdown``.

``metrics``
    Dump the metrics snapshot embedded in a trace file or persisted in
    a store.

``validate``
    Check a trace file against the Chrome trace-event schema (CI uses
    this on the traced example sweep).
"""

from __future__ import annotations

import argparse
import json
import os
import runpy
import sys
from typing import Any, Dict, List, Optional

from repro.obs.export import (
    export_chrome_trace,
    load_trace_summaries,
    validate_chrome_trace,
)
from repro.obs.report import (
    build_report,
    render_json,
    render_markdown,
    render_text,
)
from repro.obs.trace import EXPORT_ENV, TRACER


def _default_trace_path() -> str:
    return os.environ.get(EXPORT_ENV) or "trace.json"


def _load_document(path: str) -> Dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise SystemExit(
            f"error: no trace file at {path!r} — run with REPRO_TRACE=1 and "
            f"REPRO_TRACE_EXPORT={path!r}, or use `python -m repro.obs trace`"
        )
    except json.JSONDecodeError as exc:
        raise SystemExit(f"error: {path!r} is not valid JSON: {exc}")


def _open_store(path: Optional[str]):
    from repro.store.store import open_store

    return open_store(path or None)


def cmd_trace(args: argparse.Namespace) -> int:
    TRACER.reset()
    TRACER.configure(enabled=True, export_path=args.out)
    os.environ["REPRO_TRACE"] = "1"  # child processes inherit tracing
    sys.argv = [args.script] + list(args.script_args)
    try:
        runpy.run_path(args.script, run_name="__main__")
    finally:
        document = export_chrome_trace(args.out)
        print(
            f"wrote {args.out} "
            f"({len(document['traceEvents'])} events) — load it at "
            f"https://ui.perfetto.dev",
            file=sys.stderr,
        )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    if args.store is not None:
        store = _open_store(args.store)
        try:
            summaries = load_trace_summaries(store, limit=1)
        finally:
            store.close()
        if not summaries:
            raise SystemExit("error: store holds no trace summaries")
        summary = summaries[0]
        report = {
            "wall_s": summary.get("wall_s", 0.0),
            "accounted_s": sum(
                b.get("self_s", 0.0)
                for b in summary.get("phases", {}).values()
            ),
            "phases": summary.get("phases", {}),
            "counters": summary.get("metrics", {}).get("counters", {}),
        }
        wall = report["wall_s"]
        report["coverage"] = report["accounted_s"] / wall if wall else 0.0
        for bucket in report["phases"].values():
            bucket.setdefault(
                "share", bucket.get("self_s", 0.0) / wall if wall else 0.0
            )
        from repro.obs.report import cache_scoreboard, kernel_scoreboard

        report["cache"] = cache_scoreboard({"counters": report["counters"]})
        report["kernel"] = kernel_scoreboard(
            {"counters": report["counters"]}
        )
    else:
        document = _load_document(args.trace or _default_trace_path())
        report = build_report(document=document)
    renderers = {
        "text": render_text,
        "json": render_json,
        "markdown": render_markdown,
    }
    print(renderers[args.format](report))
    return 0


def cmd_metrics(args: argparse.Namespace) -> int:
    if args.store is not None:
        store = _open_store(args.store)
        try:
            summaries = load_trace_summaries(store, limit=1)
        finally:
            store.close()
        if not summaries:
            raise SystemExit("error: store holds no trace summaries")
        metrics = summaries[0].get("metrics", {})
    else:
        document = _load_document(args.trace or _default_trace_path())
        metrics = document.get("otherData", {}).get("metrics", {})
    if args.json:
        print(json.dumps(metrics, indent=2, sort_keys=True))
        return 0
    for name, value in sorted(metrics.get("counters", {}).items()):
        print(f"{name:<44} {value}")
    for name, value in sorted(metrics.get("gauges", {}).items()):
        print(f"{name:<44} {value}")
    for name, summary in sorted(metrics.get("histograms", {}).items()):
        print(
            f"{name:<44} count={summary.get('count', 0)} "
            f"mean={summary.get('mean', 0.0):.6g}"
        )
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    path = args.trace or _default_trace_path()
    document = _load_document(path)
    try:
        events = validate_chrome_trace(document)
    except ValueError as exc:
        print(f"INVALID: {path}: {exc}", file=sys.stderr)
        return 1
    categories = sorted(
        {e.get("cat", "") for e in events if e.get("ph") == "X"}
    )
    print(f"OK: {path}: {len(events)} events, categories: "
          f"{', '.join(c for c in categories if c)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Tracing, metrics and profiling reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    trace = sub.add_parser("trace", help="run a script under tracing")
    trace.add_argument("script", help="path to the Python script to run")
    trace.add_argument("script_args", nargs="*", help="arguments for it")
    trace.add_argument("--out", default="trace.json",
                       help="Chrome trace output path")
    trace.set_defaults(func=cmd_trace)

    report = sub.add_parser("report", help="per-phase breakdown + caches")
    report.add_argument("--trace", default=None,
                        help="trace file (default $REPRO_TRACE_EXPORT)")
    report.add_argument("--store", nargs="?", const="", default=None,
                        help="read latest summary from a store instead")
    report.add_argument("--format", choices=("text", "json", "markdown"),
                        default="text")
    report.set_defaults(func=cmd_report)

    metrics = sub.add_parser("metrics", help="dump the metrics snapshot")
    metrics.add_argument("--trace", default=None)
    metrics.add_argument("--store", nargs="?", const="", default=None)
    metrics.add_argument("--json", action="store_true")
    metrics.set_defaults(func=cmd_metrics)

    validate = sub.add_parser(
        "validate", help="check a trace file against the trace-event schema"
    )
    validate.add_argument("--trace", default=None)
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
