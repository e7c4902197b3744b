"""Render a markdown report from saved benchmark results.

Every ``perfbench/run.py`` invocation saves its summary under
``.bench_build/perfbench/results/``. This script reads them and prints,
per workload, the end-to-end metrics of the untraced runs (median and
quartiles across runs) and the traced per-layer self-time table with the
share of wall time attributed to named layers and the tracing overhead::

    python3 perfbench/report.py [results-dir] > report.md
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.metrics import END_TO_END  # noqa: E402
from perfbench.tracing import LAYERS  # noqa: E402

DEFAULT_RESULTS = ROOT / ".bench_build" / "perfbench" / "results"


def load(directory: Path) -> List[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(directory.glob("*.json"))
    ]


def value_of(summary: dict, name: str):
    for result in summary["results"] + summary.get("quality", []):
        if result["name"] == name:
            return result["value"]
    return None


def median_quartiles(values: Sequence[float]) -> str:
    if not values:
        return "-"
    median = statistics.median(values)
    if len(values) < 2:
        return f"{median:.4g}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def end_to_end_table(summaries: List[dict]) -> List[str]:
    header = ["workload", "runs"] + [f"{name} ({unit})" for name, unit, _ in END_TO_END]
    header += ["qismet_gain", "energy_gap (Ha)", "fail_frac"]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    by_workload: Dict[str, List[dict]] = {}
    for summary in summaries:
        by_workload.setdefault(summary["workload"], []).append(summary)
    for workload, runs in sorted(by_workload.items()):
        row = [workload, str(len(runs))]
        for name, _, _ in END_TO_END + (("qismet_gain", "", ""), ("energy_gap", "", "")):
            values = [v for v in (value_of(run, name) for run in runs) if v is not None]
            row.append(median_quartiles(values))
        attempted = sum(run["attempted"] for run in runs)
        failed = sum(run["failed"] for run in runs)
        row.append(f"{failed / attempted:.3g} ({failed}/{attempted})" if attempted else "-")
        lines.append("| " + " | ".join(row) + " |")
    return lines


def layer_table(summaries: List[dict]) -> List[str]:
    layers = sorted(set(LAYERS.values()))
    header = ["workload", "pass (s)", "coverage", "overhead"] + [f"{layer} self" for layer in layers]
    lines = [
        "| " + " | ".join(header) + " |",
        "|" + "---|" * len(header),
    ]
    for summary in sorted(summaries, key=lambda s: (s["workload"], s["seed"])):
        pass_s = value_of(summary, "trace.pass_s") or 0.0
        row = [
            f"{summary['workload']} (seed {summary['seed']})",
            f"{pass_s:.4g}",
            f"{100 * (value_of(summary, 'trace.coverage') or 0.0):.1f}%",
            f"{value_of(summary, 'trace.overhead_ratio') or 0.0:.3f}x",
        ]
        for layer in layers:
            self_s = value_of(summary, f"layer.{layer}.self_s") or 0.0
            share = 100 * self_s / pass_s if pass_s else 0.0
            row.append(f"{self_s:.3g} s ({share:.1f}%)" if self_s else "-")
        lines.append("| " + " | ".join(row) + " |")
    return lines


def render(summaries: List[dict]) -> str:
    untraced = [s for s in summaries if not s["trace"]]
    traced = [s for s in summaries if s["trace"]]
    lines = ["# perfbench report", ""]
    if summaries:
        env = summaries[0]["metadata"]["environment"]
        lines += [
            f"Machine: {env['cpu']}, nproc {env['nproc']}, Python {env['python']},"
            f" NumPy {env['numpy']}; library knobs {env['resolved']}.",
            "",
        ]
    lines += [
        "## End-to-end (untraced), median [q1, q3] across runs",
        "",
        *end_to_end_table(untraced),
        "",
        "qismet_gain and energy_gap are deterministic per seed (quality guards);"
        " fail_frac counts runs that raised or failed the reference check.",
        "",
        "## Per-layer self time (traced pass, median over traced passes)",
        "",
        *layer_table(traced),
        "",
        "Self time is a layer's span time minus the time its child spans cover;"
        " coverage is the share of the pass inside any named layer; overhead is"
        " traced / untraced pass time in the same process.",
    ]
    return "\n".join(lines) + "\n"


def main(argv) -> int:
    directory = Path(argv[0]) if argv else DEFAULT_RESULTS
    summaries = load(directory)
    if not summaries:
        print(f"no results under {directory}", file=sys.stderr)
        return 1
    sys.stdout.write(render(summaries))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
