"""The repository benchmark: paper-workload wall time, evaluations/s and
per-layer self time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig17-grid --seed 0 --seconds 25 --trace 0

Workloads (see ``perfbench/workloads.py``): ``fig17-grid``,
``fleet-sweep``, ``wide-14q``. ``--seed`` selects the
workload's inputs (the same seed always gives the same ``RunSpec``\\ s).

With ``--trace 0`` the run measures, with no instrumentation installed:

* ``setup_s`` — import, input generation, first ansatz compile and plan
  cache warm; the median of three set-ups (this process plus two fresh
  interpreters);
* ``wall_s`` — one cold pass against a fresh on-disk store, median over
  the passes that fit in ``--seconds``;
* ``evals_per_s`` — circuits executed in a cold pass (sum of
  ``total_circuits``, retries and reruns included) / its wall time;
* ``warm_s`` — re-submitting the same specs against the populated store,
  reading the comparisons back;
* ``peak_rss_mb`` — peak resident memory of this process.

With ``--trace 1`` it alternates untraced passes with passes traced by
wrappers around each layer's public entry points
(``perfbench/tracing.py``) and reports per-layer counts, busy/self times,
call latencies, the share of wall time attributed to named layers and the
traced/untraced overhead. Spans are written to
``.bench_build/perfbench/spans/``.

Every pass is checked against ``perfbench/references.json`` (final true
energy to 1e-6 Ha, ``total_circuits`` exactly, the QISMET gain to 1e-6
relative) and warm results must equal cold ones. The human-readable lines
come first; the last line of standard output is the JSON result. The exit
code is 1 when a check failed and 2 when the library is missing.

Runs are hermetic: every ``REPRO_*`` variable is cleared (and recorded),
BLAS/OpenMP pools are pinned to one thread, and stores live in a fresh
directory under ``.bench_build/perfbench/`` that is removed afterwards.
"""

from __future__ import annotations

import os
import time

T0 = time.perf_counter()

#: Thread-pool knobs pinned to one thread before NumPy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CLEARED_REPRO_ENV = {
    key: os.environ.pop(key) for key in sorted(os.environ) if key.startswith("REPRO_")
}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_build" / "perfbench"

#: Set-up is measured this many times per run (this process + fresh ones).
SETUP_SAMPLES = 3
#: At least this many cold passes, however short ``--seconds`` is.
MIN_CYCLES = 3
#: One warm sample is the mean time of back-to-back re-submissions adding
#: up to WARM_BATCH_S (so garbage-collector pauses are amortised the same
#: way in every sample); each cycle takes warm samples for WARM_CYCLE_S.
WARM_BATCH_S = 0.1
WARM_CYCLE_S = 0.3

ENERGY_TOLERANCE = 1e-6  # Ha, absolute
GAIN_TOLERANCE = 1e-6  # relative


def load_references() -> dict:
    with open(HERE / "references.json", encoding="utf-8") as handle:
        return json.load(handle)


def environment() -> dict:
    """Interpreter, library and machine facts plus the resolved knobs."""
    import numpy

    from repro.backends.base import batching_disabled
    from repro.backends.counts import noisy_engine_default
    from repro.compiler.cache import fusion_enabled, plan_cache_capacity
    from repro.experiments.config import is_full_scale
    from repro.simulator.kernels.engine import kernel_engine, kernel_threads

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": cpu,
        "platform": platform.platform(),
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "cleared_repro_env": CLEARED_REPRO_ENV,
        "resolved": {
            "kernel_engine": kernel_engine(),
            "kernel_threads": kernel_threads(),
            "batching": not batching_disabled(),
            "fusion": fusion_enabled(),
            "plan_cache_capacity": plan_cache_capacity(),
            "noisy_engine": noisy_engine_default(),
            "full_scale": is_full_scale(),
        },
    }


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def check_outcome(workload, outcome, references) -> tuple:
    """(indices of failing runs, messages) of one cold pass."""
    expected = references["workloads"].get(workload.name, {}).get(
        str(workload.experiment_seed)
    )
    if expected is None:
        return set(range(len(workload.specs))), [
            f"no reference for experiment seed {workload.experiment_seed}"
        ]
    bad, messages = set(), []
    if len(outcome.runs) != len(workload.specs):
        return set(range(len(workload.specs))), [
            f"{len(outcome.runs)} results for {len(workload.specs)} specs"
        ]
    for index, (spec, run) in enumerate(zip(workload.specs, outcome.runs)):
        ref = expected["runs"].get(spec.run_id)
        if ref is None or run.spec != spec:
            bad.add(index)
            messages.append(f"{spec.run_id}: no reference or wrong spec")
            continue
        energy = run.result.records[-1].true_energy
        if abs(energy - ref["final_true_energy"]) > ENERGY_TOLERANCE:
            bad.add(index)
            messages.append(
                f"{spec.run_id}: final true energy {energy!r} != {ref['final_true_energy']!r}"
            )
        if run.result.total_circuits != ref["total_circuits"]:
            bad.add(index)
            messages.append(
                f"{spec.run_id}: total_circuits {run.result.total_circuits}"
                f" != {ref['total_circuits']}"
            )
    gain, ref_gain = outcome.qismet_gain, expected["qismet_gain"]
    if abs(gain - ref_gain) > GAIN_TOLERANCE * abs(ref_gain):
        messages.append(f"qismet_gain {gain!r} != {ref_gain!r}")
        if not bad:
            bad.add(0)
    return bad, messages


def warm_mismatches(cold, warm) -> set:
    """Indices where a warm (store-served) result differs from the cold one."""
    if len(warm.runs) != len(cold.runs):
        return set(range(len(cold.runs)))
    return {i for i, (a, b) in enumerate(zip(cold.runs, warm.runs)) if a != b}


# ---------------------------------------------------------------------------
# Cycles
# ---------------------------------------------------------------------------

class Cycle:
    """Timings and outputs of one cold pass plus its warm re-submissions."""

    def __init__(self):
        self.start = self.end = 0.0
        self.cold_s = 0.0
        self.warm_s = []
        self.circuits = 0
        self.outcome = None
        self.failed = set()
        self.messages = []


def run_cycle(workload, directory: Path, references, warm_passes=None) -> Cycle:
    """One cold pass, then warm re-submissions: exactly ``warm_passes`` of
    them, or (``None``) batches for WARM_CYCLE_S."""
    cycle = Cycle()
    specs = len(workload.specs)
    directory.mkdir(parents=True, exist_ok=False)
    try:
        cycle.start = time.perf_counter()
        try:
            workload.begin(directory)
            cold = workload.cold()
            cycle.cold_s = time.perf_counter() - cycle.start
            warm = None
            warm_start = time.perf_counter()
            while (
                len(cycle.warm_s) < warm_passes
                if warm_passes is not None
                else time.perf_counter() - warm_start < WARM_CYCLE_S
            ):
                began, repeats = time.perf_counter(), 0
                while repeats == 0 or (
                    warm_passes is None and time.perf_counter() - began < WARM_BATCH_S
                ):
                    outcome = workload.warm()
                    warm = warm or outcome
                    repeats += 1
                cycle.warm_s.append((time.perf_counter() - began) / repeats)
        finally:
            workload.end()
            cycle.end = time.perf_counter()
    except Exception:  # a failing pass counts every run as failed
        cycle.failed = set(range(specs))
        cycle.messages = [traceback.format_exc(limit=8)]
        return cycle
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    cycle.outcome = cold
    cycle.circuits = cold.circuits
    cycle.failed, cycle.messages = check_outcome(workload, cold, references)
    mismatched = warm_mismatches(cold, warm)
    if mismatched:
        cycle.failed |= mismatched
        cycle.messages.append(f"{len(mismatched)} warm results differ from cold ones")
    return cycle


def setup_sample(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter (``--setup-only`` child)."""
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"),
            "--workload", workload, "--seed", str(seed), "--setup-only",
        ],
        cwd=str(ROOT),
        env=dict(os.environ),
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(json.loads(completed.stdout.strip().splitlines()[-1])["setup_s"])


def quality_results(outcome, attempted, failed):
    """Deterministic outputs that guard result quality (not compared)."""
    from perfbench.results import BenchmarkResult

    out = []
    if outcome is not None:
        out.append(BenchmarkResult("qismet_gain", outcome.qismet_gain, "ratio", "higher", 1))
        gaps = [run.result.records[-1].true_energy - run.ground_truth for run in outcome.runs]
        out.append(BenchmarkResult("energy_gap", statistics.fmean(gaps), "Ha", "lower", len(gaps)))
    fail_frac = failed / attempted if attempted else 1.0
    out.append(BenchmarkResult("fail_frac", fail_frac, "ratio", "lower", attempted))
    return out


class Cycles:
    """Runs cycles for ``seconds``: all untraced or, given an
    ``instrumentation``, alternating untraced and traced ones. Traced runs
    make exactly one warm pass per cycle, so per-layer counts repeat."""

    def __init__(self, workload, references, seconds, instrumentation=None):
        self.workload = workload
        self.references = references
        self.seconds = seconds
        self.instrumentation = instrumentation
        self.untraced = []
        self.traced = []  # (cycle, spans)
        self.plan_hits = self.plan_misses = 0

    def _enough(self, started) -> bool:
        if self.instrumentation is not None and (len(self.traced) < 2 or not self.untraced):
            return False
        if len(self.untraced) + len(self.traced) < MIN_CYCLES:
            return False
        return time.perf_counter() - started >= self.seconds

    def run(self, scratch: Path) -> None:
        started = time.perf_counter()
        try:
            while not self._enough(started):
                directory = scratch / f"cycle-{len(self.untraced) + len(self.traced)}"
                if self.instrumentation is not None and len(self.untraced) > len(self.traced):
                    self.traced.append(self._traced_cycle(directory))
                else:
                    self.untraced.append(self._cycle(directory))
        finally:
            shutil.rmtree(scratch, ignore_errors=True)

    def _cycle(self, directory: Path) -> Cycle:
        warm_passes = 1 if self.instrumentation is not None else None
        return run_cycle(self.workload, directory, self.references, warm_passes)

    def _traced_cycle(self, directory: Path):
        from repro.obs import METRICS

        hits, misses = METRICS.counter("cache.plan.hits"), METRICS.counter("cache.plan.misses")
        hits0, misses0 = hits.value, misses.value
        recorder = self.instrumentation.recorder
        recorder.take()
        self.instrumentation.install()
        try:
            cycle = self._cycle(directory)
        finally:
            self.instrumentation.remove()
        self.plan_hits += hits.value - hits0
        self.plan_misses += misses.value - misses0
        return cycle, recorder.take()

    def all(self):
        return self.untraced + [cycle for cycle, _ in self.traced]


def add_end_to_end(summary, workload, setup_s, good, seed) -> None:
    from perfbench.results import summarize

    setups = [setup_s] + [setup_sample(workload.name, seed) for _ in range(SETUP_SAMPLES - 1)]
    summary.add(summarize("setup_s", "s", "lower", setups))
    summary.add(summarize("wall_s", "s", "lower", [c.cold_s for c in good]))
    summary.add(summarize("evals_per_s", "1/s", "higher", [c.circuits / c.cold_s for c in good]))
    summary.add(summarize("warm_s", "s", "lower", [t for c in good for t in c.warm_s]))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary.add(summarize("peak_rss_mb", "MB", "lower", [peak_kb / 1024.0]))
    summary.extra["cold_pass_s"] = [c.cold_s for c in good]


def add_per_layer(summary, cycles: Cycles, good, setup_spans) -> None:
    from perfbench.metrics import CALL_LATENCIES, PER_LAYER
    from perfbench.results import BenchmarkResult, summarize
    from perfbench.tracing import layer_metrics, percentile, span_table

    traced = [(cycle, spans) for cycle, spans in cycles.traced if cycle.outcome is not None]
    per_cycle = [layer_metrics(spans, (cycle.start, cycle.end)) for cycle, spans in traced]
    all_spans = [span for _, spans in traced for span in spans]
    traced_walls = [cycle.end - cycle.start for cycle, _ in traced]
    untraced_walls = [cycle.end - cycle.start for cycle in good]
    lookups = cycles.plan_hits + cycles.plan_misses
    single = {
        "compiler.plan_cache.hit_ratio": cycles.plan_hits / lookups if lookups else 0.0,
        # Compilation happens in set-up; traced passes only hit the cache.
        "compiler.compile.busy_s": sum(
            span.duration for span in setup_spans if span.name == "compiler.compile"
        ),
        "trace.overhead_ratio": (
            statistics.median(traced_walls) / statistics.median(untraced_walls)
            if traced_walls and untraced_walls
            else 0.0
        ),
    }
    latencies = {name: (span_name, q) for name, span_name, q in CALL_LATENCIES}
    for name, unit, better in PER_LAYER:
        if name in latencies:
            span_name, q = latencies[name]
            durations = [span.duration * 1e6 for span in all_spans if span.name == span_name]
            summary.add(BenchmarkResult(name, percentile(durations, q), unit, better, len(durations)))
        elif name in single:
            summary.add(summarize(name, unit, better, [single[name]]))
        elif name == "trace.pass_s":
            summary.add(summarize(name, unit, better, traced_walls))
        else:
            summary.add(
                summarize(
                    name, unit, better, [metrics[name] for metrics in per_cycle],
                    computed=name == "simulator.bytes_per_eval",
                )
            )
    passes = max(1, len(traced))
    summary.extra["span_table_per_pass"] = {
        name: {
            key: value / passes if key in ("calls", "busy_s", "self_s") else value
            for key, value in row.items()
        }
        for name, row in sorted(span_table(all_spans).items())
    }
    summary.extra["untraced_pass_s"] = untraced_walls


def write_spans(path: Path, setup_spans, traced) -> None:
    from perfbench.tracing import spans_to_json

    origin = traced[0][0].start if traced else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            {
                "setup": spans_to_json(setup_spans, origin),
                "passes": [
                    {
                        "start": cycle.start - origin,
                        "end": cycle.end - origin,
                        "spans": spans_to_json(spans, origin),
                    }
                    for cycle, spans in traced
                ],
            },
            handle,
        )


def measure(args):
    """Set up, run the cycles and assemble the :class:`BenchmarkSummary`."""
    from perfbench.results import BenchmarkSummary
    from perfbench.tracing import Instrumentation, SpanRecorder
    from perfbench.workloads import WORKLOADS

    references = load_references()
    workload = WORKLOADS[args.workload](args.seed, references["ground_energies"])
    instrumentation = Instrumentation(SpanRecorder()) if args.trace else None
    if instrumentation is not None:
        instrumentation.install()
    try:
        workload.setup()
        setup_s = time.perf_counter() - T0
    finally:
        if instrumentation is not None:
            instrumentation.remove()
    setup_spans = instrumentation.recorder.take() if instrumentation is not None else []

    summary = BenchmarkSummary(
        workload=workload.name,
        seed=args.seed,
        trace=bool(args.trace),
        metadata={
            "experiment_seed": workload.experiment_seed,
            "why": workload.why,
            "runs_per_pass": len(workload.specs),
            "iterations": sorted({spec.iterations for spec in workload.specs}),
            "run_ids": [spec.run_id for spec in workload.specs],
            "seconds": args.seconds,
            "environment": environment(),
        },
    )
    cycles = Cycles(workload, references, args.seconds, instrumentation)
    cycles.run(WORK_DIR / f"{workload.name}-{args.seed}-{args.trace}-{os.getpid()}")

    for cycle in cycles.all():
        summary.attempted += len(workload.specs)
        summary.failed += len(cycle.failed)
        summary.failures.extend(cycle.messages)
    first = next((c.outcome for c in cycles.all() if c.outcome is not None), None)
    summary.quality = quality_results(first, summary.attempted, summary.failed)
    good = [cycle for cycle in cycles.untraced if cycle.outcome is not None]
    if args.trace:
        add_per_layer(summary, cycles, good, setup_spans)
        write_spans(WORK_DIR / "spans" / f"{workload.name}.seed{args.seed}.json", setup_spans, cycles.traced)
    else:
        add_end_to_end(summary, workload, setup_s, good, args.seed)
    return summary


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="measure set-up once and print {'setup_s': ...} (used internally)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no library sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2

    if args.setup_only:
        workload = WORKLOADS[args.workload](args.seed, load_references()["ground_energies"])
        workload.setup()
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    summary = measure(args)
    for line in summary.lines():
        print(line)
    results_dir = WORK_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    with open(
        results_dir / f"{summary.workload}.seed{args.seed}.trace{args.trace}.json",
        "w", encoding="utf-8",
    ) as handle:
        json.dump(summary.to_dict(), handle, indent=1)
    from perfbench.metrics import END_TO_END, PER_LAYER

    names = [name for name, _, _ in (PER_LAYER if args.trace else END_TO_END)]
    print(json.dumps(summary.contract(names)))
    return 0 if summary.correct else 1


if __name__ == "__main__":
    sys.exit(main())
