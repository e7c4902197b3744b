"""Tests of the benchmark itself: input generators, references, span
arithmetic, typed results and the manifest."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for _path in (ROOT / "src", ROOT):
    if str(_path) not in sys.path:
        sys.path.insert(0, str(_path))

from perfbench import tracing  # noqa: E402
from perfbench.metrics import END_TO_END, PER_LAYER  # noqa: E402
from perfbench.results import BenchmarkResult, BenchmarkSummary, summarize  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    SEED_POOL, WORKLOADS, experiment_seed, generate_specs, sparse_ground_energy,
)

REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- deterministic generators -------------------------------------------------

@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_run_ids(name):
    first = [spec.run_id for spec in generate_specs(name, 5)]
    second = [spec.run_id for spec in generate_specs(name, 5)]
    assert first == second
    assert len(set(first)) == len(first)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_different_seed_gives_different_run_ids(name):
    seeds = range(4)
    ids = [frozenset(spec.run_id for spec in generate_specs(name, s)) for s in seeds]
    for a in range(len(ids)):
        for b in range(a + 1, len(ids)):
            assert ids[a].isdisjoint(ids[b])


def test_seed_selects_one_of_the_pool_experiment_seeds():
    workload = WORKLOADS["fig17-grid"]
    assert experiment_seed(workload, 0) == 13  # the paper's Fig. 17 seed
    assert experiment_seed(workload, SEED_POOL + 3) == experiment_seed(workload, 3)
    assert experiment_seed(WORKLOADS["fleet-sweep"], 0) == 17  # Fig. 13's seed
    with pytest.raises(ValueError):
        experiment_seed(workload, -1)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_cover_every_generated_input(name):
    per_seed = REFERENCES["workloads"][name]
    assert len(per_seed) == SEED_POOL
    for index in range(SEED_POOL):
        specs = generate_specs(name, index)
        entry = per_seed[str(experiment_seed(WORKLOADS[name], index))]
        assert set(entry["runs"]) == {spec.run_id for spec in specs}
        assert "qismet_gain" in entry


def test_sparse_ground_energy_matches_dense_diagonalisation():
    from repro.hamiltonians.tfim import tfim_exact_ground_energy, tfim_hamiltonian

    assert sparse_ground_energy(tfim_hamiltonian(6)) == pytest.approx(
        tfim_exact_ground_energy(6), abs=1e-9
    )


# -- manifest -----------------------------------------------------------------

def test_manifest_lists_exactly_the_reported_metrics_and_workloads():
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]] == list(PER_LAYER)
    assert [w["name"] for w in MANIFEST["workloads"]] == list(WORKLOADS)
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    setup = next(m for m in MANIFEST["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in MANIFEST["end_to_end"])


# -- span arithmetic ------------------------------------------------------------

def _span(name, start, end, parent=None, **attrs):
    span = tracing.Span(name, start, parent, None, 0)
    span.end = end
    if attrs:
        span.set(**attrs)
    return span


def test_self_time_subtracts_the_union_of_child_intervals():
    root = _span("fleet.drain", 0.0, 10.0)
    # Two overlapping children (worker threads) cover [1, 6] once.
    a = _span("runtime.execute_run", 1.0, 4.0, root)
    b = _span("runtime.execute_run", 3.0, 6.0, root)
    grandchild = _span("vqa.run", 1.5, 3.5, a)
    own = tracing.self_times([root, a, b, grandchild])
    assert own[id(root)] == pytest.approx(5.0)
    assert own[id(a)] == pytest.approx(1.0)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(grandchild)] == pytest.approx(2.0)


def test_layer_metrics_attribute_coverage_and_ratios():
    run = _span("vqa.run", 1.0, 9.0)
    decide_retry = _span("core.decide", 2.0, 2.5, run, outcome="RETRY", first=True)
    decide_ok = _span("core.decide", 3.0, 3.5, run, outcome="ACCEPT", first=False)
    record = _span("objective.ideal_energy", 4.0, 5.0, run, record=True)
    metrics = tracing.layer_metrics([run, decide_retry, decide_ok, record], (0.0, 10.0))
    assert metrics["trace.coverage"] == pytest.approx(0.8)
    assert metrics["layer.vqa.self_s"] == pytest.approx(6.0)
    assert metrics["layer.core.self_s"] == pytest.approx(1.0)
    assert metrics["core.retry_ratio"] == pytest.approx(0.5)
    assert metrics["core.skip_fraction"] == pytest.approx(1.0)
    assert metrics["vqa.record_evals"] == 1.0
    assert tracing.percentile([3.0, 1.0, 2.0], 0.5) == 2.0


def test_worker_thread_spans_attach_to_the_open_fanout_span():
    recorder = tracing.SpanRecorder()
    drain = recorder.open("fleet.drain")
    seen = []

    def worker():
        span = recorder.open("runtime.execute_run", "abc")
        child = recorder.open("vqa.run")
        recorder.close(child)
        recorder.close(span)
        seen.extend([span, child])

    thread = threading.Thread(target=worker)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    recorder.close(drain)
    span, child = seen
    assert span.parent is drain and child.parent is span
    assert child.run_id == "abc"


def test_instrumentation_traces_a_run_and_restores_the_library():
    from repro.runtime import RunSpec
    from repro.runtime.execute import execute_run
    from repro.vqa.vqe import VQE

    original_run = VQE.__dict__["run"]
    recorder = tracing.SpanRecorder()
    instrumentation = tracing.Instrumentation(recorder).install()
    try:
        import repro.runtime.execute as execute_module

        spec = RunSpec(app="App1", scheme="qismet", iterations=3, seed=1)
        traced = execute_module.execute_run(spec)
    finally:
        instrumentation.remove()
    assert VQE.__dict__["run"] is original_run
    assert execute_module.execute_run is execute_run
    spans = recorder.take()
    names = {span.name for span in spans}
    assert {"runtime.execute_run", "vqa.run", "core.decide", "objective.ideal_energy"} <= names
    assert all(span.run_id == spec.run_id for span in spans)
    assert traced == execute_run(spec)


# -- typed results ----------------------------------------------------------------

def test_summary_contract_and_correctness_flag():
    summary = BenchmarkSummary("fig17-grid", 0, False, {"experiment_seed": 13})
    summary.add(summarize("wall_s", "s", "lower", [3.0, 1.0, 2.0]))
    summary.attempted = 4
    contract = summary.contract(["wall_s"])
    assert set(contract) == {"correct", "attempted", "failed", "metrics"}
    assert contract["metrics"] == {"wall_s": {"value": 2.0, "unit": "s"}}
    assert contract["correct"] is True
    summary.failed = 1
    assert summary.contract(["wall_s"])["correct"] is False
    assert any("wall_s" in line for line in summary.lines())
    empty = summarize("warm_s", "s", "lower", [])
    assert isinstance(empty, BenchmarkResult) and empty.partial and empty.samples == 0


# -- the command ---------------------------------------------------------------------

def test_benchmark_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig17-grid", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout
