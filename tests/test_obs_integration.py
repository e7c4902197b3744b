"""Observability acceptance: determinism, counters, overhead, reassembly.

The contracts the obs layer ships with:

* tracing never changes results — a traced sweep produces byte-identical
  result payloads to an untraced one;
* cache counters are exact — a deterministic cold/warm two-pass hits the
  predicted hit/miss numbers, not approximations;
* the per-phase report accounts for (nearly) all of the job span's wall
  time;
* disabled tracing opens no span per plan op, and the run-level spans
  it does open cost <2% of a batched evaluation;
* fleet worker threads' spans reassemble under the drain's span tree.
"""

import numpy as np
import pytest

from repro.circuits.circuit import QuantumCircuit
from repro.compiler import clear_plan_cache, compile_noise_plan, compile_plan
from repro.noise.noise_model import NoiseModel
from repro.obs import METRICS, TRACER
from repro.obs.report import build_report
from repro.runtime import ExperimentPlan, ParallelExecutor, SerialExecutor
from repro.utils.serialization import canonical_json

PLAN = ExperimentPlan(
    apps=("App1",),
    schemes=("baseline", "qismet"),
    iterations=4,
    seeds=(3,),
)


@pytest.fixture
def traced(monkeypatch):
    """Enable the process-wide tracer for one test, then restore it."""
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.delenv("REPRO_TRACE_EXPORT", raising=False)
    TRACER.reset()
    yield TRACER
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    TRACER.reset()


def _payloads(outcome):
    return [canonical_json(run.result.to_dict()) for run in outcome.runs]


def _circuit():
    circuit = QuantumCircuit(3)
    circuit.h(0)
    circuit.cx(0, 1)
    circuit.rz(0.25, 2)
    circuit.cx(1, 2)
    return circuit


# -- determinism: tracing never touches results -------------------------------


def test_traced_sweep_payloads_are_byte_identical(traced):
    baseline_outcome = None
    traced.configure(enabled=False)
    baseline_outcome = SerialExecutor().run_plan(PLAN)
    traced.reset()  # re-enables from REPRO_TRACE=1
    assert traced.enabled
    traced_outcome = SerialExecutor().run_plan(PLAN)
    assert traced.roots, "tracing was on but recorded nothing"
    assert _payloads(traced_outcome) == _payloads(baseline_outcome)


# -- exact cache counters -----------------------------------------------------


def test_plan_cache_counters_exact_cold_warm():
    circuit = _circuit()
    METRICS.reset()
    clear_plan_cache()
    compile_plan(circuit)  # cold: one miss
    assert METRICS.counter_value("cache.plan.misses") == 1
    assert METRICS.counter_value("cache.plan.hits") == 0
    compile_plan(circuit)  # warm: one hit, no new miss
    assert METRICS.counter_value("cache.plan.misses") == 1
    assert METRICS.counter_value("cache.plan.hits") == 1


def test_noise_plan_cache_counters_exact_cold_warm():
    circuit = _circuit()
    noise = NoiseModel(0.01, 0.05)
    METRICS.reset()
    clear_plan_cache()
    compile_noise_plan(circuit, noise)
    assert METRICS.counter_value("cache.noise.misses") == 1
    assert METRICS.counter_value("cache.noise.hits") == 0
    compile_noise_plan(circuit, noise)
    assert METRICS.counter_value("cache.noise.misses") == 1
    assert METRICS.counter_value("cache.noise.hits") == 1


def test_uncached_compile_bumps_no_counters():
    METRICS.reset()
    clear_plan_cache()
    compile_plan(_circuit(), cache=False)
    assert METRICS.counter_value("cache.plan.misses") == 0
    assert METRICS.counter_value("cache.plan.hits") == 0


def test_eviction_counter_counts_evicted_entries():
    from repro.compiler.cache import PlanCache

    METRICS.reset()
    cache = PlanCache(capacity=2, name="tiny")
    for key in ("a", "b", "c"):
        cache.get_or_build(key, lambda key=key: key)
    assert METRICS.counter_value("cache.tiny.evictions") == 1
    assert METRICS.counter_value("cache.tiny.misses") == 3


# -- phase report coverage ----------------------------------------------------


def test_traced_run_report_covers_job_wall_time(traced):
    SerialExecutor().run_plan(PLAN)
    report = build_report(tracer=traced)
    assert report["wall_s"] > 0
    # Self-time partitions each root exactly, so coverage is ~100%;
    # the acceptance floor is 90%.
    assert report["coverage"] >= 0.90
    assert {"compile", "execute"} <= set(report["phases"])
    assert "job.run_plan" in [root.name for root in traced.roots]


# -- disabled overhead --------------------------------------------------------


def test_disabled_tracing_overhead_under_2_percent(monkeypatch):
    """Disabled tracing opens no span per plan op and costs <2% of a batch.

    A spy on ``TRACER.span`` counts the spans one ``batch_energies`` and
    one ``ideal_energy`` call open on two 8-qubit plans (the ``run_fused``
    route) of different op counts. Equal counts mean no span is opened
    per op. That many disabled spans, timed on their own, must cost under
    2% of one batched evaluation of the longer plan.
    """
    import timeit

    from repro.ansatz.efficient_su2 import EfficientSU2
    from repro.hamiltonians.tfim import tfim_hamiltonian
    from repro.vqa.objective import EnergyObjective

    assert not TRACER.enabled
    span = TRACER.span
    opened = []

    def spy(name, *args, **kwargs):
        opened.append(name)
        return span(name, *args, **kwargs)

    monkeypatch.setattr(TRACER, "span", spy)

    def spans_opened(call):
        opened.clear()
        call()
        return list(opened)

    counts = {}
    op_counts = {}
    for reps in (1, 3):
        objective = EnergyObjective(EfficientSU2(8, reps=reps), tfim_hamiltonian(8))
        thetas = np.random.default_rng(2023).uniform(
            -np.pi, np.pi, (8, objective.num_parameters)
        )
        objective.batch_energies(thetas)  # compile outside the count
        batch = spans_opened(lambda: objective.batch_energies(thetas))
        serial = spans_opened(lambda: objective.ideal_energy(thetas[0]))
        assert "sim.batched.run_plan" in batch
        assert "sim.statevector.run_plan" in serial
        counts[reps] = (len(batch), len(serial))
        op_counts[reps] = len(objective.ansatz.plan.ops)
    assert op_counts[1] < op_counts[3]
    assert counts[1] == counts[3], (
        f"spans per call grow with plan length: {counts} for ops {op_counts}"
    )

    rounds = 5
    batch_s = min(
        timeit.repeat(
            lambda: objective.batch_energies(thetas), number=1, repeat=rounds
        )
    )
    spans = max(counts[3])
    number = 200

    def disabled_spans():
        for _ in range(spans):
            with span("sim.batched.run_plan", category="kernel", ops=1):
                pass

    spans_s = (
        min(timeit.repeat(disabled_spans, number=number, repeat=rounds)) / number
    )
    assert spans_s < 0.02 * batch_s, (
        f"{spans} disabled spans cost {spans_s:.2e}s vs batch eval "
        f"{batch_s:.6f}s"
    )


# -- span reassembly across workers -------------------------------------------


def test_fleet_worker_spans_reassemble_under_drain(traced, tmp_path):
    from repro.fleet.service import FleetService

    specs = ExperimentPlan(
        apps=("App1",),
        schemes=("baseline", "qismet"),
        iterations=3,
        seeds=(5,),
    ).expand()
    with FleetService(db_path=str(tmp_path / "fleet.db")) as service:
        service.run_specs(specs)
    drains = [root for root in traced.roots if root.name == "fleet.drain"]
    assert len(drains) == 1
    drain = drains[0]
    jobs = [span for span in drain.walk() if span.name == "fleet.job"]
    assert len(jobs) == len(specs)
    assert {job.attrs["outcome"] for job in jobs} == {"completed"}
    # Worker-thread execution nests the runtime's span under the fleet's.
    for job in jobs:
        assert "run.execute" in [span.name for span in job.walk()]
    # Workers ran on their own threads yet landed in the drain's tree.
    assert {job.thread_name for job in jobs} != {drain.thread_name}
    dispatches = [
        span for span in drain.walk() if span.name == "fleet.dispatch"
    ]
    assert len(dispatches) >= len(specs)


def test_parallel_executor_records_fanout_span(traced):
    outcome = ParallelExecutor(max_workers=2).run_plan(PLAN)
    assert len(outcome.runs) == len(PLAN)
    names = [span.name for root in traced.roots for span in root.walk()]
    assert "executor.parallel.fanout" in names


def test_parallel_and_serial_agree_while_traced(traced):
    serial = SerialExecutor().run_plan(PLAN)
    parallel = ParallelExecutor(max_workers=2).run_plan(PLAN)
    assert _payloads(serial) == _payloads(parallel)
