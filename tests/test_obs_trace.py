"""repro.obs core: span trees, per-thread span stacks, metrics."""

import threading

import pytest

from repro.obs import METRICS, NOOP_SPAN, Stopwatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


@pytest.fixture
def tracer(monkeypatch):
    """A fresh enabled tracer, isolated from the process-wide singleton."""
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_TRACE_EXPORT", raising=False)
    tracer = Tracer()
    tracer.configure(enabled=True)
    return tracer


# -- enable/disable and environment -------------------------------------------


def test_disabled_tracer_returns_shared_noop(monkeypatch):
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    tracer = Tracer()
    assert not tracer.enabled
    span = tracer.span("anything", category="compile")
    assert span is NOOP_SPAN
    with span as inner:
        inner.set(ignored=True)
    assert tracer.roots == []


def test_trace_env_enables(monkeypatch):
    monkeypatch.setenv("REPRO_TRACE", "1")
    assert Tracer().enabled
    monkeypatch.setenv("REPRO_TRACE", "0")
    assert not Tracer().enabled


# -- span trees ---------------------------------------------------------------


def test_nested_spans_build_a_tree(tracer):
    with tracer.span("job", category="execute", app="App1") as job:
        with tracer.span("compile", category="compile") as compile_span:
            compile_span.set(gates_after=12)
        with tracer.span("sim", category="kernel"):
            pass
    assert [root.name for root in tracer.roots] == ["job"]
    assert [child.name for child in job.children] == ["compile", "sim"]
    assert job.attrs == {"app": "App1"}
    assert job.children[0].attrs == {"gates_after": 12}
    assert job.duration >= sum(child.duration for child in job.children) >= 0
    assert [span.name for span in job.walk()] == ["job", "compile", "sim"]


def test_sequential_roots_stay_separate(tracer):
    with tracer.span("first"):
        pass
    with tracer.span("second"):
        pass
    assert [root.name for root in tracer.roots] == ["first", "second"]
    assert len(tracer.all_spans()) == 2


def test_reset_drops_spans_and_rereads_env(tracer, monkeypatch):
    with tracer.span("old"):
        pass
    tracer.configure(enabled=False)
    monkeypatch.setenv("REPRO_TRACE", "1")
    monkeypatch.setenv("REPRO_TRACE_EXPORT", "out.json")
    tracer.reset()
    assert tracer.roots == [] and tracer.enabled
    assert tracer.export_path == "out.json"


def test_current_tracks_innermost_open_span(tracer):
    assert tracer.current() is None
    with tracer.span("outer") as outer:
        assert tracer.current() is outer
        with tracer.span("inner") as inner:
            assert tracer.current() is inner
        assert tracer.current() is outer
    assert tracer.current() is None


# -- per-thread stacks --------------------------------------------------------


def test_unattached_thread_spans_become_roots(tracer):
    def worker():
        with tracer.span("orphan", category="fleet"):
            pass

    with tracer.span("job"):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
    assert sorted(root.name for root in tracer.roots) == ["job", "orphan"]


# -- metrics ------------------------------------------------------------------


def test_counter_gauge_histogram_roundtrip():
    registry = MetricsRegistry()
    registry.counter("cache.plan.hits").inc()
    registry.counter("cache.plan.hits").inc(2)
    registry.gauge("fleet.queue_depth").set(5)
    registry.histogram("store.append_s").observe(0.25)
    registry.histogram("store.append_s").observe(0.75)
    snapshot = registry.snapshot()
    assert snapshot["counters"] == {"cache.plan.hits": 3}
    assert snapshot["gauges"] == {"fleet.queue_depth": 5}
    histogram = snapshot["histograms"]["store.append_s"]
    assert histogram["count"] == 2
    assert histogram["mean"] == pytest.approx(0.5)
    assert histogram["min"] == 0.25 and histogram["max"] == 0.75


def test_counters_prefix_filter_and_counter_value():
    registry = MetricsRegistry()
    registry.counter("cache.plan.hits").inc(4)
    registry.counter("store.appends").inc()
    assert registry.counters("cache.") == {"cache.plan.hits": 4}
    assert registry.counter_value("cache.plan.hits") == 4
    assert registry.counter_value("never.created") == 0
    assert registry.names() == ["cache.plan.hits", "store.appends"]


def test_registry_reset_drops_everything():
    registry = MetricsRegistry()
    registry.counter("a").inc()
    registry.reset()
    assert registry.snapshot() == {
        "counters": {}, "gauges": {}, "histograms": {}
    }


def test_concurrent_counter_bumps_all_land():
    registry = MetricsRegistry()

    def bump():
        for _ in range(1000):
            registry.counter("hot").inc()

    threads = [threading.Thread(target=bump) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert registry.counter_value("hot") == 8000


def test_global_registry_is_a_metrics_registry():
    assert isinstance(METRICS, MetricsRegistry)


def test_stopwatch_measures_elapsed():
    with Stopwatch() as clock:
        sum(range(1000))
    assert clock.elapsed > 0
