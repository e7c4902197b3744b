"""Chrome trace export/validation, reports, and store persistence."""

import json

import pytest

from repro.obs.export import (
    build_trace_document,
    chrome_trace_events,
    export_chrome_trace,
    load_trace_summaries,
    persist_trace_summary,
    span_tree_lines,
    trace_summary,
    validate_chrome_trace,
)
from repro.obs.report import (
    build_report,
    cache_scoreboard,
    phase_breakdown,
    render_json,
    render_markdown,
    render_text,
    root_wall_seconds,
)
from repro.obs.trace import Tracer
from repro.store import ExperimentStore


@pytest.fixture
def tracer():
    tracer = Tracer()
    tracer.configure(enabled=True)
    with tracer.span("job", category="execute", app="App1"):
        with tracer.span("compile.default", category="compile", qubits=4):
            pass
        with tracer.span("sim.sv", category="kernel"):
            pass
    return tracer


# -- Chrome trace events ------------------------------------------------------


def test_chrome_events_shape(tracer):
    events = chrome_trace_events(tracer)
    complete = [e for e in events if e["ph"] == "X"]
    metadata = [e for e in events if e["ph"] == "M"]
    assert [e["name"] for e in complete] == [
        "job", "compile.default", "sim.sv"
    ]
    assert {e["cat"] for e in complete} == {"execute", "compile", "kernel"}
    for event in complete:
        assert event["ts"] >= 0 and event["dur"] >= 0
        assert isinstance(event["pid"], int) and isinstance(event["tid"], int)
    assert complete[1]["args"] == {"qubits": 4}
    assert metadata and metadata[0]["name"] == "thread_name"


def test_document_carries_metrics_and_phases(tracer):
    document = build_trace_document(tracer)
    assert document["displayTimeUnit"] == "ms"
    other = document["otherData"]
    assert other["generator"] == "repro.obs"
    assert set(other["metrics"]) == {"counters", "gauges", "histograms"}
    assert set(other["phases"]) >= {"execute", "compile", "kernel"}


def test_export_roundtrips_and_validates(tracer, tmp_path):
    path = tmp_path / "trace.json"
    document = export_chrome_trace(str(path), tracer)
    loaded = json.loads(path.read_text())
    assert loaded == document
    events = validate_chrome_trace(loaded)
    assert len(events) == len(document["traceEvents"])


# -- validation ---------------------------------------------------------------


def test_validate_accepts_bare_event_array():
    events = [{"name": "a", "ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 1}]
    assert validate_chrome_trace(events) == events


@pytest.mark.parametrize(
    "document, message",
    [
        ({"noTraceEvents": []}, "missing 'traceEvents'"),
        ("a string", "not a trace document"),
        ({"traceEvents": ["nope"]}, "not an object"),
        ({"traceEvents": [{"ph": "X", "ts": 0, "pid": 1, "tid": 1}]},
         "missing required key 'name'"),
        ({"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}
        ]}, "needs numeric 'dur'"),
        ({"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": -1, "pid": 1, "tid": 1}
        ]}, "needs numeric 'dur'"),
        ({"traceEvents": [
            {"name": "a", "ph": "B", "ts": "zero", "pid": 1, "tid": 1}
        ]}, "'ts' must be numeric"),
        ({"traceEvents": [
            {"name": "a", "ph": "X", "ts": 0, "dur": 0, "pid": 1, "tid": 1,
             "args": [1]}
        ]}, "'args' must be an object"),
    ],
)
def test_validate_rejects_malformed(document, message):
    with pytest.raises(ValueError, match=message):
        validate_chrome_trace(document)


# -- reports ------------------------------------------------------------------


def test_phase_self_time_partitions_the_root(tracer):
    phases = phase_breakdown(tracer=tracer)
    wall = root_wall_seconds(tracer=tracer)
    accounted = sum(bucket["self_s"] for bucket in phases.values())
    assert accounted == pytest.approx(wall, rel=1e-6)
    assert phases["execute"]["count"] == 1
    assert phases["compile"]["total_s"] <= phases["execute"]["total_s"]


def test_report_from_live_tracer_has_full_coverage(tracer):
    report = build_report(tracer=tracer)
    assert report["coverage"] == pytest.approx(1.0, rel=1e-6)
    assert set(report["phases"]) == {"execute", "compile", "kernel"}
    for bucket in report["phases"].values():
        assert 0.0 <= bucket["share"] <= 1.0


def test_report_from_exported_document_matches_live(tracer, tmp_path):
    live = build_report(tracer=tracer)
    path = tmp_path / "trace.json"
    document = export_chrome_trace(str(path), tracer)
    from_file = build_report(document=document)
    assert from_file["wall_s"] == pytest.approx(live["wall_s"], rel=1e-6)
    assert set(from_file["phases"]) == set(live["phases"])
    for category, bucket in live["phases"].items():
        assert from_file["phases"][category]["self_s"] == pytest.approx(
            bucket["self_s"], rel=1e-6
        )
    assert from_file["coverage"] == pytest.approx(1.0, rel=1e-6)


def test_events_renesting_handles_sibling_threads():
    """Events from different tids never nest into each other."""
    events = [
        {"name": "a", "cat": "execute", "ph": "X", "ts": 0.0, "dur": 100.0,
         "pid": 1, "tid": 1},
        {"name": "b", "cat": "fleet", "ph": "X", "ts": 10.0, "dur": 50.0,
         "pid": 1, "tid": 2},
    ]
    phases = phase_breakdown(events=events)
    assert phases["execute"]["self_s"] == pytest.approx(100e-6)
    assert phases["fleet"]["self_s"] == pytest.approx(50e-6)
    assert root_wall_seconds(events=events) == pytest.approx(150e-6)


def test_cache_scoreboard_folds_families():
    counters = {
        "cache.plan.hits": 6,
        "cache.plan.misses": 2,
        "cache.plan.evictions": 1,
        "cache.counts.lowerings.hits": 3,
        "cache.counts.lowerings.misses": 1,
        "store.appends": 9,  # not a cache counter
    }
    board = cache_scoreboard({"counters": counters})
    assert set(board) == {"plan", "counts.lowerings"}
    assert board["plan"] == {
        "hits": 6, "misses": 2, "evictions": 1, "hit_rate": 0.75
    }
    assert board["counts.lowerings"]["hit_rate"] == 0.75


def test_renderers_cover_phases_and_caches(tracer):
    report = build_report(tracer=tracer)
    report["cache"] = cache_scoreboard(
        {"counters": {"cache.plan.hits": 1, "cache.plan.misses": 1}}
    )
    text = render_text(report)
    assert "coverage" in text and "compile" in text and "plan" in text
    markdown = render_markdown(report)
    assert "| compile |" in markdown and "## Cache scoreboard" in markdown
    assert json.loads(render_json(report))["phases"]["compile"]


def test_span_tree_lines_indent(tracer):
    lines = span_tree_lines(tracer.roots[0])
    assert lines[0].startswith("job [execute]")
    assert lines[1].startswith("  compile.default [compile]")


# -- store persistence --------------------------------------------------------


def test_summary_persists_and_loads_from_store(tracer):
    summary = trace_summary(tracer, label="unit")
    assert summary["span_count"] == 3 and summary["wall_s"] > 0
    with ExperimentStore(":memory:") as store:
        trace_id = persist_trace_summary(store, summary)
        assert trace_id >= 1
        loaded = load_trace_summaries(store)
        assert len(loaded) == 1
        assert loaded[0]["label"] == "unit"
        assert loaded[0]["phases"].keys() == summary["phases"].keys()
        assert loaded[0]["trace_id"] == trace_id
        assert store.info()["traces"] == 1


def test_trace_summaries_are_most_recent_first():
    with ExperimentStore(":memory:") as store:
        for index in range(3):
            store.append_trace({"wall_s": float(index)}, label=f"run{index}")
        loaded = store.traces(limit=2)
        assert [entry["label"] for entry in loaded] == ["run2", "run1"]


def test_compact_preserves_trace_payloads():
    with ExperimentStore(":memory:") as store:
        store.append_trace({"wall_s": 1.0}, label="keep-me")
        store.compact()
        assert store.traces()[0]["label"] == "keep-me"
