"""``python -m repro.store`` CLI: info / query / aggregate / maintenance."""

import json

import pytest

from repro.runtime import ExperimentPlan, SerialExecutor
from repro.store import ExperimentStore
from repro.store.cli import main

PLAN = ExperimentPlan(
    apps=("App1",),
    schemes=("baseline", "qismet"),
    iterations=5,
    seeds=(3, 4),
)


@pytest.fixture(scope="module")
def outcome():
    return SerialExecutor().run_plan(PLAN)


@pytest.fixture
def store_path(tmp_path, outcome):
    path = tmp_path / "store.sqlite"
    with ExperimentStore(path) as store:
        for run in outcome:
            store.append(run)
    return str(path)


def test_requires_store_path(monkeypatch):
    monkeypatch.delenv("REPRO_STORE", raising=False)
    with pytest.raises(SystemExit, match="no store given"):
        main(["info"])


def test_info(store_path, capsys):
    assert main(["--store", store_path, "info"]) == 0
    out = capsys.readouterr().out
    assert "runs: 4" in out.replace(" ", "").replace("runs:", "runs: ")

    assert main(["--store", store_path, "--json", "info"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["runs"] == 4 and info["apps"] == ["App1"]


def test_query_filters_and_json(store_path, capsys):
    assert main(["--store", store_path, "query"]) == 0
    out = capsys.readouterr().out
    assert "4 run(s)" in out

    assert main(
        ["--store", store_path, "--json", "query", "--scheme", "qismet"]
    ) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 2
    assert all(row["scheme"] == "qismet" for row in rows)


def test_aggregate_matches_plan_result(store_path, outcome, capsys):
    assert main(["--store", store_path, "--json", "aggregate"]) == 0
    direct = json.loads(capsys.readouterr().out)
    assert direct == outcome.geomean_improvements()


def test_env_store_resolution(store_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_STORE", store_path)
    assert main(["--json", "info"]) == 0
    assert json.loads(capsys.readouterr().out)["runs"] == 4


def test_compact(store_path, capsys):
    assert main(["--store", store_path, "--json", "compact"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary == {"blobs_removed": 0, "bytes_reclaimed": 0}


def test_module_entrypoint(store_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.store", "--store", store_path, "info"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "runs" in proc.stdout
