"""The perf CI gate tolerates suite growth (tools/check_bench.py).

New benchmarks must be reported as "new" and skipped — not crash the
comparison or silently gate — so a PR that *adds* benchmarks stays green
against the previous baseline.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_TOOL = Path(__file__).resolve().parent.parent / "tools" / "check_bench.py"
_spec = importlib.util.spec_from_file_location("check_bench", _TOOL)
check_bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench)


def _payload(benchmarks, speedup=5.0, compile_speedup=None):
    derived = {check_bench.SPEEDUP_KEY: speedup}
    if compile_speedup is not None:
        derived[check_bench.COMPILE_SPEEDUP_KEY] = compile_speedup
    return {
        "schema": 1,
        "reference_benchmark": "ref",
        "benchmarks": benchmarks,
        "derived": derived,
    }


def _bench(min_s, reference=None):
    entry = {"min_s": min_s}
    if reference is not None:
        entry["reference"] = reference
    return entry


BASE = {"ref": _bench(1.0, "ref"), "a": _bench(2.0, "ref")}


def _run(tmp_path, baseline, current, *extra):
    base_path = tmp_path / "base.json"
    cur_path = tmp_path / "cur.json"
    base_path.write_text(json.dumps(baseline))
    cur_path.write_text(json.dumps(current))
    return check_bench.main(
        ["--baseline", str(base_path), "--current", str(cur_path), *extra]
    )


def test_identical_files_pass(tmp_path, capsys):
    assert _run(tmp_path, _payload(BASE), _payload(BASE)) == 0
    assert "check_bench: ok" in capsys.readouterr().out


def test_new_benchmark_reported_and_skipped(tmp_path, capsys):
    current = dict(BASE, new_bench=_bench(5.0, "ref"))
    assert _run(tmp_path, _payload(BASE), _payload(current)) == 0
    out = capsys.readouterr().out
    assert "new_bench" in out and "(new)" in out


def test_new_self_referencing_benchmark_not_gated(tmp_path, capsys):
    # A new cost-family unit (its own reference) must neither gate nor
    # crash — the fleet perf benchmark takes this shape.
    current = dict(BASE, fleet_unit=_bench(9.9, "fleet_unit"))
    assert _run(tmp_path, _payload(BASE), _payload(current)) == 0


def test_new_benchmark_with_dangling_reference_skipped(tmp_path, capsys):
    current = dict(BASE, broken=_bench(1.0, "missing-ref"))
    assert _run(tmp_path, _payload(BASE), _payload(current)) == 0
    out = capsys.readouterr().out
    assert "skipping" in out and "broken" in out


def test_regression_still_fails(tmp_path, capsys):
    current = dict(BASE, a=_bench(4.0, "ref"))  # 2.0 -> 4.0 normalized
    assert _run(tmp_path, _payload(BASE), _payload(current)) == 1
    assert "regressed" in capsys.readouterr().out


def test_dropped_benchmark_still_fails(tmp_path, capsys):
    current = {"ref": _bench(1.0, "ref")}
    assert _run(tmp_path, _payload(BASE), _payload(current)) == 1
    assert "disappeared" in capsys.readouterr().out


def test_speedup_floor_still_gates(tmp_path, capsys):
    assert _run(tmp_path, _payload(BASE), _payload(BASE, speedup=1.5)) == 1
    assert "below floor" in capsys.readouterr().out


def test_compile_once_floor_gates_when_present(tmp_path, capsys):
    base = _payload(BASE, compile_speedup=3.0)
    good = _payload(BASE, compile_speedup=2.0)
    bad = _payload(BASE, compile_speedup=1.2)
    assert _run(tmp_path, base, good) == 0
    assert _run(tmp_path, base, bad) == 1
    assert "compile-once speedup" in capsys.readouterr().out


def test_compile_once_key_optional_for_old_baselines(tmp_path):
    # A pre-compiler baseline has no compile-once family: the current
    # file's floor still applies, the baseline's absence does not fail.
    old_base = _payload(BASE)
    assert _run(tmp_path, old_base, _payload(BASE, compile_speedup=2.5)) == 0
    # And a current file without the key is fine against an old baseline...
    assert _run(tmp_path, old_base, _payload(BASE)) == 0
    # ...but not against a baseline that had it (family disappeared).
    new_base = _payload(BASE, compile_speedup=2.5)
    assert _run(tmp_path, new_base, _payload(BASE)) == 1


def _with_retry_overhead(payload, overhead):
    payload = json.loads(json.dumps(payload))  # deep copy
    payload["derived"][check_bench.RETRY_OVERHEAD_KEY] = overhead
    return payload


def test_retry_overhead_ceiling_gates_when_present(tmp_path, capsys):
    base = _with_retry_overhead(_payload(BASE), 2.0)
    good = _with_retry_overhead(_payload(BASE), 4.0)
    bad = _with_retry_overhead(_payload(BASE), 50.0)
    assert _run(tmp_path, base, good) == 0
    assert _run(tmp_path, base, bad) == 1
    assert "above ceiling" in capsys.readouterr().out


def test_retry_overhead_first_appearance_tolerant(tmp_path):
    # A baseline predating the retry benchmark: the ceiling applies to
    # the current file only, and absence on both sides never gates.
    old_base = _payload(BASE)
    assert _run(tmp_path, old_base, _with_retry_overhead(_payload(BASE), 3.0)) == 0
    assert _run(tmp_path, old_base, _payload(BASE)) == 0
    # Once the baseline carries the family, dropping it fails...
    new_base = _with_retry_overhead(_payload(BASE), 3.0)
    assert _run(tmp_path, new_base, _payload(BASE)) == 1
    # ...unless the run is an explicit subset.
    assert _run(tmp_path, new_base, _payload(BASE), "--subset") == 0


def test_max_retry_overhead_flag(tmp_path):
    base = _with_retry_overhead(_payload(BASE), 2.0)
    current = _with_retry_overhead(_payload(BASE), 5.0)
    assert _run(tmp_path, base, current) == 1  # default ceiling 4.0
    assert _run(tmp_path, base, current, "--max-retry-overhead", "12") == 0


@pytest.mark.parametrize("slack", ["0.25", "5.0"])
def test_max_regression_flag(tmp_path, slack):
    current = dict(BASE, a=_bench(3.0, "ref"))  # +50% normalized
    expected = 1 if slack == "0.25" else 0
    result = _run(
        tmp_path, _payload(BASE), _payload(current), "--max-regression", slack
    )
    assert result == expected


def _with_phases(payload, **shares):
    payload = json.loads(json.dumps(payload))  # deep copy
    payload["phases"] = {"workload": "w", "coverage": 0.99, "shares": shares}
    return payload


PHASED_BASE = _with_phases(_payload(BASE), kernel=0.6, execute=0.3)


def test_missing_phases_fail_against_a_phased_baseline(tmp_path, capsys):
    # A perf run whose trace failed writes no phases; that must not turn
    # the drift gate off silently.
    assert _run(tmp_path, PHASED_BASE, _payload(BASE)) == 1
    assert "lacks the baseline's traced phases" in capsys.readouterr().out


def test_phase_drift_over_limit_fails(tmp_path, capsys):
    within = _with_phases(_payload(BASE), kernel=0.5, execute=0.4)
    over = _with_phases(_payload(BASE), kernel=0.2, execute=0.7)
    assert _run(tmp_path, PHASED_BASE, within) == 0
    assert _run(tmp_path, PHASED_BASE, over) == 1
    assert "phase kernel share drifted 0.400" in capsys.readouterr().out


def test_phases_gate_is_first_appearance_and_subset_tolerant(tmp_path):
    current = _with_phases(_payload(BASE), kernel=0.1, execute=0.9)
    assert _run(tmp_path, _payload(BASE), current) == 0
    assert _run(tmp_path, PHASED_BASE, _payload(BASE), "--subset") == 0
