"""The repository benchmark's import contract with the library.

``perfbench/run.py`` records the resolved execution settings of every
run through library functions (``environment()``), so those must stay
importable and report the one execution path. Importing
``perfbench.run`` clears every ``REPRO_*`` variable of the importing
process, so the check runs in a subprocess.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

RESOLVED_KEYS = {
    "kernel_engine",
    "kernel_threads",
    "batching",
    "fusion",
    "plan_cache_capacity",
    "noisy_engine",
    "full_scale",
}

_SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1] + "/src", sys.argv[1]]
from perfbench.run import environment
print(json.dumps(environment()["resolved"]))
"""


def test_benchmark_environment_resolves_one_path():
    completed = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(ROOT)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    resolved = json.loads(completed.stdout.strip().splitlines()[-1])
    assert set(resolved) == RESOLVED_KEYS
    assert resolved["kernel_engine"] == "pair"
    assert resolved["kernel_threads"] == 1
    assert resolved["plan_cache_capacity"] == 256
    assert resolved["noisy_engine"] == "dm"
    assert resolved["fusion"] is True
    assert resolved["batching"] is True
