"""Regenerate ``perfbench/references.json``.

The benchmark checks every pass against these values: for each workload
and each of its ``SEED_POOL`` experiment seeds, every run's final true
energy and ``total_circuits`` plus the workload's QISMET gain. It also
holds the exact ground energy of the 14-qubit TFIM (by sparse Lanczos;
dense diagonalisation of a 2**14 matrix does not fit in memory).

Run from the root of a checkout after a change that is *meant* to alter
results, and say so in the change::

    python3 perfbench/make_references.py            # every workload
    python3 perfbench/make_references.py fig17-grid # one workload
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
for _key in [key for key in os.environ if key.startswith("REPRO_")]:
    del os.environ[_key]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT))

import json  # noqa: E402
import shutil  # noqa: E402
import tempfile  # noqa: E402

from perfbench.workloads import (  # noqa: E402
    SEED_POOL, WIDE_APP, WORKLOADS, sparse_ground_energy,
)

REFERENCES = HERE / "references.json"


def reference_for(name: str, seed_index: int, ground_energies) -> tuple:
    """(experiment seed, reference entry) of one workload input."""
    workload = WORKLOADS[name](seed_index, ground_energies)
    workload.setup()
    directory = Path(tempfile.mkdtemp(prefix="perfbench-ref-", dir=ROOT / ".bench_build"))
    try:
        workload.begin(directory)
        try:
            outcome = workload.cold()
        finally:
            workload.end()
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return workload.experiment_seed, {
        "qismet_gain": outcome.qismet_gain,
        "runs": {
            run.run_id: {
                "scheme": run.scheme,
                "app": run.app_name,
                "final_true_energy": run.result.records[-1].true_energy,
                "total_circuits": run.result.total_circuits,
            }
            for run in outcome.runs
        },
    }


def main(argv) -> int:
    names = argv or sorted(WORKLOADS)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    if REFERENCES.exists():
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
    else:
        references = {"seed_pool": SEED_POOL, "ground_energies": {}, "workloads": {}}
    if WIDE_APP.name not in references["ground_energies"]:
        references["ground_energies"][WIDE_APP.name] = sparse_ground_energy(
            WIDE_APP.build_hamiltonian()
        )
    for name in names:
        per_seed = {}
        for index in range(SEED_POOL):
            seed, entry = reference_for(name, index, references["ground_energies"])
            per_seed[str(seed)] = entry
            print(f"{name} experiment seed {seed}: {len(entry['runs'])} runs", flush=True)
        references["workloads"][name] = per_seed
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
