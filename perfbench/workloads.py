"""The benchmark's workloads and their deterministic input generators.

Every workload turns the benchmark's ``--seed`` into an *experiment
seed* and generates its :class:`~repro.runtime.RunSpec` list (or
:class:`~repro.runtime.ExperimentPlan`) from it; the library receives
only those generated inputs. The experiment seed is
``base_seed + seed % SEED_POOL``, so seed 0 is the paper's seed for the
figure and every seed maps onto one of ``SEED_POOL`` experiment seeds
whose outputs are pinned in ``references.json``.

A workload is driven in *cycles*. :meth:`Workload.begin` opens a fresh
on-disk store (and fleet job DB) in the given directory,
:meth:`Workload.cold` executes every spec against the empty store and
reads the results back the way the figure builders do, and
:meth:`Workload.warm` re-submits the same specs against the populated
store (all cache/dedupe hits). :meth:`Workload.end` closes the store.

Workloads (closed loop, one process, at most two threads):

* ``fig17-grid`` — Fig. 17's headline table: App1-App6 x the six
  ``FIG17_SCHEMES`` (36 runs, four distinct ansaetze) through
  ``CachedExecutor(SerialExecutor())``.
* ``fleet-sweep`` — the Fig. 13 grid (6 ``machine:<m>`` apps x
  {baseline, qismet}) through ``FleetExecutor`` on two devices (two
  worker threads) with the job store on disk.
* ``wide-14q`` — a 14-qubit TFIM with RealAmplitudes reps=2 on the
  toronto trace and noise model, baseline and qismet, built with
  ``build_vqe(...).run`` directly (``execute_run`` would diagonalise the
  14-qubit Hamiltonian densely for its ground truth).
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

import repro.experiments.schemes as schemes
import repro.runtime.execute as execute_module
from repro.experiments.figures import FIG17_SCHEMES, MACHINE_ITERATIONS
from repro.experiments.registry import APPLICATIONS, AppConfig, machine_app
from repro.fleet.executor import FleetExecutor
from repro.fleet.service import FleetService
from repro.noise.noise_model import NoiseModel
from repro.runtime import ExperimentPlan, RunSpec
from repro.runtime.execute import run_seed, spsa_seed, trace_length, warm_plan_cache
from repro.runtime.executors import BaseExecutor, CachedExecutor, SerialExecutor
from repro.runtime.results import RunResult
from repro.runtime.spec import resolve_app
from repro.store.query import RunQuery
from repro.store.store import ExperimentStore
from repro.utils.rng import derive_seed
from repro.vqa.objective import EnergyObjective

#: Number of distinct experiment seeds a workload draws from.
SEED_POOL = 32

FIG17_ITERATIONS = 10
FLEET_ITERATIONS = 20
WIDE_ITERATIONS = 24

#: The two fleet devices (one worker thread each) and the fleet's own
#: seed (device monitor traces), as in ``fig13_fleet``.
FLEET_MACHINES = ("toronto", "sydney")
FLEET_SEED = 2023

WIDE_APP = AppConfig("wide-14q", 14, "RA", 2, "toronto", "v1")


class Outcome:
    """What one pass produced: the runs and the comparison read-back."""

    def __init__(self, runs: List[RunResult], qismet_gain: float):
        self.runs = runs
        self.qismet_gain = qismet_gain

    @property
    def circuits(self) -> int:
        return sum(run.result.total_circuits for run in self.runs)


class Workload:
    """Base: specs executed through ``CachedExecutor(inner)`` on a fresh
    on-disk experiment store per cycle, read back through the store's
    query API."""

    name = ""
    why = ""
    base_seed = 13

    def __init__(self, seed: int, ground_energies: Optional[Dict[str, float]] = None):
        self.seed = seed
        self.experiment_seed = experiment_seed(self, seed)
        self.ground_energies = dict(ground_energies or {})
        self.plan: Optional[ExperimentPlan] = None
        self.specs: List[RunSpec] = []
        self.store: Optional[ExperimentStore] = None
        self.executor = None

    # -- generation and set-up ---------------------------------------------

    def generate(self) -> List[RunSpec]:
        raise NotImplementedError

    def setup(self) -> None:
        """Generate the inputs and compile every distinct ansatz once."""
        self.specs = self.generate()
        self.query = RunQuery(run_ids=[spec.run_id for spec in self.specs])
        warmed = set()
        for spec in self.specs:
            if spec.app_name not in warmed:
                warmed.add(spec.app_name)
                warm_plan_cache(spec)

    # -- one cycle ------------------------------------------------------------

    def inner(self) -> BaseExecutor:
        return SerialExecutor()

    def begin(self, directory: Path) -> None:
        self.store = ExperimentStore(directory / "store.sqlite")
        self.executor = CachedExecutor(self.store, self.inner())

    def submit(self) -> List[RunResult]:
        return self.executor.run(self.specs)

    def read_back(self, runs: List[RunResult]) -> Outcome:
        self.store.append_many(runs)
        self.store.comparisons(self.query)
        return Outcome(runs, self.store.aggregate(self.query)["qismet"])

    def cold(self) -> Outcome:
        return self.read_back(self.submit())

    def warm(self) -> Outcome:
        return self.read_back(self.submit())

    def end(self) -> None:
        if self.executor is not None:
            self.executor.close()
        if self.store is not None:
            self.store.close()
        self.store = self.executor = None


class Fig17Grid(Workload):
    name = "fig17-grid"
    why = (
        "Fig. 17 grid, 36 runs sharing four ansaetze through a cached serial "
        "executor: cross-run batching and store writes/reads show here"
    )
    base_seed = 13

    def generate(self) -> List[RunSpec]:
        self.plan = ExperimentPlan(
            apps=tuple(sorted(APPLICATIONS)),
            schemes=FIG17_SCHEMES,
            iterations=FIG17_ITERATIONS,
            seeds=(self.experiment_seed,),
            name="fig17",
        )
        return self.plan.expand()

    def submit(self) -> List[RunResult]:
        return self.executor.run_plan(self.plan).runs

    def read_back(self, runs: List[RunResult]) -> Outcome:
        self.store.append_many(runs)
        self.store.record_plan(self.plan)
        self.store.comparisons(self.query)
        return Outcome(runs, self.store.aggregate(self.query)["qismet"])


class FleetSweep(Workload):
    name = "fleet-sweep"
    why = (
        "Fig. 13 grid through the fleet on two devices: the only workload "
        "using the scheduler, worker threads and the job store"
    )
    base_seed = 17

    def generate(self) -> List[RunSpec]:
        return [
            RunSpec(
                app=machine_app(machine), scheme=scheme,
                iterations=FLEET_ITERATIONS, seed=self.experiment_seed,
            )
            for machine in MACHINE_ITERATIONS
            for scheme in ("baseline", "qismet")
        ]

    def begin(self, directory: Path) -> None:
        service = FleetService(
            machines=FLEET_MACHINES,
            db_path=str(directory / "fleet.db"),
            seed=FLEET_SEED,
            execute=execute_module.execute_run,
        )
        self.executor = FleetExecutor(service=service)

    def read_back(self, runs: List[RunResult]) -> Outcome:
        store = self.executor.results
        store.append_many(runs)
        store.comparisons(self.query)
        return Outcome(runs, store.aggregate(self.query)["qismet"])


class DirectVQEExecutor(BaseExecutor):
    """Runs specs with ``build_vqe(...).run`` in this process.

    Mirrors :func:`repro.runtime.execute.execute_run` step for step (same
    seed derivations, so results are what ``execute_run`` would return)
    but takes the ground-truth energy as given instead of diagonalising
    the Hamiltonian densely.
    """

    def __init__(self, ground_energy: float):
        self.ground_energy = ground_energy

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        return [self._run(spec) for spec in specs]

    def _run(self, spec: RunSpec) -> RunResult:
        app = resolve_app(spec.app)
        hamiltonian = app.build_hamiltonian()
        noise_model = NoiseModel.from_device(app.build_device())
        trace = app.build_trace(length=trace_length(spec.iterations), seed=spec.seed)
        ansatz = app.build_ansatz()
        theta0 = ansatz.initial_point(seed=derive_seed(spec.seed, f"theta0:{app.name}"))
        vqe = schemes.build_vqe(
            spec.scheme,
            EnergyObjective(ansatz, hamiltonian),
            trace=trace,
            noise_model=noise_model,
            shots=spec.shots,
            seed=run_seed(spec),
            spsa_seed=spsa_seed(spec),
            iterations_hint=spec.iterations,
        )
        start = time.perf_counter()
        result = vqe.run(spec.iterations, theta0=np.asarray(theta0, dtype=float))
        return RunResult(
            spec=spec,
            result=result,
            ground_truth=self.ground_energy,
            elapsed_s=time.perf_counter() - start,
        )


class Wide14q(Workload):
    name = "wide-14q"
    why = (
        "14-qubit TFIM, the only state above the pair-kernel threshold: pair "
        "kernels and matrix-free expectations; small-state changes show nothing"
    )
    base_seed = 13

    def generate(self) -> List[RunSpec]:
        return [
            RunSpec(
                app=WIDE_APP, scheme=scheme,
                iterations=WIDE_ITERATIONS, seed=self.experiment_seed,
            )
            for scheme in ("baseline", "qismet")
        ]

    def inner(self) -> BaseExecutor:
        return DirectVQEExecutor(self.ground_energies[WIDE_APP.name])


WORKLOADS = {cls.name: cls for cls in (Fig17Grid, FleetSweep, Wide14q)}


def experiment_seed(workload, seed: int) -> int:
    """The experiment seed a benchmark seed selects for ``workload``."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    return workload.base_seed + seed % SEED_POOL


def generate_specs(name: str, seed: int) -> List[RunSpec]:
    """The specs workload ``name`` executes for benchmark ``seed``."""
    return WORKLOADS[name](seed).generate()


def sparse_ground_energy(hamiltonian) -> float:
    """Lowest eigenvalue of a Pauli sum via a sparse matrix and Lanczos."""
    import numpy as np
    from scipy.sparse import csr_matrix, identity, kron
    from scipy.sparse.linalg import eigsh

    paulis = {
        "I": identity(2, format="csr", dtype=complex),
        "X": csr_matrix(np.array([[0, 1], [1, 0]], dtype=complex)),
        "Y": csr_matrix(np.array([[0, -1j], [1j, 0]], dtype=complex)),
        "Z": csr_matrix(np.array([[1, 0], [0, -1]], dtype=complex)),
    }
    total = None
    for term in hamiltonian.terms:
        matrix = None
        for char in term.pauli.label:
            factor = paulis[char]
            matrix = factor if matrix is None else kron(matrix, factor, format="csr")
        matrix = term.coefficient * matrix
        total = matrix if total is None else total + matrix
    values = eigsh(total, k=1, which="SA", return_eigenvectors=False, tol=1e-12)
    return float(values[0].real)
