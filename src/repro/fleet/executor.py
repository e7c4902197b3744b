"""The fleet as a drop-in :mod:`repro.runtime` executor.

:class:`FleetExecutor` satisfies the same contract as
:class:`~repro.runtime.executors.SerialExecutor` — specs in, results out,
in input order, bit-identical payloads — while executing across the
device fleet. Select it for any existing entry point with::

    REPRO_EXECUTOR=fleet            # optionally REPRO_FLEET_DB=path.db
    python examples/experiment_sweep.py

or construct it directly for programmatic access to the scheduler
telemetry::

    with FleetExecutor(db_path="fleet.db") as executor:
        outcome = executor.run_plan(plan)
        print(executor.telemetry.snapshot())
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence, Union

from repro.fleet.scheduler import SchedulerConfig
from repro.fleet.service import FleetService
from repro.runtime.executors import BaseExecutor
from repro.runtime.results import RunResult
from repro.runtime.spec import RunSpec

#: Environment knob: path of the persistent fleet job store.
FLEET_DB_ENV = "REPRO_FLEET_DB"
#: Environment knob: comma-separated machine subset for the fleet.
FLEET_MACHINES_ENV = "REPRO_FLEET_MACHINES"


class FleetExecutor(BaseExecutor):
    """Executor facade over a (lazily started) :class:`FleetService`.

    ``hits``/``misses`` mirror :class:`~repro.runtime.executors.
    CachedExecutor`: a hit is a spec served from the job store without
    re-execution.
    """

    def __init__(
        self,
        machines: Optional[Sequence[str]] = None,
        db_path: Optional[Union[str, os.PathLike]] = None,
        seed: int = 2023,
        config: Optional[SchedulerConfig] = None,
        service: Optional[FleetService] = None,
        timeout: Optional[float] = None,
    ):
        self.timeout = timeout
        self.service = service or FleetService(
            machines=machines,
            db_path=str(db_path) if db_path else None,
            seed=seed,
            config=config,
        )
        self.hits = 0
        self.misses = 0

    @property
    def telemetry(self):
        return self.service.telemetry

    @property
    def fleet(self):
        return self.service.fleet

    @property
    def store(self):
        return self.service.store

    @property
    def results(self):
        """The experiment store holding this fleet's jobs and payloads."""
        return self.service.store.results

    def run(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        results = self.service.run_specs(specs, timeout=self.timeout)
        cached = sum(1 for result in results if result.from_cache)
        self.hits += cached
        self.misses += len(results) - cached
        return results

    def close(self) -> None:
        self.service.close()

    def __enter__(self) -> "FleetExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def fleet_executor_from_env(**overrides) -> FleetExecutor:
    """Build a :class:`FleetExecutor` from ``REPRO_FLEET_*`` knobs.

    ``REPRO_FLEET_DB`` selects the persistent job store (default:
    in-memory, per-process); ``REPRO_FLEET_MACHINES`` restricts the fleet
    to a comma-separated machine subset. Keyword overrides win over the
    environment.
    """
    db = os.environ.get(FLEET_DB_ENV, "").strip()
    machines_env = os.environ.get(FLEET_MACHINES_ENV, "").strip()
    machines = (
        [name.strip() for name in machines_env.split(",") if name.strip()]
        if machines_env
        else None
    )
    kwargs = {"db_path": db or None, "machines": machines}
    kwargs.update(overrides)
    return FleetExecutor(**kwargs)
