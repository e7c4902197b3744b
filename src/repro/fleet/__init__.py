"""``repro.fleet`` — transient-aware multi-device job scheduling.

The paper schedules *iterations* within one VQE run around a single
machine's transient windows; this package applies the same idea one level
up: treat the seven fake IBMQ machines as a **fleet**, monitor each one's
transient state live (Kalman + CFAR over its noise series), and schedule
whole jobs — accepted, deferred, or re-routed — across the fleet.

Layers (bottom-up):

* :mod:`~repro.fleet.clock` — shared simulated time (ticks, not seconds);
* :mod:`~repro.fleet.registry` — :class:`DeviceFleet`: live machines with
  advancing calibration snapshots, monitor traces, injected windows;
* :mod:`~repro.fleet.store` — :class:`JobStore`: the job table of an
  experiment store, keyed by ``RunSpec`` content hash (resubmission
  dedupes);
* :mod:`~repro.fleet.scheduler` — :class:`TransientAwareScheduler`:
  defer-or-route decisions from per-device transient verdicts;
* :mod:`~repro.fleet.health` — :class:`DeviceHealth`: quarantine after
  consecutive failures/transients, probe-based re-admission;
* :mod:`~repro.fleet.workers` — one worker thread per device;
* :mod:`~repro.fleet.service` — :class:`FleetService`: submit / drain /
  collect, plus telemetry;
* :mod:`~repro.fleet.executor` — :class:`FleetExecutor`: the
  ``REPRO_EXECUTOR=fleet`` entry point for the plan runtime.

CLI::

    python -m repro.fleet submit --apps App1 App2 --schemes baseline qismet \
        --iterations 100 --db fleet.db
    python -m repro.fleet drain --resume --db fleet.db
    python -m repro.fleet status --db fleet.db
    python -m repro.fleet stats  --db fleet.db
    python -m repro.fleet devices
"""

from repro.fleet.clock import SimulatedClock
from repro.fleet.executor import (
    FLEET_DB_ENV,
    FleetExecutor,
    fleet_executor_from_env,
)
from repro.fleet.health import DeviceHealth, HealthConfig
from repro.fleet.registry import DeviceFleet, FleetDevice, InjectedWindow
from repro.fleet.scheduler import (
    SchedulerConfig,
    TransientAwareScheduler,
    TransientVerdict,
)
from repro.fleet.service import FleetError, FleetService
from repro.fleet.store import JobRecord, JobStore
from repro.fleet.telemetry import FleetTelemetry

__all__ = [
    "FLEET_DB_ENV",
    "DeviceFleet",
    "DeviceHealth",
    "FleetDevice",
    "FleetError",
    "FleetExecutor",
    "FleetService",
    "FleetTelemetry",
    "HealthConfig",
    "InjectedWindow",
    "JobRecord",
    "JobStore",
    "SchedulerConfig",
    "SimulatedClock",
    "TransientAwareScheduler",
    "TransientVerdict",
    "fleet_executor_from_env",
]
