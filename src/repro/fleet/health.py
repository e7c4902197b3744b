"""Device health tracking: quarantine, probing, re-admission.

The scheduler already *defers* jobs away from devices whose noise model
is inside a transient window; this module adds the coarser, stickier
layer the ROADMAP's Fleet-v2 item asks for — graceful degradation when a
device keeps failing. A device is **quarantined** (routed around for
``quarantine_ticks`` fleet-clock ticks) after either

* ``failure_threshold`` *consecutive* job failures, or
* ``transient_threshold`` *consecutive* CFAR/Kalman transient verdicts
  (a device stuck inside a transient window far longer than the
  per-job defer budget can absorb).

Once its quarantine window elapses, the next routing decision runs a
*health probe* (the scheduler's own transient check at the current
tick): a clean probe re-admits the device, a flagged probe extends the
quarantine by another window. Forced placements (defer budget exhausted)
ignore quarantine so a fully-quarantined fleet still makes progress.

Every quarantine is counted in :data:`repro.obs.METRICS` under
``device.quarantined``, and the fleet service journals it as a
``quarantine`` row in its store.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.obs import METRICS


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds for quarantine entry and exit."""

    #: Consecutive job failures before quarantine.
    failure_threshold: int = 3
    #: Consecutive dispatch-time transient verdicts before
    #: quarantine. Deliberately much larger than the per-job defer
    #: budget: ordinary transient windows resolve by deferral alone.
    transient_threshold: int = 24
    #: Quarantine length, in fleet-clock ticks.
    quarantine_ticks: int = 16

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if self.transient_threshold < 1:
            raise ValueError("transient_threshold must be >= 1")
        if self.quarantine_ticks < 1:
            raise ValueError("quarantine_ticks must be >= 1")


class DeviceHealth:
    """Per-device consecutive-failure counters and quarantine windows."""

    def __init__(self, config: Optional[HealthConfig] = None) -> None:
        self.config = config if config is not None else HealthConfig()
        self._lock = threading.Lock()
        self._failures: Dict[str, int] = {}
        self._transients: Dict[str, int] = {}
        #: device -> tick at which quarantine ends (exclusive).
        self._until: Dict[str, int] = {}
        self.quarantines = 0

    # -- signal intake -------------------------------------------------------

    def record_success(self, name: str) -> None:
        """A completed job clears both consecutive counters."""
        with self._lock:
            self._failures.pop(name, None)
            self._transients.pop(name, None)

    def record_failure(self, name: str, tick: int) -> bool:
        """Count a job failure; return True when it *newly* quarantines."""
        with self._lock:
            count = self._failures.get(name, 0) + 1
            self._failures[name] = count
            if count >= self.config.failure_threshold:
                return self._quarantine_locked(name, tick)
        return False

    def record_transient(self, name: str, tick: int) -> bool:
        """Count a transient verdict; return True when it quarantines."""
        with self._lock:
            count = self._transients.get(name, 0) + 1
            self._transients[name] = count
            if count >= self.config.transient_threshold:
                return self._quarantine_locked(name, tick)
        return False

    def _quarantine_locked(self, name: str, tick: int) -> bool:
        already = name in self._until
        self._until[name] = tick + self.config.quarantine_ticks
        self._failures.pop(name, None)
        self._transients.pop(name, None)
        if not already:
            self.quarantines += 1
            METRICS.counter("device.quarantined").inc()
        return not already

    # -- routing-side queries ------------------------------------------------

    def blocked(
        self, name: str, tick: int, probe: Optional[Callable[[str], bool]] = None
    ) -> bool:
        """Whether routing should skip ``name`` at ``tick``.

        Inside the quarantine window: always blocked. At or past its
        end: run ``probe`` (True = still unhealthy) — a clean probe
        re-admits the device, a flagged one extends the quarantine by
        another window.
        """
        with self._lock:
            until = self._until.get(name)
            if until is None:
                return False
            if tick < until:
                return True
            flagged = bool(probe(name)) if probe is not None else False
            if flagged:
                self._until[name] = tick + self.config.quarantine_ticks
                return True
            del self._until[name]
            return False

    def quarantined_devices(self) -> Dict[str, int]:
        """Snapshot of device -> quarantine-end tick."""
        with self._lock:
            return dict(self._until)
