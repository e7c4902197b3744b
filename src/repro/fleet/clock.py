"""Shared simulated time for the device fleet.

The fleet does not run on wall-clock time: transient traces, calibration
cycles and scheduling decisions all advance on a single integer *tick*
counter, one tick per completed (or deferred) job. That keeps every
time-dependent quantity — per-device transient observations, calibration
refreshes, deferral windows — a pure function of the tick, and since the
drain runs its jobs one at a time on one thread, the tick at which each
decision is made is a pure function of the submitted specs too.
"""

from __future__ import annotations

import threading


class SimulatedClock:
    """A monotonic tick counter shared by the whole fleet.

    A lock guards the counter because one clock may serve several fleets
    (``DeviceFleet(clock=...)``), each driven from its own thread.
    """

    def __init__(self, start: int = 0):
        if start < 0:
            raise ValueError("start tick must be >= 0")
        self._now = int(start)
        self._lock = threading.Lock()

    def now(self) -> int:
        with self._lock:
            return self._now

    def advance(self, ticks: int = 1) -> int:
        """Advance time; returns the new tick."""
        if ticks < 1:
            raise ValueError("ticks must be >= 1")
        with self._lock:
            self._now += int(ticks)
            return self._now

    def __repr__(self) -> str:
        return f"SimulatedClock(t={self.now()})"
