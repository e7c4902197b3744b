"""Per-device worker threads.

One thread per fleet device, each draining its own FIFO queue. Workers are
deliberately thin: all scheduling and persistence logic lives
in :class:`~repro.fleet.service.FleetService` (passed in as the
``execute`` callback), so the threading surface stays small and the
interesting logic stays single-threaded-testable.
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Dict, Optional

from repro.fleet.registry import DeviceFleet, FleetDevice
from repro.obs import monotonic

#: Sentinel that tells a worker to exit its loop.
_STOP = object()


class DeviceWorker(threading.Thread):
    """Drains one device's job queue through the service's execute hook."""

    def __init__(
        self,
        device: FleetDevice,
        execute: Callable[[FleetDevice, Any], None],
    ):
        super().__init__(name=f"fleet-{device.name}", daemon=True)
        self.device = device
        self.execute = execute
        self.jobs: "queue.Queue" = queue.Queue()

    def submit(self, job: Any) -> None:
        self.jobs.put(job)

    def stop(self) -> None:
        self.jobs.put(_STOP)

    def run(self) -> None:
        while True:
            job = self.jobs.get()
            if job is _STOP:
                break
            self.execute(self.device, job)


class WorkerPool:
    """One :class:`DeviceWorker` per fleet device."""

    def __init__(
        self,
        fleet: DeviceFleet,
        execute: Callable[[FleetDevice, Any], None],
    ):
        self.workers: Dict[str, DeviceWorker] = {
            device.name: DeviceWorker(device, execute) for device in fleet
        }
        self._started = False

    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for worker in self.workers.values():
            worker.start()

    def submit(self, device_name: str, job: Any) -> None:
        if not self._started:
            raise RuntimeError("worker pool not started")
        self.workers[device_name].submit(job)

    def stop(self, deadline: Optional[float] = None) -> None:
        """Stop every worker and join them until ``deadline`` (a
        :func:`~repro.obs.monotonic` time; ``None`` waits for each to
        finish its job). A worker still busy at the deadline finishes
        in the background."""
        if not self._started:
            return
        for worker in self.workers.values():
            worker.stop()
        for worker in self.workers.values():
            worker.join(
                None if deadline is None else max(0.0, deadline - monotonic())
            )
        self._started = False
