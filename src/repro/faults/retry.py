"""Unified retry/backoff policy for the fleet and executors.

One :class:`RetryPolicy` shape is applied everywhere a transient failure
can be absorbed: the fleet's drain (which backs off on the fleet's
:class:`~repro.fleet.clock.SimulatedClock` in *ticks*), and the
store-backed executor cache (which degrades an unreadable entry to a
miss). Backoff is exponential with derived-RNG jitter
(:func:`repro.utils.rng.derive_rng` over ``(seed, run_id, attempt)``) —
never wall-clock or global-RNG based, so a retried run's tick schedule
is part of the reproducible record.

``REPRO_RETRY_MAX`` overrides the attempt budget of env-constructed
services (:meth:`RetryPolicy.from_env`).
"""

from __future__ import annotations

import os
import sqlite3
from dataclasses import dataclass
from typing import Callable, Optional, Tuple, Type

from repro.faults.inject import InjectedCrash, InjectedFault
from repro.obs import METRICS
from repro.utils.rng import derive_rng

#: Environment knob (see the README's ``REPRO_*`` table).
RETRY_MAX_ENV = "REPRO_RETRY_MAX"

#: Exception classes retried by default. Deliberately excludes plain
#: ``RuntimeError``/``ValueError`` — a deterministic workload that raised
#: once will raise identically on every retry, so only classes that model
#: *environmental* transients qualify. ``InjectedCrash`` is never
#: retryable regardless of this tuple.
DEFAULT_RETRYABLE: Tuple[Type[BaseException], ...] = (
    InjectedFault,
    TimeoutError,
    ConnectionError,
    OSError,
    sqlite3.OperationalError,
)


@dataclass(frozen=True)
class RetryPolicy:
    """How many times to retry, how long to back off, and on what."""

    #: Total execution attempts (1 = never retry).
    max_attempts: int = 3
    #: First backoff, in fleet-clock ticks (scaled by ``backoff_factor``
    #: each further attempt).
    backoff_base: int = 1
    backoff_factor: float = 2.0
    #: Max extra ticks of derived-RNG jitter added per backoff (0 = none).
    jitter: int = 1
    retryable: Tuple[Type[BaseException], ...] = DEFAULT_RETRYABLE
    #: Seed for the jitter stream (derived per ``(run_id, attempt)``).
    seed: int = 2023

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base < 0:
            raise ValueError("backoff_base must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")

    def is_retryable(self, exc: BaseException) -> bool:
        """Crash faults never retry; everything else goes by class."""
        if isinstance(exc, InjectedCrash):
            return False
        return isinstance(exc, self.retryable)

    def backoff_ticks(self, label: str, attempt: int) -> int:
        """Backoff before retry ``attempt`` (1-based), in clock ticks.

        ``base * factor**(attempt-1)`` plus a jitter draw from a derived
        RNG keyed by ``(seed, label, attempt)`` — bit-stable per job, yet
        de-synchronized across jobs so retried work spreads out.
        """
        if attempt < 1:
            raise ValueError("attempt must be >= 1")
        base = int(round(self.backoff_base * self.backoff_factor ** (attempt - 1)))
        extra = 0
        if self.jitter:
            rng = derive_rng(self.seed, f"retry:{label}:{attempt}")
            extra = int(rng.integers(0, self.jitter + 1))
        return max(1, base + extra)

    @classmethod
    def from_env(cls, **overrides) -> "RetryPolicy":
        """Build a policy whose attempt budget comes from ``REPRO_RETRY_MAX``.

        Explicit ``overrides`` win over the environment; a malformed env
        value falls back to the default rather than failing startup.
        """
        if "max_attempts" not in overrides:
            raw = os.environ.get(RETRY_MAX_ENV, "").strip()
            if raw:
                try:
                    overrides["max_attempts"] = max(1, int(raw))
                except ValueError:
                    pass  # malformed knob: keep the default
        return cls(**overrides)


def call_with_retry(
    fn: Callable[[], object],
    *,
    policy: Optional[RetryPolicy] = None,
    label: str = "",
    sleep: Optional[Callable[[int], None]] = None,
):
    """Call ``fn`` under ``policy``, retrying retryable failures.

    ``sleep`` receives the backoff in ticks (the fleet passes its
    simulated clock's ``advance``); ``None`` retries immediately —
    right for in-process I/O where the transient is the injected fault
    itself, not a real device. Counts ``retry.attempts`` per retry and
    ``retry.gave_up`` when the budget is exhausted, then re-raises the
    final exception.
    """
    policy = policy if policy is not None else RetryPolicy()
    attempt = 0
    while True:
        attempt += 1
        try:
            return fn()
        except BaseException as exc:
            if not policy.is_retryable(exc) or attempt >= policy.max_attempts:
                if policy.is_retryable(exc):
                    METRICS.counter("retry.gave_up").inc()
                raise
            METRICS.counter("retry.attempts").inc()
            if sleep is not None:
                sleep(policy.backoff_ticks(label or "call", attempt))
