"""repro.faults — deterministic fault injection and unified recovery.

Three pieces, one determinism contract:

* :mod:`repro.faults.plan` — declarative :class:`FaultPlan` schedules
  (the ``REPRO_FAULTS`` grammar) whose trigger decisions are pure
  functions of content-hashed seeds;
* :mod:`repro.faults.inject` — the process-wide :data:`INJECTOR` that
  production fault sites fire through, raising :class:`InjectedFault`
  (transient), :class:`InjectedCrash` (death before commit), sleeping a
  latency spike, or mangling a payload;
* :mod:`repro.faults.retry` — the :class:`RetryPolicy` applied uniformly
  by the fleet's drain and store-backed executors, with derived-RNG
  jitter on the fleet's simulated clock.
"""

from repro.faults.inject import (
    CORRUPT_PREFIX,
    FAULTS_ENV,
    FaultInjector,
    InjectedCrash,
    InjectedFault,
    INJECTOR,
)
from repro.faults.plan import DEFAULT_LATENCY_S, KINDS, FaultPlan, FaultSpec
from repro.faults.retry import (
    DEFAULT_RETRYABLE,
    RETRY_MAX_ENV,
    RetryPolicy,
    call_with_retry,
)

__all__ = [
    "CORRUPT_PREFIX",
    "DEFAULT_LATENCY_S",
    "DEFAULT_RETRYABLE",
    "FAULTS_ENV",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "INJECTOR",
    "InjectedCrash",
    "InjectedFault",
    "KINDS",
    "RETRY_MAX_ENV",
    "RetryPolicy",
    "call_with_retry",
]
