"""The shared plan cache and the content keys it is indexed by.

The paper's workload is thousands of re-evaluations of the *same* ansatz,
so compilation must happen once per circuit structure, not once per run.
Every entry point in :mod:`repro.compiler.api` keys its output by a
content hash of the circuit (gate names, qubit operands, and either the
literal float parameters or the positional affine map of symbolic ones)
plus the pipeline configuration, and stores it in one process-wide LRU —
shared by ``run_circuit``, the figure benchmarks, and the fleet's worker
threads alike. The LRU holds :data:`DEFAULT_PLAN_CACHE_CAPACITY`
entries; ``compile_plan(..., cache=False)`` is the uncached route.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Callable, Dict, Iterable, Optional, Sequence, Tuple

from repro.circuits.circuit import QuantumCircuit
from repro.circuits.parameter import Parameter, ParameterExpression
from repro.faults.inject import InjectedFault, INJECTOR
from repro.obs import METRICS

DEFAULT_PLAN_CACHE_CAPACITY = 256

#: Sentinel distinguishing "no cache entry" from any cached value.
_MISSING = object()


def fusion_enabled() -> bool:
    """Whether default compiles fuse static gates: always.

    Kept so run manifests can record the resolved setting; unfused plans
    come only from an explicit ``compile_plan(..., fusion=False)``.
    """
    return True


def plan_cache_capacity() -> int:
    """Capacity of the shared plan cache: always the default.

    Kept so run manifests can record the resolved setting.
    """
    return DEFAULT_PLAN_CACHE_CAPACITY


class PlanCache:
    """A thread-safe content-hash-keyed LRU for compiled artifacts.

    Thread safety matters: the fleet runs one worker thread per device and
    all of them compile through this one cache.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_PLAN_CACHE_CAPACITY,
        name: Optional[str] = None,
    ):
        self.capacity = capacity
        self._entries: "OrderedDict[str, Any]" = OrderedDict()
        self._lock = threading.Lock()
        #: Metric family for unprefixed keys.  The shared ``PLAN_CACHE``
        #: leaves this unset and derives the family from the key prefix
        #: instead (``plan:`` / ``device:`` / ``noise:``), so plan-cache
        #: and noise-plan-cache traffic stay separately countable.
        self.name = name
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _metric_family(self, key: str) -> str:
        head, sep, _ = key.partition(":")
        if sep and head and not self.name:
            return head
        return self.name or "plan"

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, key: str, build: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, building it on a miss.

        ``build`` runs outside the lock only on the thread that missed;
        a concurrent miss on the same key may build twice, but the second
        insert wins and both results are structurally identical (builds
        are pure functions of the key's content).
        """
        family = self._metric_family(key)
        try:
            INJECTOR.fire("cache.plan.get", run_id=key)
        except InjectedFault:
            # Cache unavailable: degrade to a rebuild (a miss), never
            # fail the caller — builds are pure functions of the key.
            with self._lock:
                self.misses += 1
            METRICS.counter(f"cache.{family}.misses").inc()
            METRICS.counter(f"cache.{family}.faults").inc()
            return build()
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
                self.hits += 1
                value = self._entries[key]
            else:
                self.misses += 1
                value = _MISSING
        if value is not _MISSING:
            METRICS.counter(f"cache.{family}.hits").inc()
            return value
        METRICS.counter(f"cache.{family}.misses").inc()
        value = build()
        evicted = 0
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
                evicted += 1
        if evicted:
            METRICS.counter(f"cache.{family}.evictions").inc(evicted)
        return value

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "size": len(self._entries),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


#: The process-wide cache every compile entry point shares.
PLAN_CACHE = PlanCache()


def plan_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the shared plan cache."""
    return PLAN_CACHE.stats()


def clear_plan_cache() -> None:
    """Drop every cached plan and reset the counters."""
    PLAN_CACHE.clear()


def circuit_fingerprint(
    circuit: QuantumCircuit,
    parameters: Optional[Sequence[Parameter]] = None,
    extra: Iterable[object] = (),
) -> str:
    """Content hash of a circuit's structure.

    Symbolic parameters hash by *position* in the given ordering (plus
    their affine coefficients), not by object identity — two structurally
    identical ansatz instances therefore share one cached plan. ``extra``
    folds pipeline configuration (fusion flag, device fingerprint, ...)
    into the key.
    """
    if parameters is None:
        parameters = circuit.parameters
    parameters = tuple(parameters)
    index_of = {param: i for i, param in enumerate(parameters)}
    digest = hashlib.blake2b(digest_size=16)
    digest.update(f"{circuit.num_qubits}|{len(parameters)}".encode())
    for item in extra:
        digest.update(f"|{item}".encode())
    for inst in circuit:
        digest.update(f"|{inst.name}:{','.join(map(str, inst.qubits))}".encode())
        for param in inst.params:
            if isinstance(param, ParameterExpression):
                index = index_of.get(param.parameter)
                if index is None:
                    raise KeyError(
                        f"parameter {param.parameter.name!r} missing from "
                        "parameter ordering"
                    )
                digest.update(f"|p{index}:{param.coeff!r}:{param.offset!r}".encode())
            else:
                digest.update(f"|f{float(param)!r}".encode())
    return digest.hexdigest()


def coupling_fingerprint(coupling) -> str:
    """Content hash of a coupling map (qubit count plus sorted edge list)."""
    edges: Tuple[Tuple[int, int], ...] = tuple(coupling.edges)
    digest = hashlib.blake2b(digest_size=8)
    digest.update(f"{coupling.num_qubits}|{edges}".encode())
    return digest.hexdigest()
