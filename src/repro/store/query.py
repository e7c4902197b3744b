"""Typed query surface of the experiment store.

A :class:`RunQuery` is a declarative filter over the store's ``runs``
table — every consumer (figure builders, the fleet, the CLI)
queries through it instead of writing SQL. :class:`StoredRun` is the
typed row it returns: the indexed columns eagerly, the spec and result
payload decoded lazily on first access.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime.results import RunResult
from repro.runtime.spec import RunSpec
from repro.vqa.result import VQEResult


def _freeze(values: Any) -> Optional[Tuple[Any, ...]]:
    """Normalize a filter argument: None passes, scalars become 1-tuples."""
    if values is None:
        return None
    if isinstance(values, (str, int, float)):
        return (values,)
    return tuple(values)


@dataclass(frozen=True)
class RunQuery:
    """Declarative filter over stored runs.

    Every field is optional; ``None`` means "no constraint". Sequence
    fields accept a single scalar for convenience. Rows always come back
    in append (``seq``) order.
    """

    apps: Optional[Sequence[str]] = None
    schemes: Optional[Sequence[str]] = None
    seeds: Optional[Sequence[int]] = None
    trace_scales: Optional[Sequence[float]] = None
    devices: Optional[Sequence[str]] = None
    sources: Optional[Sequence[str]] = None
    run_ids: Optional[Sequence[str]] = None
    min_seq: Optional[int] = None
    limit: Optional[int] = None

    def __post_init__(self) -> None:
        for spec_field in fields(self):
            if spec_field.name in ("min_seq", "limit"):
                continue
            object.__setattr__(
                self, spec_field.name, _freeze(getattr(self, spec_field.name))
            )

    _COLUMNS = {
        "apps": "app",
        "schemes": "scheme",
        "seeds": "seed",
        "trace_scales": "trace_scale",
        "devices": "device",
        "sources": "source",
        "run_ids": "run_id",
    }

    def where(self) -> Tuple[str, List[Any]]:
        """SQL ``WHERE ... ORDER BY seq [LIMIT]`` clause + bind params."""
        clauses: List[str] = []
        params: List[Any] = []
        for name, column in self._COLUMNS.items():
            values = getattr(self, name)
            if values is None:
                continue
            placeholders = ",".join("?" for _ in values)
            clauses.append(f"{column} IN ({placeholders})")
            params.extend(values)
        if self.min_seq is not None:
            clauses.append("seq > ?")
            params.append(self.min_seq)
        sql = ""
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY seq"
        if self.limit is not None:
            sql += " LIMIT ?"
            params.append(self.limit)
        return sql, params


@dataclass
class StoredRun:
    """One run row: indexed columns + lazily-decoded spec and payload."""

    seq: int
    run_id: str
    app: str
    scheme: str
    seed: int
    shots: int
    trace_scale: float
    iterations: int
    device: Optional[str]
    source: str
    ground_truth: float
    elapsed_s: float
    created_at: str
    spec_json: str
    payload: str
    _spec: Optional[RunSpec] = field(default=None, repr=False, compare=False)

    @property
    def spec(self) -> RunSpec:
        if self._spec is None:
            import json

            self._spec = RunSpec.from_dict(json.loads(self.spec_json))
        return self._spec

    def result_dict(self) -> Dict[str, Any]:
        import json

        return json.loads(self.payload)

    def to_run_result(self, from_cache: bool = True) -> RunResult:
        """Rehydrate the executor-layer :class:`RunResult`.

        ``from_cache`` defaults to True because a stored run is, by
        definition, not freshly executed; ``elapsed_s`` carries the
        original execution time for bookkeeping.
        """
        run = RunResult(
            spec=self.spec,
            result=VQEResult.from_dict(self.result_dict()),
            ground_truth=self.ground_truth,
            elapsed_s=self.elapsed_s,
            from_cache=from_cache,
        )
        return run
