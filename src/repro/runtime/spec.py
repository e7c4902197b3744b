"""Declarative experiment specifications.

A :class:`RunSpec` names one VQE run — application, scheme, iteration
count, seed, shots, trace scale and scheme overrides — without executing
anything. Specs are frozen, hashable and JSON-serializable, and carry a
stable content-hash :attr:`~RunSpec.run_id` that keys result caches.

An :class:`ExperimentPlan` is a sweep product (apps x schemes x seeds x
trace scales) that expands into the ``RunSpec`` list an
:class:`~repro.runtime.executors.Executor` consumes. Runs that share an
``(app, seed, trace_scale)`` cell share a starting point and transient
trace, which is exactly the paper's synchronous scheme-comparison
methodology.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple, Union

from repro.experiments.registry import APPLICATIONS, AppConfig, get_app, machine_app
from repro.experiments.schemes import SCHEME_NAMES

AppLike = Union[str, AppConfig]

#: Bump when the spec -> execution mapping changes meaning, so stale disk
#: caches can never be mistaken for current results.
SPEC_SCHEMA_VERSION = 1

_MACHINE_PREFIX = "machine:"


def resolve_app(app: AppLike) -> AppConfig:
    """Resolve a spec's app reference to a concrete :class:`AppConfig`.

    Accepts a Table 1 registry name (``"App1"``), a ``"machine:<name>"``
    reference (the Figs. 11-13 single-machine workload) or an explicit
    ``AppConfig`` for ad-hoc applications.
    """
    if isinstance(app, AppConfig):
        return app
    if app.startswith(_MACHINE_PREFIX):
        return machine_app(app[len(_MACHINE_PREFIX):])
    return get_app(app)


def canonical_app(app: AppLike) -> AppLike:
    """Collapse equivalent app spellings to one canonical reference.

    ``get_app("App1")`` and ``"App1"`` (and likewise ``machine_app("x")``
    and ``"machine:x"``, in any case) describe the same run; canonicalizing
    at spec construction keeps ``run_id`` — and therefore the result
    cache — spelling-independent.
    """
    if isinstance(app, AppConfig):
        if APPLICATIONS.get(app.name) == app:
            return app.name
        if app == machine_app(app.machine):
            return f"{_MACHINE_PREFIX}{app.machine}"
        return app
    if app.startswith(_MACHINE_PREFIX):
        return _MACHINE_PREFIX + app[len(_MACHINE_PREFIX):].lower()
    return app


def _app_key(app: AppLike) -> Any:
    """Canonical JSON-able form of an app reference (for hashing/dicts)."""
    if isinstance(app, AppConfig):
        return {f.name: getattr(app, f.name) for f in fields(AppConfig)}
    return app


def _app_from_key(key: Any) -> AppLike:
    if isinstance(key, dict):
        return AppConfig(**key)
    return key


def freeze_overrides(overrides: Mapping[str, Any]) -> Tuple[Tuple[str, Any], ...]:
    """Normalize a kwargs mapping into a hashable, sorted tuple of pairs.

    Values must be JSON scalars or (possibly nested) sequences thereof;
    sequences are frozen into tuples so the result stays hashable.
    """
    def freeze_value(value: Any) -> Any:
        if isinstance(value, (list, tuple)):
            return tuple(freeze_value(item) for item in value)
        if value is None or isinstance(value, (bool, int, float, str)):
            return value
        raise TypeError(
            f"override values must be JSON scalars or sequences, got {type(value)!r}"
        )

    return tuple(sorted((str(k), freeze_value(v)) for k, v in overrides.items()))


def _thaw(value: Any) -> Any:
    """Rebuild frozen override values from their JSON (list) form."""
    if isinstance(value, (list, tuple)):
        return tuple(_thaw(item) for item in value)
    return value


@dataclass(frozen=True)
class RunSpec:
    """One fully-determined VQE run, independent of how it is executed.

    Everything stochastic about the run is derived from ``seed`` (per-app
    starting point, transient trace, per-scheme backend streams, shared
    SPSA perturbations), so executing the same spec anywhere — serially,
    in a worker process, or last week — yields bit-identical results.
    """

    app: AppLike
    scheme: str
    iterations: int
    seed: int = 2023
    shots: int = 8192
    trace_scale: float = 1.0
    overrides: Tuple[Tuple[str, Any], ...] = ()

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise KeyError(
                f"unknown scheme {self.scheme!r}; known: {SCHEME_NAMES}"
            )
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")
        if self.trace_scale < 0:
            raise ValueError("trace_scale must be >= 0")
        object.__setattr__(self, "app", canonical_app(self.app))
        resolve_app(self.app)  # fail fast on unknown references
        object.__setattr__(self, "overrides", freeze_overrides(dict(self.overrides)))

    # -- identity -----------------------------------------------------------

    @property
    def app_name(self) -> str:
        return resolve_app(self.app).name

    @property
    def run_id(self) -> str:
        """Stable 16-hex-digit content hash; the cache key for this run."""
        canonical = json.dumps(
            {"schema": SPEC_SCHEMA_VERSION, **self.to_dict()},
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    @property
    def comparison_key(self) -> Tuple[str, int, float]:
        """Runs sharing this key form one scheme comparison (same app,
        starting point and transient trace)."""
        return (self.app_name, self.seed, self.trace_scale)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "app": _app_key(self.app),
            "scheme": self.scheme,
            "iterations": self.iterations,
            "seed": self.seed,
            "shots": self.shots,
            "trace_scale": self.trace_scale,
            "overrides": [[k, v] for k, v in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        return cls(
            app=_app_from_key(data["app"]),
            scheme=data["scheme"],
            iterations=int(data["iterations"]),
            seed=int(data["seed"]),
            shots=int(data.get("shots", 8192)),
            trace_scale=float(data.get("trace_scale", 1.0)),
            overrides=tuple(
                (k, _thaw(v)) for k, v in data.get("overrides", [])
            ),
        )

    def override_dict(self) -> Dict[str, Any]:
        return dict(self.overrides)


@dataclass(frozen=True)
class ExperimentPlan:
    """A declarative sweep: the cartesian product of apps, schemes, seeds
    and trace scales at a fixed iteration/shot budget.

    Expansion order is deterministic: apps (outer), then seeds, then trace
    scales, then schemes (inner), so runs belonging to one comparison cell
    are adjacent and plan expansion is reproducible.
    """

    apps: Tuple[AppLike, ...]
    schemes: Tuple[str, ...]
    iterations: int
    seeds: Tuple[int, ...] = (2023,)
    shots: int = 8192
    trace_scales: Tuple[float, ...] = (1.0,)
    overrides: Tuple[Tuple[str, Any], ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "apps", tuple(canonical_app(a) for a in self.apps))
        object.__setattr__(self, "schemes", tuple(self.schemes))
        object.__setattr__(self, "seeds", tuple(int(s) for s in self.seeds))
        object.__setattr__(
            self, "trace_scales", tuple(float(s) for s in self.trace_scales)
        )
        object.__setattr__(self, "overrides", freeze_overrides(dict(self.overrides)))
        if not self.apps:
            raise ValueError("plan needs at least one app")
        if not self.schemes:
            raise ValueError("plan needs at least one scheme")
        if not self.seeds:
            raise ValueError("plan needs at least one seed")
        if not self.trace_scales:
            raise ValueError("plan needs at least one trace scale")

    def expand(self) -> List[RunSpec]:
        return [
            RunSpec(
                app=app,
                scheme=scheme,
                iterations=self.iterations,
                seed=seed,
                shots=self.shots,
                trace_scale=scale,
                overrides=self.overrides,
            )
            for app in self.apps
            for seed in self.seeds
            for scale in self.trace_scales
            for scheme in self.schemes
        ]

    def __len__(self) -> int:
        return (
            len(self.apps) * len(self.schemes) * len(self.seeds)
            * len(self.trace_scales)
        )

    def __iter__(self) -> Iterator[RunSpec]:
        return iter(self.expand())

    @property
    def plan_id(self) -> str:
        """Content hash over all expanded run ids."""
        digest = hashlib.sha256()
        for spec in self.expand():
            digest.update(spec.run_id.encode("ascii"))
        return digest.hexdigest()[:16]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "apps": [_app_key(app) for app in self.apps],
            "schemes": list(self.schemes),
            "iterations": self.iterations,
            "seeds": list(self.seeds),
            "shots": self.shots,
            "trace_scales": list(self.trace_scales),
            "overrides": [[k, v] for k, v in self.overrides],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPlan":
        return cls(
            apps=tuple(_app_from_key(a) for a in data["apps"]),
            schemes=tuple(data["schemes"]),
            iterations=int(data["iterations"]),
            seeds=tuple(data.get("seeds", (2023,))),
            shots=int(data.get("shots", 8192)),
            trace_scales=tuple(data.get("trace_scales", (1.0,))),
            overrides=tuple((k, _thaw(v)) for k, v in data.get("overrides", [])),
            name=data.get("name", ""),
        )

    # -- convenience constructors -------------------------------------------

    @classmethod
    def single(
        cls,
        app: AppLike,
        schemes: Sequence[str],
        iterations: int,
        seed: int = 2023,
        shots: int = 8192,
        trace_scale: float = 1.0,
        overrides: Mapping[str, Any] = (),
        name: str = "",
    ) -> "ExperimentPlan":
        """A one-app, one-seed plan: one paper-style comparison, read back
        as ``executor.run_plan(plan).comparison(app_name)``."""
        return cls(
            apps=(app,),
            schemes=tuple(schemes),
            iterations=iterations,
            seeds=(seed,),
            shots=shots,
            trace_scales=(trace_scale,),
            overrides=freeze_overrides(dict(overrides)),
            name=name,
        )
