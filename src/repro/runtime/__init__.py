"""Declarative experiment-plan runtime.

The paper's evaluation is hundreds of independent VQE runs — apps x
schemes x seeds x trace scales. This package separates *what to run*
(:class:`RunSpec`, :class:`ExperimentPlan`) from *how to run it*
(:class:`SerialExecutor`, :class:`ParallelExecutor`, :class:`CachedExecutor`)
and from *what came out* (:class:`RunResult`, :class:`PlanResult`), with a
serialization layer that lets results cross process boundaries and
persist on disk keyed by content-hashed run ids.

Typical use::

    from repro.runtime import ExperimentPlan, ParallelExecutor

    plan = ExperimentPlan(
        apps=("App1", "App2"), schemes=("baseline", "qismet"),
        iterations=300, seeds=(7, 8),
    )
    outcome = ParallelExecutor().run_plan(plan)
    print(outcome.geomean_improvements())
"""

from repro.runtime.execute import execute_run
from repro.runtime.executors import (
    BaseExecutor,
    CachedExecutor,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    executor_for,
    run_plan,
)
from repro.runtime.results import PlanResult, RunResult
from repro.runtime.spec import (
    ExperimentPlan,
    RunSpec,
    freeze_overrides,
    resolve_app,
)

__all__ = [
    "BaseExecutor",
    "CachedExecutor",
    "Executor",
    "ExperimentPlan",
    "ParallelExecutor",
    "PlanResult",
    "RunResult",
    "RunSpec",
    "SerialExecutor",
    "execute_run",
    "executor_for",
    "freeze_overrides",
    "resolve_app",
    "run_plan",
]
