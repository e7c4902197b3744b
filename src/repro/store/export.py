"""Store-backed export of a plan's runs as one JSON file.

The one sanctioned place where store contents are written back out as
JSON (the fleet CLI's ``--export``, notebooks): exporting through the
store guarantees the file reflects stored, deduped runs. The file holds
``PlanResult.to_dict()`` — the plan and its runs in expansion order.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Union

from repro.runtime.results import PlanResult
from repro.store.query import RunQuery
from repro.store.store import ExperimentStore
from repro.utils.serialization import save_json


def export_plan_result(
    store: ExperimentStore,
    run_ids: Sequence[str],
    path: Union[str, Path],
    plan: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write the named runs as a ``PlanResult``-format JSON file.

    Runs come back in the order given (the plan's expansion order), not
    append order, so ``PlanResult.from_dict`` of the file equals the
    executed plan's result.
    """
    stored = {
        s.run_id: s for s in store.query_runs(RunQuery(run_ids=tuple(run_ids)))
    }
    missing = [rid for rid in run_ids if rid not in stored]
    if missing:
        raise KeyError(f"store is missing {len(missing)} run(s): {missing[:3]}")
    runs = [stored[rid].to_run_result(from_cache=False) for rid in run_ids]
    return save_json(path, PlanResult(runs, plan).to_dict())

