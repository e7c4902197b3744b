"""Round-trips for the serializable result layer.

VQEResult / IterationRecord / RunResult survive
``to_dict`` -> JSON -> ``from_dict`` bit-equal, including optional fields
(``tm``, ``true_energy``, ``final_theta``) set to ``None``.
"""

import json

import numpy as np
import pytest

from repro.runtime import RunResult, RunSpec
from repro.vqa.result import IterationRecord, VQEResult


def _record(index, *, tm=0.25, true_energy=-1.5):
    return IterationRecord(
        index=index,
        machine_energy=-1.0 + 0.1 * index,
        true_energy=true_energy,
        candidate_energy=-0.9,
        tm=tm,
        gm=None,
        gp=None,
        retries=index % 3,
        accepted_by_controller=True,
        accepted_by_optimizer=bool(index % 2),
    )


def _result(n=5, *, theta=True, tm=0.25, true_energy=-1.5):
    return VQEResult(
        records=[_record(i, tm=tm, true_energy=true_energy) for i in range(n)],
        final_theta=np.array([0.1, -0.2, 0.3]) if theta else None,
        total_jobs=3 * n,
        total_circuits=6 * n,
        total_retries=2,
        forced_accepts=1,
    )


def _json_round_trip(payload):
    return json.loads(json.dumps(payload))


def test_iteration_record_round_trip():
    record = _record(4)
    back = IterationRecord.from_dict(_json_round_trip(record.to_dict()))
    assert back == record


def test_iteration_record_round_trip_none_fields():
    record = _record(0, tm=None, true_energy=None)
    back = IterationRecord.from_dict(_json_round_trip(record.to_dict()))
    assert back == record
    assert back.tm is None and back.true_energy is None


def test_vqe_result_round_trip_bit_equal():
    result = _result()
    back = VQEResult.from_dict(_json_round_trip(result.to_dict()))
    assert back.records == result.records
    assert np.array_equal(back.final_theta, result.final_theta)
    assert back.to_dict() == result.to_dict()
    # derived quantities agree exactly
    assert back.tail_true_energy() == result.tail_true_energy()
    assert np.array_equal(back.machine_energies, result.machine_energies)
    assert back.summary() == result.summary()


def test_vqe_result_round_trip_none_theta_and_energies():
    result = _result(theta=False, tm=None, true_energy=None)
    back = VQEResult.from_dict(_json_round_trip(result.to_dict()))
    assert back.final_theta is None
    assert back.to_dict() == result.to_dict()
    with pytest.raises(ValueError):
        back.true_energies  # still untracked after the round trip


def test_run_result_round_trip():
    spec = RunSpec(app="App1", scheme="baseline", iterations=5, seed=3)
    run = RunResult(spec=spec, result=_result(), ground_truth=-7.3, elapsed_s=1.5)
    back = RunResult.from_dict(_json_round_trip(run.to_dict()))
    assert back == run  # elapsed_s/from_cache excluded from equality
    assert back.run_id == run.run_id
    assert back.to_dict()["result"] == run.to_dict()["result"]
