"""Lossy-run pins: the virtual time, result and fault counters of faulty jobs.

The other fault tests compare runs with each other (lossy against clean,
one seed against the same seed again), so a change that moves every lossy
run alike passes them.  ``fault_pins.json`` freezes, per job of
:data:`PIN_JOBS`, ``repr(makespan)``, ``result_digest`` and ``fault_stats``
as :func:`repro.serve.spec.execute_job` reports them.  Regenerate it only
for an intended physics change::

    PYTHONPATH=src:. python -c "import json; from tests.faults.test_fault_pins import *; \
PINS_PATH.write_text(json.dumps({k: pin_entry(k) for k in PIN_JOBS}, indent=1) + '\\n')"
"""

import json
import pathlib

import pytest

from repro.serve.spec import JobSpec, execute_job

#: Drops, duplicates and delays on every data message, and a rank-1 crash
#: early enough that every job below recovers from a checkpoint.
LOSSY_PLAN = {
    "seed": 7,
    "rules": [{"drop_prob": 0.15, "dup_prob": 0.1, "delay_prob": 0.05, "max_delay": 1e-4}],
    "crashes": [{"rank": 1, "at_time": 0.001, "restart_cost": 0.5}],
}
#: Link degradation only: nothing is lost, every affected message is slower.
DEGRADED_PLAN = {
    "seed": 3,
    "degradations": [
        {"bandwidth_factor": 0.25, "extra_latency": 1e-5, "src": 1},
        {"bandwidth_factor": 0.5, "dst": 2, "t_start": 0.001, "t_end": 0.004},
    ],
}
_SMALL = {"preset": "laptop", "mix": "cpu"}
_HEAT = {"functional_shape": [12, 12, 12], "simulated_steps": 6}
_RECOVERING = {"reliable": True, "checkpoint_every": 2}

#: name -> job document.  Three nodes give the middle rank neighbours on
#: both sides, so it sends two strips in one phase.
PIN_JOBS = {
    "heat3d-k1-lossy": dict(
        app="heat3d", nodes=3, **_SMALL, params=_HEAT, options=_RECOVERING,
        fault_plan=LOSSY_PLAN,
    ),
    "heat3d-k2-lossy": dict(
        app="heat3d", nodes=3, **_SMALL, params=_HEAT,
        options={**_RECOVERING, "time_block": 2}, fault_plan=LOSSY_PLAN,
    ),
    # Converges at iteration 11, after the crash's rollback.
    "heat3d-until-tol-lossy": dict(
        app="heat3d", nodes=3, **_SMALL,
        params={"shape": [32, 32, 32], "functional_shape": [16, 16, 16]},
        options={**_RECOVERING, "until_tol": 5.2, "max_iters": 12},
        fault_plan=LOSSY_PLAN,
    ),
    "heat3d-degraded-n4": dict(
        app="heat3d", nodes=4, **_SMALL, params=_HEAT, fault_plan=DEGRADED_PLAN
    ),
    "kmeans-cpu+2gpu-lossy": dict(
        app="kmeans", nodes=2, mix="cpu+2gpu", preset="ohio",
        params={"functional_points": 4000, "iterations": 4},
        options={"reliable": True, "checkpoint_every": 1}, fault_plan=LOSSY_PLAN,
    ),
    "heat3d-reliable-no-plan": dict(
        app="heat3d", nodes=2, **_SMALL, params=_HEAT, options={"reliable": True}
    ),
}
PINS_PATH = pathlib.Path(__file__).with_name("fault_pins.json")


def pin_entry(name):
    result = execute_job(JobSpec.from_dict(PIN_JOBS[name]))
    return {
        "makespan": repr(result["makespan"]),
        "result_digest": result["result_digest"],
        "fault_stats": result["fault_stats"],
    }


def test_pins_cover_the_job_set():
    assert sorted(json.loads(PINS_PATH.read_text())) == sorted(PIN_JOBS)


@pytest.mark.parametrize("name", sorted(PIN_JOBS))
def test_lossy_run_pinned(name):
    assert pin_entry(name) == json.loads(PINS_PATH.read_text())[name]
