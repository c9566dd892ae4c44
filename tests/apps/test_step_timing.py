"""The step times an extrapolated makespan is read from.

Every step-timed run measures its steps with ``StepLoop`` and is totalled
by ``extrapolated_makespan``.  Extrapolating from a longer run only adds
steps if the first steps are the same whatever ``simulated_steps`` is:
a run's step times with ``n`` steps are a prefix of those with ``n + 2``.
"""

import dataclasses

import pytest

from repro.apps.registry import APPS
from repro.cluster.presets import ohio_cluster
from repro.metrics import figures
from repro.sim.engine import spmd_run

#: Each step-timed run -> the registry app whose quick config it runs.
STEP_TIMED = {
    app: app
    for app in ("heat3d", "sobel", "moldyn", "minimd", "heat3d-mpi", "sobel-mpi", "minimd-mpi",
                "sobel-cuda")
}
STEP_TIMED["moldyn-static"] = "moldyn"  # the adaptive-partitioning ablation's "off" run


def _step_lists(case: str, steps: int) -> list[list[float]]:
    """Every rank's step times of ``case`` with ``simulated_steps=steps``,
    on 4 nodes (or the app's limit) and its first mix."""
    entry = APPS[STEP_TIMED[case]]
    config = dataclasses.replace(entry.quick_config(), simulated_steps=steps)
    cluster = ohio_cluster(min(4, entry.max_nodes or 4))
    if case == "moldyn-static":
        result = spmd_run(figures._moldyn_static_rank, cluster, args=(config,))
    else:
        result = entry.run(cluster, config, entry.mixes[0] if entry.mixes else "cpu+2gpu").spmd
    return [v["steps"] for v in result.values]


@pytest.mark.parametrize("case", sorted(STEP_TIMED))
def test_step_times_of_a_shorter_run_are_a_prefix_of_a_longer_one(case):
    n = APPS[STEP_TIMED[case]].quick_config().simulated_steps
    short, long = _step_lists(case, n), _step_lists(case, n + 2)
    assert len(short) == len(long)
    for rank, (s, l) in enumerate(zip(short, long)):
        assert len(s) == n and len(l) == n + 2, rank
        assert repr(l[:n]) == repr(s), rank
