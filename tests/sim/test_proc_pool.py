"""The two pools' public stats hooks, and the backend names a job may ask for.

Ranks run on the process-wide rank-thread pool; a ``backend="processes"``
job runs in the process-wide job-worker pool (``repro.serve.jobpool``).
"""

import pytest

from repro.serve.jobpool import job_pool_stats
from repro.serve.spec import BACKENDS, resolve_backend
from repro.sim import rank_pool_stats
from repro.util.errors import ValidationError


def test_backends_tuple():
    assert BACKENDS == ("threads", "processes")


def test_resolve_backend_default_is_threads(monkeypatch):
    # The environment no longer has a say in where a job runs.
    monkeypatch.setenv("REPRO_SPMD_BACKEND", "processes")
    assert resolve_backend(None) == "threads"
    assert resolve_backend("processes") == "processes"


def test_resolve_backend_rejects_unknown():
    with pytest.raises(ValidationError, match="unknown execution backend"):
        resolve_backend("fibers")


def test_pool_stats_shapes():
    rp = rank_pool_stats()
    assert set(rp) == {"spawned", "idle"}
    jp = job_pool_stats()
    assert set(jp) == {"workers", "jobs", "rebuilt"}
    assert all(isinstance(v, int) and v >= 0 for v in {**rp, **jp}.values())
