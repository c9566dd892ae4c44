"""Shared test fixtures and helpers."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster, ohio_cluster
from repro.sim.engine import spmd_run


@pytest.fixture(autouse=True)
def private_result_store(tmp_path_factory, monkeypatch):
    """Every test gets an empty default result store of its own.

    ``REPRO_STORE`` is the default store's root for the figure sweeps and
    ``repro campaign``; exported here, subprocesses a test starts inherit it.
    No test reads another's results (the stored code stamp cannot see an
    in-process patch), and none writes under the user's home.
    """
    root = tmp_path_factory.mktemp("store")
    monkeypatch.setenv("REPRO_STORE", str(root))
    return root


@pytest.fixture
def cluster2():
    """A small 2-node test cluster (4 cores + 1 GPU per node)."""
    return laptop_cluster(num_nodes=2)


@pytest.fixture
def cluster4():
    """A 4-node test cluster with 2 GPUs per node."""
    return laptop_cluster(num_nodes=4, gpus_per_node=2)


@pytest.fixture
def ohio1():
    """One node of the paper's cluster."""
    return ohio_cluster(1)


def run_spmd(fn, nodes=2, gpus_per_node=1, cores=4, **kwargs):
    """Run ``fn`` over a small laptop cluster and return the SpmdResult."""
    cluster = laptop_cluster(num_nodes=nodes, cores=cores, gpus_per_node=gpus_per_node)
    return spmd_run(fn, cluster, **kwargs)


def wait_until(pred, timeout=10.0):
    """Poll ``pred`` until it holds; fail the test if it never does."""
    deadline = time.monotonic() + timeout
    while not pred():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.001)


class GatedExecutor:
    """A scheduler executor that runs nothing: each job (known by its ``seed``
    param, announced with ``expect``) signals ``started`` and waits for its
    ``release``; it keeps its own account of what ran side by side."""

    def __init__(self) -> None:
        self.calls: list[int] = []
        self.started: dict[int, threading.Event] = {}
        self.release: dict[int, threading.Event] = {}
        self.ranks = self.peak_ranks = 0  # of the calls in progress
        self.in_process = self.peak_in_process = 0
        self.fail: set[int] = set()  # seeds whose job raises once released
        self._lock = threading.Lock()

    def expect(self, *seeds: int) -> None:
        for seed in seeds:
            self.started[seed] = threading.Event()
            self.release[seed] = threading.Event()

    def __call__(self, spec) -> dict:
        seed = spec.params.get("seed", 0)
        in_process = spec.backend != "processes"
        with self._lock:
            self.calls.append(seed)
            self.ranks += spec.ranks
            self.in_process += in_process
            self.peak_ranks = max(self.peak_ranks, self.ranks)
            self.peak_in_process = max(self.peak_in_process, self.in_process)
        self.started[seed].set()
        try:
            assert self.release[seed].wait(30.0), f"job seed={seed} never released"
        finally:
            with self._lock:
                self.ranks -= spec.ranks
                self.in_process -= in_process
        if seed in self.fail:
            raise RuntimeError("unlucky seed")
        return {"makespan": float(seed)}


class HeldExecutor:
    """A scheduler executor that runs the job for real, then holds its
    completion until ``release`` is set (``ran`` says the run is over)."""

    def __init__(self) -> None:
        self.ran, self.release = threading.Event(), threading.Event()

    def __call__(self, spec) -> dict:
        from repro.serve import execute_job

        payload = execute_job(spec)
        self.ran.set()
        assert self.release.wait(60.0)
        return payload


def parse_replies(raw: bytes) -> list[tuple[int, dict[str, str], object]]:
    """Split what a job server wrote on one connection into its replies.

    Each is ``(status, headers, body)`` with header names lower-cased and the
    ``Content-Length``-framed body decoded as JSON (an interim 1xx reply has
    no body: ``None``).  Anything the framing does not account for — a bad
    status line, a short body, trailing bytes — fails the calling test.
    """
    import json

    replies = []
    while raw:
        head, sep, raw = raw.partition(b"\r\n\r\n")
        assert sep, f"reply head never ends: {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1" and status.isdigit(), status_line
        headers = {}
        for line in lines:
            name, _, value = line.partition(":")
            headers[name.lower()] = value.strip()
        body = None
        if not status.startswith("1"):
            length = int(headers["content-length"])
            assert len(raw) >= length, f"short body: {raw[:200]!r}"
            assert headers["content-type"] == "application/json"
            body, raw = json.loads(raw[:length]), raw[length:]
        replies.append((int(status), headers, body))
    return replies


def profile(app, **spec_fields):
    """What ``repro profile`` does: a traced spec through ``run_spec``, then ``analyze``."""
    from repro.obs import analyze
    from repro.serve import JobSpec, run_spec

    apprun, _ = run_spec(JobSpec(app=app, trace=True, **spec_fields))
    return apprun, analyze(apprun.spmd, app_makespan=apprun.makespan)


def assert_allclose(a, b, **kw):
    np.testing.assert_allclose(a, b, **kw)
