"""The process-wide rank-thread pool behind :func:`spmd_run`.

Covers the lifecycle guarantees the engine relies on: workers are reused
across runs (no per-run spawn storm), a worker stuck inside a task is
never recycled (wedged ranks get abandoned, not reused), idle workers can
be drained, an idle worker holds nothing of the run it last served, and
the deadlock watchdog leaves the pool healthy for the next run.
"""

import gc
import threading
import weakref

import pytest

from repro.cluster.presets import laptop_cluster
from repro.sim.engine import _RankThreadPool, rank_pool_stats, spmd_run
from repro.util.errors import DeadlockError
from tests.conftest import wait_until


def test_workers_are_reused_across_runs():
    cluster = laptop_cluster(num_nodes=2)

    def prog(ctx):
        ctx.comm.barrier()
        return ctx.rank

    spmd_run(prog, cluster, ranks_per_node=2)  # warm the pool
    spawned_before = rank_pool_stats()["spawned"]
    for _ in range(3):
        res = spmd_run(prog, cluster, ranks_per_node=2)
    assert res.values == [0, 1, 2, 3]
    stats = rank_pool_stats()
    assert stats["spawned"] == spawned_before  # warm runs spawn nothing new
    assert stats["idle"] >= 1


def test_busy_worker_is_not_recycled_until_task_returns():
    pool = _RankThreadPool()
    release = threading.Event()
    pool.submit(release.wait)
    wait_until(lambda: pool.stats()["spawned"] == 1)
    assert pool.stats()["idle"] == 0
    # A second task while the first is wedged must spawn a new worker.
    done = threading.Event()
    pool.submit(done.set)
    assert done.wait(5.0)
    assert pool.stats()["spawned"] == 2
    release.set()
    wait_until(lambda: pool.stats()["idle"] == 2)


def _values_of_dropped_runs(*node_counts):
    """Weak references to every rank's return value of runs made and dropped."""

    class Held:  # weakref-able stand-in for the arrays a rank returns
        pass

    def prog(ctx):
        ctx.comm.barrier()
        return Held()

    refs = []
    for nodes in node_counts:
        result = spmd_run(prog, laptop_cluster(num_nodes=nodes))
        refs += [weakref.ref(value) for value in result.values]
    return refs


def _wait_collected(refs):
    # spmd_run returns when the ranks are done, a moment before their
    # workers are back in the pool: poll rather than assert at once.
    def collected():
        gc.collect()
        return not any(ref() for ref in refs)

    wait_until(collected, timeout=5.0)


def test_idle_workers_do_not_pin_a_finished_run():
    """A worker's task closure reaches its run's fabric, traces and every
    rank's return value: it must be gone before the worker idles."""
    refs = _values_of_dropped_runs(4)
    assert len(refs) == 4
    _wait_collected(refs)


def test_workers_a_narrower_run_leaves_idle_do_not_pin_the_wide_one():
    _wait_collected(_values_of_dropped_runs(4, 2))


def test_watchdog_abandons_wedged_rank_and_pool_recovers():
    cluster = laptop_cluster(num_nodes=2)
    release = threading.Event()

    def wedged(ctx):
        if ctx.rank == 0:
            release.wait()  # ignores the fabric abort: stays wedged
        return ctx.rank

    with pytest.raises(DeadlockError):
        spmd_run(wedged, cluster, ranks_per_node=1, wall_timeout=0.3)

    # The abandoned worker must not be handed the next run's rank.
    def prog(ctx):
        ctx.comm.barrier()
        return ctx.rank

    res = spmd_run(prog, cluster, ranks_per_node=2)
    assert res.values == [0, 1, 2, 3]
    release.set()  # let the abandoned daemon thread finish quietly
