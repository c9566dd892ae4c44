"""SPMD engine behaviour."""

import threading
import time

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.sim.engine import rank_pool_stats, spmd_run
from repro.util.errors import DeadlockError, ValidationError
from tests.conftest import wait_until


def test_single_rank_runs_on_a_pool_thread():
    """A one-rank run takes the path every run takes: a pooled rank thread."""
    res = spmd_run(
        lambda ctx: (ctx.rank * 10, threading.current_thread().name),
        laptop_cluster(num_nodes=1),
    )
    [(value, thread)] = res.values
    assert value == 0 and thread.startswith("rank-pool-")
    assert res.nranks == 1


def test_a_single_rank_is_watched_by_the_wall_timeout():
    """A one-rank program that computes without communicating is stopped by
    ``wall_timeout`` like any other run, not left to run unwatched."""

    def prog(ctx):
        time.sleep(2.0)  # never reaches the fabric
        return "finished"

    with pytest.raises(DeadlockError, match="wall timeout of 0.3s"):
        spmd_run(prog, laptop_cluster(num_nodes=1), wall_timeout=0.3)


def test_values_collected_per_rank():
    res = spmd_run(lambda ctx: (ctx.rank, ctx.size), laptop_cluster(num_nodes=3))
    assert res.values == [(0, 3), (1, 3), (2, 3)]


def test_ranks_per_node_mapping():
    def prog(ctx):
        return ctx.node_index

    res = spmd_run(prog, laptop_cluster(num_nodes=2), ranks_per_node=3)
    assert res.values == [0, 0, 0, 1, 1, 1]
    assert res.nranks == 6


def test_args_kwargs_forwarded():
    def prog(ctx, a, b=0):
        return a + b + ctx.rank

    res = spmd_run(prog, laptop_cluster(num_nodes=2), args=(10,), kwargs={"b": 5})
    assert res.values == [15, 16]


def test_exception_propagates_with_rank():
    def prog(ctx):
        if ctx.rank == 1:
            raise RuntimeError("boom on rank 1")
        # Other ranks block on a message that never comes; the abort must
        # wake them rather than hanging the suite.
        ctx.comm.recv(source=(ctx.rank + 1) % ctx.size, tag=5)

    with pytest.raises(RuntimeError, match="boom"):
        spmd_run(prog, laptop_cluster(num_nodes=3))


def test_deadlock_watchdog():
    """A 2-rank receive cycle: no timeout to wait out — the second rank to
    park finds nobody left to run and the error names both receives."""

    def prog(ctx):
        ctx.comm.recv(source=1 - ctx.rank, tag=9)  # nobody sends

    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as exc:
        spmd_run(prog, laptop_cluster(num_nodes=2))
    assert time.monotonic() - t0 < 1.0
    text = str(exc.value)
    assert "rank 0 waits for source=1 tag=9 with 0 unmatched message(s)" in text
    assert "rank 1 waits for source=0 tag=9 with 0 unmatched message(s)" in text


def test_single_rank_receiving_nothing_deadlocks_at_once():
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match="rank 0 waits for source=0 tag=4"):
        spmd_run(lambda ctx: ctx.comm.recv(source=0, tag=4), laptop_cluster(num_nodes=1))
    assert time.monotonic() - t0 < 1.0


def test_deadlock_leaves_the_rank_pool_reusable():
    """Every parked rank is released by the abort, so its thread returns to
    the pool and the next run spawns nothing."""

    def cycle(ctx):
        ctx.comm.recv(source=(ctx.rank + 1) % ctx.size, tag=1)

    cluster = laptop_cluster(num_nodes=6)
    spmd_run(lambda ctx: ctx.comm.barrier(), cluster)  # warm six pool threads
    spawned = rank_pool_stats()["spawned"]
    with pytest.raises(DeadlockError):
        spmd_run(cycle, cluster)
    wait_until(lambda: rank_pool_stats()["idle"] >= 6)
    assert spmd_run(lambda ctx: ctx.rank, cluster).values == list(range(6))
    assert rank_pool_stats()["spawned"] == spawned


def test_makespan_is_max_of_rank_times():
    def prog(ctx):
        ctx.clock.advance(float(ctx.rank))
        return None

    res = spmd_run(prog, laptop_cluster(num_nodes=4))
    assert res.makespan == pytest.approx(3.0)
    assert res.times == pytest.approx([0.0, 1.0, 2.0, 3.0])


def test_virtual_time_deterministic_across_runs():
    def prog(ctx):
        data = np.full(1000, ctx.rank, dtype=np.float64)
        total = ctx.comm.allreduce(data, "sum")
        ctx.comm.barrier()
        return float(total[0])

    cluster = laptop_cluster(num_nodes=4)
    t1 = spmd_run(prog, cluster).times
    t2 = spmd_run(prog, cluster).times
    assert t1 == t2


def test_traces_disabled_by_default_enabled_on_request():
    def prog(ctx):
        ctx.comm.barrier()

    res = spmd_run(prog, laptop_cluster(num_nodes=2))
    assert all(len(t) == 0 for t in res.traces)
    res = spmd_run(prog, laptop_cluster(num_nodes=2), trace=True)
    assert any(len(t) > 0 for t in res.traces)


def test_rejects_zero_ranks():
    cluster = laptop_cluster(num_nodes=1)
    with pytest.raises(ValidationError):
        spmd_run(lambda ctx: None, cluster, ranks_per_node=0)


def test_wall_timeout_is_a_shared_budget_not_per_rank():
    """``wall_timeout`` serves one case: a rank that loops without
    communicating.  It is one monotonic budget for the whole run, and when
    it fires the parked siblings are released at once — their threads are
    back in the pool as soon as the looping rank lets go."""

    def prog(ctx):
        if ctx.rank == 0:
            time.sleep(0.8)  # holds the baton, never reaches the fabric
            return None
        ctx.comm.recv(source=0, tag=99)  # ranks 1..3 park

    cluster = laptop_cluster(num_nodes=4)
    spmd_run(lambda ctx: ctx.comm.barrier(), cluster)  # warm four pool threads
    wait_until(lambda: rank_pool_stats()["idle"] >= 4)
    before = rank_pool_stats()
    t0 = time.monotonic()
    with pytest.raises(DeadlockError, match="wall timeout of 0.3s"):
        spmd_run(prog, cluster, wall_timeout=0.3)
    # Fires once at 0.3 s and returns when rank 0 does (inside the abort
    # grace) — not after a budget per rank, not after the full grace.
    assert 0.8 <= time.monotonic() - t0 < 2.0
    wait_until(lambda: rank_pool_stats()["idle"] >= before["idle"])
    assert rank_pool_stats()["spawned"] == before["spawned"]


def test_engine_gauges_count_baton_switches_and_parks():
    """rank 0 parks once on its receive; the two posts that cannot match
    it leave it parked (no wake-up, no extra switch)."""

    def prog(ctx):
        if ctx.rank == 0:
            return ctx.comm.recv(source=1, tag=7)
        ctx.comm.send("wrong tag", 0, tag=3)
        ctx.comm.send("right", 0, tag=7)

    res = spmd_run(prog, laptop_cluster(num_nodes=2), trace=True)
    assert res.values[0] == "right"
    gauges = res.traces[0].gauges
    assert gauges["engine.parks"] == 1
    # 0 parks -> 1 runs to completion -> back to 0: two hand-overs.
    assert gauges["engine.switches"] == 2
    assert gauges["rank_pool.spawned"] >= 2
    assert "engine.parks" not in spmd_run(prog, laptop_cluster(num_nodes=2)).traces[0].gauges
