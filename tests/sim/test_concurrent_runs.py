"""Concurrent ``spmd_run`` invocations from one process.

The job server runs many sims at once off the shared warm pools, so the
engine must be re-entrant: interleaved runs get independent fabrics (each
with its own baton) and clocks, produce makespans bit-identical to
sequential execution, and the active-run accounting returns to zero.
"""

import threading

import numpy as np

from repro.cluster.presets import laptop_cluster
from repro.serve import JobSpec, execute_job
from repro.sim.engine import active_run_stats, spmd_run

_gate = threading.Event()


def _ring(ctx, seed):
    data = np.full(256, float(ctx.rank + seed))
    ctx.comm.send(data, (ctx.rank + 1) % ctx.size, tag=3)
    got = ctx.comm.recv(source=(ctx.rank - 1) % ctx.size, tag=3)
    return float(np.asarray(got).sum()) + seed


def _gated_ring(ctx, seed):
    assert _gate.wait(10.0)
    return _ring(ctx, seed)


def _run(seed, backend, results, idx):
    """An ``spmd_run`` of ``_ring`` in this process, or — a job being what
    the ``"processes"`` backend carries — a heat3d job in a worker process."""
    if backend == "processes":
        spec = JobSpec(
            app="heat3d",
            nodes=2,
            preset="laptop",
            mix="cpu",
            params={"functional_shape": [12, 12, 12], "simulated_steps": 2, "seed": seed},
            backend="processes",
        )
        payload = execute_job(spec)
        results[idx] = (repr(payload["makespan"]), payload["result_digest"])
    else:
        res = spmd_run(_ring, laptop_cluster(num_nodes=2), ranks_per_node=2, args=(seed,))
        results[idx] = (res.values, res.times, repr(res.makespan))


def _assert_interleaved_matches_sequential(backends):
    sequential = {}
    for seed, backend in zip((3, 11), backends):
        holder = [None]
        _run(seed, backend, holder, 0)
        sequential[seed] = holder[0]

    results = [None, None]
    threads = [
        threading.Thread(target=_run, args=(seed, backend, results, idx))
        for idx, (seed, backend) in enumerate(zip((3, 11), backends))
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(60.0)
        assert not t.is_alive()

    for idx, seed in enumerate((3, 11)):
        assert results[idx] == sequential[seed]
    assert active_run_stats() == {"active_runs": 0, "active_ranks": 0}


def test_interleaved_thread_backend_runs_are_bit_identical():
    _assert_interleaved_matches_sequential(("threads", "threads"))


def test_interleaved_process_backend_runs_are_bit_identical():
    # Two callers' jobs run side by side in the job-worker pool.
    _assert_interleaved_matches_sequential(("processes", "processes"))


def test_mixed_backends_interleave():
    _assert_interleaved_matches_sequential(("threads", "processes"))


def test_active_run_accounting_tracks_overlap():
    _gate.clear()
    cluster = laptop_cluster(num_nodes=2)
    results = [None, None]

    def run(idx):
        results[idx] = spmd_run(_gated_ring, cluster, args=(idx,))

    threads = [threading.Thread(target=run, args=(idx,)) for idx in range(2)]
    try:
        for t in threads:
            t.start()
        deadline = threading.Event()
        for _ in range(1000):
            if active_run_stats()["active_runs"] == 2:
                break
            deadline.wait(0.005)
        stats = active_run_stats()
        assert stats["active_runs"] == 2
        assert stats["active_ranks"] == 4  # two 2-rank jobs in flight
    finally:
        _gate.set()
        for t in threads:
            t.join(30.0)
    assert all(r is not None for r in results)
    assert active_run_stats() == {"active_runs": 0, "active_ranks": 0}


def test_only_the_baton_holder_runs_under_switch_pressure():
    """Stress: four concurrent 8-rank runs on a 1 µs GIL switch interval.
    Between receives every rank marks its run busy, gives the GIL away, and
    bumps the run's counter with an unlocked read-modify-write; a second
    rank of the same run runnable at that moment would see the mark (or
    lose an update)."""
    import sys
    import time

    rounds, bumps = 20, 25

    def prog(ctx, box):
        right, left = (ctx.rank + 1) % ctx.size, (ctx.rank - 1) % ctx.size
        for _ in range(rounds):
            for _ in range(bumps):
                assert box["busy"] is None, (box["busy"], ctx.rank)
                box["busy"] = ctx.rank
                seen = box["count"]
                time.sleep(0)  # releases the GIL: any runnable thread may go
                box["count"] = seen + 1
                box["busy"] = None
            ctx.comm.send(None, right, tag=1)
            ctx.comm.recv(source=left, tag=1)
        return ctx.clock.now

    boxes = [{"busy": None, "count": 0} for _ in range(4)]
    times = [None] * 4

    def run(idx):
        times[idx] = spmd_run(prog, laptop_cluster(num_nodes=8), args=(boxes[idx],)).times

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=(idx,)) for idx in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60.0)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [box["count"] for box in boxes] == [8 * rounds * bumps] * 4
    assert times[0] is not None and times[0] == times[1] == times[2] == times[3]
