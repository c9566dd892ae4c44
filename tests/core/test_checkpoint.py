"""CheckpointManager: cadence, crash recovery, and trace accounting."""

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.core.checkpoint import FAULT_CATEGORY, CheckpointManager
from repro.faults.plan import FaultPlan, RankCrash
from repro.sim.engine import spmd_run
from repro.util.errors import ValidationError


def _counter_prog(ctx, iterations=10, every=3, step_cost=1e-4):
    """Counting loop: state is one array, every step adds 1 and barriers.

    ``step`` returns None, which ``run_convergence`` reads as "not done".
    """
    state = {"x": np.full(100, float(ctx.rank))}
    mgr = CheckpointManager(ctx, every=every)

    def step(_it):
        state["x"] += 1.0
        ctx.clock.advance(step_cost)
        ctx.comm.barrier()

    execs = mgr.run_convergence(
        iterations,
        step,
        lambda: state["x"].copy(),
        lambda s: np.copyto(state["x"], s),
    )
    return {
        "value": float(state["x"][0]),
        "executions": execs,
        "checkpoints": mgr.checkpoints_taken,
        "recoveries": mgr.recoveries,
    }


def test_clean_run_checkpoints_on_cadence():
    res = spmd_run(_counter_prog, laptop_cluster(num_nodes=2))
    for rank, v in enumerate(res.values):
        assert v["value"] == rank + 10
        assert v["executions"] == 10
        # Snapshots at iterations 0, 3, 6, 9.
        assert v["checkpoints"] == 4
        assert v["recoveries"] == 0


def test_crash_recovers_from_last_checkpoint():
    plan = FaultPlan(
        seed=1, crashes=[RankCrash(rank=1, at_time=4.5e-4, restart_cost=0.01)]
    )
    res = spmd_run(_counter_prog, laptop_cluster(num_nodes=4), fault_plan=plan)
    clean = spmd_run(_counter_prog, laptop_cluster(num_nodes=4))
    for v, c in zip(res.values, clean.values):
        # Crash between checkpoint 3 (t=3e-4ish) and the next boundary:
        # iterations 3..4 are re-executed, final value unchanged.
        assert v["value"] == c["value"]
        assert v["executions"] > c["executions"]
        assert v["recoveries"] == 1
    assert res.makespan > clean.makespan + 0.01  # restart_cost visible
    assert plan.stats.crashes_consumed == 1


def test_crash_run_is_deterministic():
    def run():
        plan = FaultPlan(
            seed=1, crashes=[RankCrash(rank=1, at_time=4.5e-4, restart_cost=0.01)]
        )
        return spmd_run(_counter_prog, laptop_cluster(num_nodes=4), fault_plan=plan)

    a, b = run(), run()
    assert a.times == b.times
    assert [v["executions"] for v in a.values] == [v["executions"] for v in b.values]


def test_trace_records_checkpoint_crash_recovery():
    plan = FaultPlan(
        seed=1, crashes=[RankCrash(rank=1, at_time=4.5e-4, restart_cost=0.01)]
    )
    res = spmd_run(
        _counter_prog,
        laptop_cluster(num_nodes=2),
        fault_plan=plan,
        trace=True,
    )
    by_rank = [
        [e.label for e in t if e.category == FAULT_CATEGORY] for t in res.traces
    ]
    assert "crash" in by_rank[1]
    assert "crash" not in by_rank[0]  # only the failed rank logs the crash
    for labels in by_rank:
        assert "recovery" in labels  # but every rank recovers
        assert labels.count("checkpoint") >= 2


def test_recovery_charges_restart_plus_reload():
    plan = FaultPlan(
        seed=1, crashes=[RankCrash(rank=0, at_time=1e-4, restart_cost=0.02)]
    )
    res = spmd_run(
        _counter_prog,
        laptop_cluster(num_nodes=2),
        fault_plan=plan,
        trace=True,
    )
    recs = [
        e
        for e in res.traces[0]
        if e.category == FAULT_CATEGORY and e.label == "recovery"
    ]
    assert len(recs) == 1
    assert recs[0].duration >= 0.02  # restart_cost plus snapshot reload
    assert recs[0].meta["restart_cost"] == 0.02


def test_multiple_crashes_multiple_recoveries():
    plan = FaultPlan(
        seed=1,
        crashes=[
            RankCrash(rank=0, at_time=2e-4, restart_cost=0.005),
            RankCrash(rank=1, at_time=8e-4, restart_cost=0.005),
        ],
    )
    res = spmd_run(_counter_prog, laptop_cluster(num_nodes=2), fault_plan=plan)
    for rank, v in enumerate(res.values):
        assert v["value"] == rank + 10
        assert v["recoveries"] == 2
    assert plan.stats.crashes_consumed == 2


def test_without_plan_no_detection_overhead_mistakes():
    res = spmd_run(_counter_prog, laptop_cluster(num_nodes=2))
    assert all(v["recoveries"] == 0 for v in res.values)


def test_validation():
    def prog(ctx):
        with pytest.raises(ValidationError):
            CheckpointManager(ctx, every=0)
        mgr = CheckpointManager(ctx)
        # A snapshot copy reads and writes every byte.
        assert mgr.write_bandwidth == ctx.node.cpu.mem_bandwidth / 2
        with pytest.raises(ValidationError):
            mgr.run_convergence(0, lambda i: None, lambda: None, lambda s: None)
        with pytest.raises(ValidationError):
            mgr.run_convergence(0, lambda i: True, lambda: None, lambda s: None)
        return True

    assert spmd_run(prog, laptop_cluster(num_nodes=1)).values == [True]


# ------------------------------------------------------------ run_convergence
def _converging_prog(ctx, stop_at=6, max_iters=20, every=2, step_cost=1e-4):
    """Convergence loop: state is a counter; the body signals done when the
    (collective) counter reaches ``stop_at``."""
    state = {"x": 0.0, "history": []}
    mgr = CheckpointManager(ctx, every=every)

    def body(_it):
        state["x"] += 1.0
        state["history"].append(state["x"])
        ctx.clock.advance(step_cost)
        ctx.comm.barrier()
        return state["x"] >= stop_at

    execs = mgr.run_convergence(
        max_iters,
        body,
        lambda: {"x": state["x"], "history": list(state["history"])},
        lambda s: (
            state.update(x=s["x"]),
            state.update(history=list(s["history"])),
        ),
    )
    return {
        "value": state["x"],
        "history": state["history"],
        "executions": execs,
        "checkpoints": mgr.checkpoints_taken,
        "recoveries": mgr.recoveries,
    }


def test_run_convergence_stops_on_done():
    res = spmd_run(_converging_prog, laptop_cluster(num_nodes=2))
    for v in res.values:
        assert v["value"] == 6.0
        assert v["executions"] == 6  # not max_iters
        assert v["history"] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert v["recoveries"] == 0


def test_run_convergence_hits_cap_when_never_done():
    res = spmd_run(
        _converging_prog, laptop_cluster(num_nodes=2), kwargs={"stop_at": 99}
    )
    for v in res.values:
        assert v["executions"] == 20
        assert v["value"] == 20.0


def test_run_convergence_crash_replays_to_same_stop():
    """A crash mid-loop re-executes from the checkpoint, and the restored
    history means the loop still stops at the same iteration with the
    same record."""
    plan = FaultPlan(
        seed=1, crashes=[RankCrash(rank=1, at_time=4.5e-4, restart_cost=0.01)]
    )
    res = spmd_run(_converging_prog, laptop_cluster(num_nodes=2), fault_plan=plan)
    clean = spmd_run(_converging_prog, laptop_cluster(num_nodes=2))
    for v, c in zip(res.values, clean.values):
        assert v["value"] == c["value"]
        assert v["history"] == c["history"]  # no re-appended duplicates
        assert v["executions"] > c["executions"]
        assert v["recoveries"] == 1
    assert plan.stats.crashes_consumed == 1
    assert res.makespan > clean.makespan + 0.01
