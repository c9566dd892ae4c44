"""Failure injection: the engine must fail fast, loudly, and accurately."""

import time

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.core.api import GRKernel
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from repro.sim.engine import spmd_run
from repro.util.errors import DeadlockError

WORK = WorkModel(name="w", flops_per_elem=4, bytes_per_elem=8)


def test_kernel_exception_propagates_from_runtime():
    """A user emit function that raises must surface, not hang the fleet."""

    def bad_emit(obj, data, start, param):
        raise ZeroDivisionError("user bug in emit")

    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        gr = env.get_GR()
        gr.set_kernel(GRKernel(bad_emit, "sum", 4, 1, WORK))
        gr.set_input(np.ones((100, 1)))
        gr.start()
        return gr.get_global_reduction()  # blocks siblings without the abort

    with pytest.raises(ZeroDivisionError, match="user bug"):
        spmd_run(prog, laptop_cluster(num_nodes=3))


def _deadlock_text(prog, nodes=2):
    """The DeadlockError ``prog`` ends in — raised at once, no timeout."""
    t0 = time.monotonic()
    with pytest.raises(DeadlockError) as exc:
        spmd_run(prog, laptop_cluster(num_nodes=nodes))
    assert time.monotonic() - t0 < 1.0
    return str(exc.value)


def test_one_sided_collective_deadlocks_cleanly():
    """Only some ranks entering a collective is a deadlock, not a hang:
    when the skipping rank returns, nobody is left to run."""

    def prog(ctx):
        if ctx.rank == 0:
            return None  # skips the barrier
        ctx.comm.barrier()

    text = _deadlock_text(prog, nodes=4)
    for rank in (1, 2, 3):  # every rank inside the barrier is named
        assert f"rank {rank} waits for source=" in text
    assert "rank 0 waits" not in text


def test_mismatched_collective_order_deadlocks():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.bcast(1, root=0)
            ctx.comm.barrier()
        else:
            ctx.comm.barrier()
            ctx.comm.bcast(None, root=0)

    text = _deadlock_text(prog)
    # Rank 0's bcast and first barrier round sit unmatched at rank 1, whose
    # own barrier round sits unmatched at rank 0.
    assert "rank 0 waits for source=1" in text and "with 1 unmatched message(s)" in text
    assert "rank 1 waits for source=0" in text and "with 2 unmatched message(s)" in text


def test_partial_send_recv_pairing_detected():
    def prog(ctx):
        if ctx.rank == 0:
            ctx.comm.recv(source=1, tag=1)  # rank 1 never sends tag 1
        else:
            ctx.comm.send("x", 0, tag=2)

    text = _deadlock_text(prog)
    assert "rank 0 waits for source=1 tag=1 with 1 unmatched message(s)" in text
    assert "rank 1" not in text  # it sent and returned


def test_abort_drains_all_ranks_quickly():
    """After one rank dies, the other 7 blocked ranks must all be released."""

    def prog(ctx):
        if ctx.rank == 3:
            raise ValueError("injected")
        ctx.comm.recv(source=3, tag=0)

    with pytest.raises(ValueError, match="injected"):
        spmd_run(prog, laptop_cluster(num_nodes=8))


def test_results_of_completed_ranks_are_not_mixed_with_failures():
    """The engine must not return partial SpmdResult on failure."""

    def prog(ctx):
        if ctx.rank == 1:
            raise RuntimeError("late failure")
        return "done"

    with pytest.raises(RuntimeError):
        spmd_run(prog, laptop_cluster(num_nodes=2))


# ---------------------------------------------------------------------------
# Fault injection + resilience: apps complete bit-identically under lossy
# plans, and injected crashes recover from checkpoints with the cost
# visible in the virtual makespan.
# ---------------------------------------------------------------------------

from repro.apps.heat3d import Heat3DConfig, make_kernel
from repro.apps.heat3d import rank_program as heat3d_program
from repro.apps.kmeans import KmeansConfig
from repro.apps.kmeans import rank_program as kmeans_program
from repro.core.checkpoint import FAULT_CATEGORY
from repro.faults.plan import FaultPlan, RankCrash

HEAT_CFG = Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=6)
KM_CFG = KmeansConfig(functional_points=4000, n_points=400_000, iterations=6)
LOSSY = dict(drop=0.15, dup=0.1, delay=0.1, max_delay=3e-4)


def _heat(plan=None, **kw):
    cluster = laptop_cluster(num_nodes=4)
    return spmd_run(
        heat3d_program,
        cluster,
        args=(HEAT_CFG, "cpu", make_kernel(cluster.node)),
        kwargs=kw,
        fault_plan=plan,
        trace=plan is not None,
    )


def _kmeans(plan=None, **kw):
    return spmd_run(
        kmeans_program,
        laptop_cluster(num_nodes=4),
        args=(KM_CFG, "cpu"),
        kwargs=kw,
        fault_plan=plan,
        trace=plan is not None,
    )


def test_heat3d_bit_identical_under_lossy_plan():
    clean = _heat()
    lossy = _heat(FaultPlan.lossy(seed=11, **LOSSY), reliable=True)
    np.testing.assert_array_equal(clean.values[0]["grid"], lossy.values[0]["grid"])
    assert lossy.makespan > clean.makespan  # retries/dups cost virtual time


def test_kmeans_bit_identical_under_lossy_plan():
    clean = _kmeans()
    lossy = _kmeans(FaultPlan.lossy(seed=5, **LOSSY), reliable=True)
    np.testing.assert_array_equal(clean.values[0], lossy.values[0])
    assert lossy.makespan > clean.makespan


def test_heat3d_crash_recovers_from_checkpoint():
    clean = _heat()
    crash_at = clean.makespan * 0.5
    plan = FaultPlan.lossy(
        seed=11, **LOSSY, crashes=[RankCrash(rank=1, at_time=crash_at, restart_cost=0.005)]
    )
    res = _heat(plan, reliable=True, checkpoint_every=2)
    np.testing.assert_array_equal(clean.values[0]["grid"], res.values[0]["grid"])
    assert res.values[1]["recoveries"] == 1
    assert plan.stats.crashes_consumed == 1
    assert res.makespan > clean.makespan + 0.005  # recovery charged
    fault_labels = [
        e.label for t in res.traces for e in t if e.category == FAULT_CATEGORY
    ]
    assert "crash" in fault_labels
    assert "recovery" in fault_labels
    assert "checkpoint" in fault_labels


def test_kmeans_crash_recovers_from_checkpoint():
    clean = _kmeans()
    plan = FaultPlan(
        seed=5, crashes=[RankCrash(rank=3, at_time=clean.makespan * 0.4, restart_cost=0.003)]
    )
    res = _kmeans(plan, reliable=True, checkpoint_every=2)
    np.testing.assert_array_equal(clean.values[0], res.values[0])
    assert plan.stats.crashes_consumed == 1
    assert res.makespan > clean.makespan


def test_fault_runs_are_reproducible():
    def make_plan():
        return FaultPlan.lossy(
            seed=11, **LOSSY, crashes=[RankCrash(rank=1, at_time=0.09, restart_cost=0.005)]
        )

    a = _heat(make_plan(), reliable=True, checkpoint_every=2)
    b = _heat(make_plan(), reliable=True, checkpoint_every=2)
    assert a.times == b.times
    np.testing.assert_array_equal(a.values[0]["grid"], b.values[0]["grid"])


def test_makespan_monotone_in_fault_severity():
    spans = []
    for drop in (0.0, 0.15, 0.4):
        plan = FaultPlan.lossy(seed=13, drop=drop) if drop else None
        spans.append(_heat(plan, reliable=True).makespan)
    assert spans[0] < spans[1] < spans[2]


# ---------------------------------------------------------------------------
# Adaptive-split state across restart: a crash-restarted rank that rebuilds
# its runtime (fresh, unprofiled partitioner) must restore the observed
# device profile from the checkpoint, or every post-recovery charge — hence
# the makespan — diverges from an uninterrupted run.
# ---------------------------------------------------------------------------

from repro.core.api import StencilKernel, shifted
from repro.core.checkpoint import CheckpointManager
from repro.core.env import RuntimeEnv

ST_WORK = WorkModel(name="st", flops_per_elem=8, bytes_per_elem=32)
ST_GRID = np.random.default_rng(3).random((28, 24))


def _avg2d(src, dst, region, param):
    dst[region] = 0.25 * (
        shifted(src, region, (1, 0)) + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1)) + shifted(src, region, (0, -1))
    )


def _adaptive_ckpt_prog(ctx, rebuild=False, iterations=8):
    """Checkpointed adaptive stencil; ``rebuild=True`` models a real
    restart that reconstructs the runtime object before restoring."""
    env = RuntimeEnv(ctx, "cpu+1gpu")

    def build():
        st = env.get_stencil()
        st.configure(StencilKernel(_avg2d, ((1, 0), (-1, 0), (0, 1), (0, -1)), ST_WORK), ST_GRID.shape)
        return st

    holder = {"st": build()}
    holder["st"].set_global_grid(ST_GRID)
    mgr = CheckpointManager(ctx, every=2)

    def restore(state):
        if rebuild:
            holder["st"] = build()  # fresh runtime: unprofiled partitioner
        holder["st"].restore_state(state)

    mgr.run_convergence(
        iterations,
        lambda _it: holder["st"].step(),
        lambda: holder["st"].snapshot_state(),
        restore,
    )
    grid = holder["st"].gather_global()
    env.finalize()
    return {"grid": grid, "recoveries": mgr.recoveries}


def test_adaptive_split_survives_runtime_rebuild_on_restart():
    clean = spmd_run(_adaptive_ckpt_prog, laptop_cluster(num_nodes=2))

    def crashed(rebuild):
        plan = FaultPlan(
            seed=1,
            crashes=[
                RankCrash(
                    rank=1, at_time=clean.makespan * 0.6, restart_cost=0.004
                )
            ],
        )
        res = spmd_run(
            _adaptive_ckpt_prog,
            laptop_cluster(num_nodes=2),
            kwargs={"rebuild": rebuild},
            fault_plan=plan,
        )
        assert plan.stats.crashes_consumed == 1
        assert all(v["recoveries"] == 1 for v in res.values)
        return res

    in_place = crashed(rebuild=False)
    rebuilt = crashed(rebuild=True)
    # The headline pin: restoring into a rebuilt runtime charges exactly
    # what restoring in place does — bit for bit, not just approximately.
    assert repr(rebuilt.makespan) == repr(in_place.makespan)
    assert rebuilt.times == in_place.times
    np.testing.assert_array_equal(rebuilt.values[0]["grid"], in_place.values[0]["grid"])
    np.testing.assert_array_equal(rebuilt.values[0]["grid"], clean.values[0]["grid"])
