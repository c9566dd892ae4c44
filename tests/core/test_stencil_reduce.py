"""The stencil runtime's fused run_until loop: bit-identity, overlap,
checkpointing."""

import math

import numpy as np
import pytest

from repro.cluster.presets import laptop_cluster
from repro.core.api import StencilKernel, shifted
from repro.core.checkpoint import CheckpointManager
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from repro.faults.plan import FaultPlan, RankCrash
from repro.sim.engine import spmd_run
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd

WORK = WorkModel(name="st", flops_per_elem=8, bytes_per_elem=32)
GRID = np.random.default_rng(3).random((28, 24))
TOL = 0.5
MAX_ITERS = 200


def _avg2d(src, dst, region, param):
    dst[region] = 0.25 * (
        shifted(src, region, (1, 0)) + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1)) + shifted(src, region, (0, -1))
    )


def _kernel():
    return StencilKernel(_avg2d, ((1, 0), (-1, 0), (0, 1), (0, -1)), WORK)


def fused_program(
    ctx, tol=TOL, max_iters=MAX_ITERS, mix="cpu+2gpu", time_block=1, **st_opts
):
    """The runtime under test: one fused round+combine per iteration."""
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil(**st_opts)
    st.configure(_kernel(), GRID.shape, time_block=time_block)
    st.set_global_grid(GRID)
    res = st.run_until(max_iters=max_iters, tol=tol)
    grid = st.gather_global()
    env.finalize()
    return {
        "grid": grid,
        "iterations": res.iterations,
        "residuals": res.residuals,
        "converged": res.converged,
    }


def reference_program(ctx, tol=TOL, max_iters=MAX_ITERS, mix="cpu+2gpu"):
    """The naive composition: step, then a standalone blocking allreduce."""
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil()
    st.configure(_kernel(), GRID.shape)
    st.set_global_grid(GRID)
    residuals = []
    iterations = 0
    converged = False
    for _ in range(max_iters):
        old = st._src[st.interior].copy()
        st.run(1)
        diff = (st._src[st.interior] - old).ravel()
        total = env.comm.allreduce(float(np.dot(diff, diff)), op="sum")
        residuals.append(float(math.sqrt(total)))
        iterations += 1
        if residuals[-1] <= tol:
            converged = True
            break
    grid = st.gather_global()
    env.finalize()
    return {
        "grid": grid,
        "iterations": iterations,
        "residuals": residuals,
        "converged": converged,
    }


@pytest.mark.parametrize(
    "time_block, nodes",
    [
        pytest.param(k, n, id=str(n) if k == 1 else f"{n}-k{k}")
        for k in (1, 2, 3)
        for n in (1, 2, 4)
    ],
)
def test_run_until_matches_reference_loop_bitwise(time_block, nodes):
    """Same iteration count, same residual sequence (exact float equality),
    same final grid — the fusion may only move virtual time, never bits.
    One round of k sweeps is k rounds of one: at k = 3 the loop converges
    mid-round and rewinds to the reference's stopping sweep."""
    fused = run_spmd(
        fused_program, nodes=nodes, gpus_per_node=2, kwargs={"time_block": time_block}
    )
    ref = run_spmd(reference_program, nodes=nodes, gpus_per_node=2)
    f, r = fused.values[0], ref.values[0]
    assert f["iterations"] == r["iterations"]
    assert f["converged"] and r["converged"]
    assert f["residuals"] == r["residuals"]  # bitwise, not allclose
    np.testing.assert_array_equal(f["grid"], r["grid"])


def test_fused_loop_is_faster_in_virtual_time():
    """The combine overlaps the next step's halo flight: the fused loop
    reaches the same bits sooner than step-then-allreduce."""
    fused = run_spmd(fused_program, nodes=4, gpus_per_node=2)
    ref = run_spmd(reference_program, nodes=4, gpus_per_node=2)
    assert fused.makespan < ref.makespan


def test_early_convergence_drains_speculation_deterministically():
    """Converging mid-loop leaves a speculative exchange in flight; the
    drain must keep the run repeatable bit for bit."""
    a = run_spmd(fused_program, nodes=4, gpus_per_node=2)
    b = run_spmd(fused_program, nodes=4, gpus_per_node=2)
    assert a.values[0]["converged"]
    assert a.values[0]["iterations"] < MAX_ITERS
    assert repr(a.makespan) == repr(b.makespan)
    assert a.times == b.times
    np.testing.assert_array_equal(a.values[0]["grid"], b.values[0]["grid"])


def test_counters_one_payload_per_neighbor_per_step():
    """Each rank sends exactly one message per neighbour per step
    (speculative sends belong to the step that consumes them)."""
    steps = 5
    res = run_spmd(
        fused_program,
        nodes=2,
        gpus_per_node=2,
        kwargs={"tol": None, "max_iters": steps},
        trace=True,
    )
    for tr in res.traces:
        counters = tr.counters
        # dims=(2, 1): one neighbour each, one message per step.
        assert counters["halo.msgs"] == steps
        assert counters["stencil_reduce.combines"] == steps
        assert counters["stencil_reduce.steps"] == steps
    assert not res.values[0]["converged"]  # tol=None never stops early


def test_fixed_step_mode_runs_exactly_max_iters():
    res = run_spmd(
        fused_program, nodes=2, gpus_per_node=2, kwargs={"tol": None, "max_iters": 4}
    )
    v = res.values[0]
    assert v["iterations"] == 4
    assert len(v["residuals"]) == 4
    assert not v["converged"]


#: Compute-bound, so the fused reduce's extra flops show up as time (the
#: memory-bound WORK would hide them under its roofline floor).
COMPUTE_WORK = WorkModel(name="st.compute", flops_per_elem=64, bytes_per_elem=1)


def _run_after(ctx, fused):
    """Three sweeps (fused loop or plain run), then a timed run(4)."""
    env = RuntimeEnv(ctx, "cpu")
    st = env.get_stencil()
    st.configure(
        StencilKernel(_avg2d, ((1, 0), (-1, 0), (0, 1), (0, -1)), COMPUTE_WORK), GRID.shape
    )
    st.set_global_grid(GRID)
    if fused:
        st.run_until(max_iters=3, tol=None)
    else:
        st.run(3)
    t0 = env.clock.now
    st.run(4)
    return t0, env.clock.now - t0, st._src[st.interior].copy()


def test_reduce_charge_stays_inside_run_until():
    """The reduce flops are charged while run_until runs and not after:
    the sweeps that follow it are charged like sweeps after a plain run.
    The two run(4)s start at different clock readings, so their durations
    may differ in the last ulps; a leftover charge would double them."""
    fused = run_spmd(lambda ctx: _run_after(ctx, True), nodes=1).values[0]
    plain = run_spmd(lambda ctx: _run_after(ctx, False), nodes=1).values[0]
    assert fused[0] > plain[0]
    assert fused[1] == pytest.approx(plain[1], rel=1e-12)
    np.testing.assert_array_equal(fused[2], plain[2])


def checkpointed_program(ctx, every=3):
    env = RuntimeEnv(ctx, "cpu")
    st = env.get_stencil()
    st.configure(_kernel(), GRID.shape)
    st.set_global_grid(GRID)
    mgr = CheckpointManager(ctx, every=every)
    res = st.run_until(max_iters=MAX_ITERS, tol=TOL, checkpoint=mgr)
    grid = st.gather_global()
    env.finalize()
    return {
        "grid": grid,
        "iterations": res.iterations,
        "residuals": res.residuals,
        "converged": res.converged,
        "recoveries": mgr.recoveries,
    }


def test_checkpointed_loop_matches_uncheckpointed_numerics():
    plain = run_spmd(fused_program, nodes=2, kwargs={"mix": "cpu"})
    ckpt = run_spmd(checkpointed_program, nodes=2)
    p, c = plain.values[0], ckpt.values[0]
    assert c["iterations"] == p["iterations"]
    assert c["residuals"] == p["residuals"]
    np.testing.assert_array_equal(c["grid"], p["grid"])
    assert c["recoveries"] == 0


def test_crash_mid_convergence_recovers_bit_identically():
    """A crash inside run_until rolls back grid + residual history +
    iteration counter together; the recovered run must converge on the
    same iteration with the same residuals and grid."""
    clean = spmd_run(checkpointed_program, laptop_cluster(num_nodes=4))
    plan = FaultPlan(
        seed=1,
        crashes=[
            RankCrash(rank=1, at_time=clean.makespan * 0.5, restart_cost=0.005)
        ],
    )
    res = spmd_run(checkpointed_program, laptop_cluster(num_nodes=4), fault_plan=plan)
    assert plan.stats.crashes_consumed == 1
    for v, c in zip(res.values, clean.values):
        assert v["recoveries"] == 1
        assert v["iterations"] == c["iterations"]
        assert v["residuals"] == c["residuals"]
        assert v["converged"]
    np.testing.assert_array_equal(res.values[0]["grid"], clean.values[0]["grid"])
    assert res.makespan > clean.makespan + 0.005


def test_thread_and_process_backends_bit_identical():
    """The fused convergence loop as a job: in-process and in a job worker."""
    from repro.serve import JobSpec, execute_job

    doc = dict(
        app="heat3d",
        nodes=2,
        preset="laptop",
        mix="cpu+1gpu",
        params={"functional_shape": [16, 16, 16]},
        options={"until_tol": 1e-3, "max_iters": 40},
    )
    threads = execute_job(JobSpec(**doc, backend="threads"))
    procs = execute_job(JobSpec(**doc, backend="processes"))
    assert repr(threads["makespan"]) == repr(procs["makespan"])
    assert threads["metrics"]["residuals"] == procs["metrics"]["residuals"]
    assert threads["metrics"]["iterations"] == procs["metrics"]["iterations"] > 1
    assert threads["result_digest"] == procs["result_digest"]


def _reliable_fused(ctx, time_block=1):
    """run_until over the reliable layer — speculation rides a lossy wire."""
    from repro.comm.reliable import ReliableComm

    ctx.comm = ReliableComm(ctx.comm)
    env = RuntimeEnv(ctx, "cpu")
    st = env.get_stencil()
    st.configure(_kernel(), GRID.shape, time_block=time_block)
    st.set_global_grid(GRID)
    res = st.run_until(max_iters=MAX_ITERS, tol=TOL)
    grid = st.gather_global()
    env.finalize()
    ctx.comm.flush()
    return {"grid": grid, "iterations": res.iterations, "residuals": res.residuals}


@pytest.mark.parametrize("time_block", [1, 4])
def test_speculative_halos_survive_lossy_network(time_block):
    """Drop/delay rules hitting the speculative halo messages (a whole
    block of them when time_block > 1) must leave grids and residual
    histories bit-identical to the fault-free run — retransmits may only
    move virtual time."""
    plain = run_spmd(fused_program, nodes=2, kwargs={"mix": "cpu"})
    clean = run_spmd(lambda ctx: _reliable_fused(ctx, time_block), nodes=2)
    plan = FaultPlan.lossy(seed=5, drop=0.08, dup=0.04, delay=0.1, max_delay=1e-4)
    lossy = run_spmd(
        lambda ctx: _reliable_fused(ctx, time_block), nodes=2, fault_plan=plan
    )
    assert plan.stats.drops > 0 and plan.stats.delays > 0
    for got in (clean.values[0], lossy.values[0]):
        assert got["iterations"] == plain.values[0]["iterations"]
        assert got["residuals"] == plain.values[0]["residuals"]
        np.testing.assert_array_equal(got["grid"], plain.values[0]["grid"])


def _cancel_under_faults(ctx):
    """Speculate, cancel while the halos are (mis)travelling, keep going.

    The cancel drain must keep FIFO hygiene intact: the steps after the
    cancel consume exactly their own halo messages, never a stale
    speculative strip, so the final grid matches the never-speculated run.
    """
    from repro.comm.reliable import ReliableComm

    ctx.comm = ReliableComm(ctx.comm)
    env = RuntimeEnv(ctx, "cpu")
    st = env.get_stencil()
    st.configure(_kernel(), GRID.shape)
    st.set_global_grid(GRID)
    st.run(1)
    st._begin_step_early()
    st._cancel_begun_step()
    st.run(3)
    grid = st.gather_global()
    env.finalize()
    ctx.comm.flush()
    return grid


def test_cancel_begun_step_under_faults_keeps_fifo_hygiene():
    clean = run_spmd(_cancel_under_faults, nodes=2).values[0]
    plan = FaultPlan.lossy(seed=9, drop=0.2, dup=0.1, delay=0.2, max_delay=1e-4)
    faulty = run_spmd(_cancel_under_faults, nodes=2, fault_plan=plan).values[0]
    assert plan.stats.drops > 0
    np.testing.assert_array_equal(faulty, clean)


def test_snapshot_with_speculative_exchange_in_flight_rejected():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(_kernel(), GRID.shape)
        st.set_global_grid(GRID)
        st.run(1)
        st._begin_step_early()
        try:
            st.snapshot_state()
        finally:
            st._cancel_begun_step()

    with pytest.raises(ConfigurationError, match="in flight"):
        run_spmd(prog, nodes=1)


def test_double_prestart_rejected_and_cancel_is_idempotent():
    def prog(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(_kernel(), GRID.shape)
        st.set_global_grid(GRID)
        st._cancel_begun_step()  # nothing in flight: a no-op
        st._begin_step_early()
        try:
            st._begin_step_early()
        except ConfigurationError:
            st._cancel_begun_step()
            st._cancel_begun_step()  # idempotent after the drain
            return True
        return False

    assert run_spmd(prog, nodes=1).values == [True]


def test_validation():
    def bad_max_iters(ctx):
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(_kernel(), GRID.shape)
        st.set_global_grid(GRID)
        st.run_until(max_iters=0)

    with pytest.raises(ConfigurationError, match="max_iters"):
        run_spmd(bad_max_iters, nodes=1)

    def unconfigured(ctx):
        RuntimeEnv(ctx, "cpu").get_stencil().run_until(max_iters=1)

    with pytest.raises(ConfigurationError, match="configure"):
        run_spmd(unconfigured, nodes=1)
