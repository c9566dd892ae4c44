"""Temporal blocking: bit-identity, latency-preset wins, recovery.

The contract under test (ISSUE 8): for every app and every ``k``, gathered
grids and ``run_until`` residual histories are bit-identical to the
``k=1`` reference — blocking moves the makespan, never the numbers — and
on the latency-dominated preset the makespan strictly shrinks as ``k``
grows.
"""

import hashlib
import itertools
import json
import pathlib

import numpy as np
import pytest

from repro.apps import heat3d, sobel
from repro.apps.extra import jacobi2d
from repro.cluster.presets import laptop_cluster, latency_cluster
from repro.core.api import StencilKernel, shifted
from repro.core.env import RuntimeEnv
from repro.device.work import WorkModel
from repro.sim.engine import spmd_run
from repro.util.errors import ConfigurationError
from tests.conftest import run_spmd

WORK = WorkModel(name="tb", flops_per_elem=8, bytes_per_elem=32)
GRID2D = np.random.default_rng(7).random((28, 24))


def _avg2d(src, dst, region, param):
    dst[region] = 0.25 * (
        shifted(src, region, (1, 0)) + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1)) + shifted(src, region, (0, -1))
    )


def _wide(src, dst, region, param):
    """Radius-2 kernel: second-neighbour average."""
    dst[region] = 0.5 * (shifted(src, region, (2, 0)) + shifted(src, region, (0, -2)))


AVG2D = StencilKernel(_avg2d, ((1, 0), (-1, 0), (0, 1), (0, -1)), WORK)
WIDE = StencilKernel(_wide, ((2, 0), (0, -2)), WORK)


def _program(grid, kernel, iters=5, mix="cpu", time_block=1, **st_opts):
    def prog(ctx):
        env = RuntimeEnv(ctx, mix)
        st = env.get_stencil(**st_opts)
        st.configure(kernel, grid.shape, time_block=time_block)
        st.set_global_grid(grid)
        st.run(iters)
        return st.gather_global()

    return prog


# -- raw-runtime bit-identity -------------------------------------------------

@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("mix", ["cpu", "cpu+2gpu"])
def test_blocked_grid_bit_identical(k, mix):
    # iters=5 is never a multiple of k here, so the partial final block
    # (full-depth exchange, shrunk sweep regions) is always exercised too.
    ref = run_spmd(_program(GRID2D, AVG2D, mix=mix), gpus_per_node=2).values[0]
    res = run_spmd(
        _program(GRID2D, AVG2D, mix=mix, time_block=k), gpus_per_node=2
    ).values[0]
    np.testing.assert_array_equal(res, ref)


def test_wide_halo_blocked_bit_identical():
    ref = run_spmd(_program(GRID2D, WIDE, iters=4)).values[0]
    res = run_spmd(_program(GRID2D, WIDE, iters=4, time_block=2)).values[0]
    np.testing.assert_array_equal(res, ref)


def test_jacobi2d_static_fields_blocked():
    # Static coefficient fields are padded to the deep halo; the rhs must
    # keep feeding the widened sweep regions bit-identically.
    config = jacobi2d.Jacobi2DConfig(shape=(32, 32), tol=1e-12, max_iters=6)
    ref = run_spmd(lambda ctx: jacobi2d.rank_program(ctx, config)).values[0]
    blocked = run_spmd(
        lambda ctx: jacobi2d.rank_program(ctx, config, time_block=2), trace=True
    )
    res = blocked.values[0]
    assert ref["iterations"] == 6
    assert blocked.traces[0].gauges["stencil.time_block"] == 2.0
    np.testing.assert_array_equal(res["grid"], ref["grid"])
    np.testing.assert_array_equal(ref["grid"], jacobi2d.sequential_reference(config)[0])


# -- app-level bit-identity ---------------------------------------------------

@pytest.mark.parametrize("k", [2, 4])
def test_heat3d_app_bit_identical(k):
    cl = laptop_cluster(2)
    config = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=5)
    ref = heat3d.run(cl, config, mix="cpu")
    res = heat3d.run(cl, config, mix="cpu", time_block=k, trace=True)
    np.testing.assert_array_equal(res.result, ref.result)
    assert res.spmd.traces[0].gauges["stencil.time_block"] == k


@pytest.mark.parametrize("k", [2, 4])
def test_sobel_app_bit_identical(k):
    cl = laptop_cluster(2)
    config = sobel.SobelConfig(functional_shape=(64, 48), simulated_steps=5)
    ref = sobel.run(cl, config, mix="cpu")
    res = sobel.run(cl, config, mix="cpu", time_block=k)
    np.testing.assert_array_equal(res.result, ref.result)


@pytest.mark.parametrize("k", [2, 4])
def test_jacobi2d_run_until_history_bit_identical(k):
    # 207 iterations to converge — odd, so both k=2 and k=4 hit the
    # tolerance mid-block and exercise the rewind path; the residual
    # history must still stop at exactly the k=1 iteration.
    cl = laptop_cluster(2)
    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=5e-4, max_iters=400)
    ref = jacobi2d.run(cl, config)
    res = jacobi2d.run(cl, config, time_block=k)
    assert res.spmd.values[0]["iterations"] == ref.spmd.values[0]["iterations"]
    assert res.spmd.values[0]["residuals"] == ref.spmd.values[0]["residuals"]
    np.testing.assert_array_equal(res.result, ref.result)


def test_jacobi2d_fixed_iteration_partial_block():
    # max_iters not a multiple of k, tol out of reach: the loop must land
    # exactly on max_iters with a partial final block.
    cl = laptop_cluster(2)
    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=1e-12, max_iters=10)
    ref = jacobi2d.run(cl, config)
    for k in (3, 4):
        res = jacobi2d.run(cl, config, time_block=k)
        assert res.spmd.values[0]["iterations"] == 10
        assert res.spmd.values[0]["residuals"] == ref.spmd.values[0]["residuals"]
        np.testing.assert_array_equal(res.result, ref.result)


# -- latency-preset performance ----------------------------------------------

def test_jacobi2d_latency_monotone():
    cl = latency_cluster(2)
    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=1e-12, max_iters=24)
    spans = {
        k: jacobi2d.run(cl, config, mix="cpu", time_block=k).makespan for k in (1, 2, 4)
    }
    assert spans[4] < spans[2] < spans[1]


def test_heat3d_sobel_latency_monotone():
    # Unscaled grids (shape == functional_shape): at the paper's 512^3 /
    # 32768^2 model scale the per-sweep compute dwarfs any per-message
    # alpha, and blocking correctly does not win — the latency-dominated
    # regime the preset exists for is small faces on a high-alpha link.
    cl = latency_cluster(2)
    hcfg = heat3d.Heat3DConfig(
        shape=(24, 24, 24), functional_shape=(24, 24, 24), simulated_steps=8
    )
    scfg = sobel.SobelConfig(
        shape=(64, 48), functional_shape=(64, 48), simulated_steps=8
    )
    for mod, cfg in ((heat3d, hcfg), (sobel, scfg)):
        spans = {
            k: mod.run(cl, cfg, mix="cpu", time_block=k).spmd.makespan for k in (1, 2, 4)
        }
        assert spans[4] < spans[2] < spans[1], (mod.__name__, spans)


# -- checkpoint / crash-restart ----------------------------------------------

def test_heat3d_crash_restart_mid_block_bit_identical():
    from repro.faults import FaultPlan, RankCrash

    cl = laptop_cluster(4)
    config = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=12)
    clean = heat3d.run(cl, config, mix="cpu")
    blocked = heat3d.run(cl, config, mix="cpu", time_block=4, checkpoint_every=1)
    np.testing.assert_array_equal(blocked.result, clean.result)
    plan = FaultPlan(
        seed=1,
        crashes=[
            RankCrash(rank=1, at_time=blocked.spmd.makespan * 0.5, restart_cost=0.005)
        ],
    )
    res = heat3d.run(
        cl,
        config,
        mix="cpu",
        time_block=4,
        checkpoint_every=1,
        reliable=True,
        fault_plan=plan,
    )
    assert plan.stats.crashes_consumed == 1
    assert res.spmd.values[0]["recoveries"] == 1
    np.testing.assert_array_equal(res.result, clean.result)


def _jacobi_checkpoint_prog(config, time_block, checkpoint_every, reliable=False):
    def prog(ctx):
        if reliable:
            from repro.comm.reliable import ReliableComm

            ctx.comm = ReliableComm(ctx.comm)
        env = RuntimeEnv(ctx, "cpu")
        st = env.get_stencil()
        st.configure(
            jacobi2d.make_kernel(),
            config.shape,
            parameter=jacobi2d._grid_spacing_sq(config),
            static_fields={"rhs": jacobi2d.generate_rhs(config)},
            time_block=time_block,
        )
        st.set_global_grid(np.zeros(config.shape))
        from repro.core.checkpoint import CheckpointManager

        mgr = CheckpointManager(ctx, every=checkpoint_every)
        res = st.run_until(max_iters=config.max_iters, tol=config.tol, checkpoint=mgr)
        grid = st.gather_global()
        env.finalize()
        if reliable:
            ctx.comm.flush()
        return {
            "grid": grid,
            "iterations": res.iterations,
            "residuals": res.residuals,
            "recoveries": mgr.recoveries,
        }

    return prog


def test_jacobi2d_checkpointed_blocked_crash_bit_identical():
    from repro.faults import FaultPlan, RankCrash

    cl = laptop_cluster(2)
    config = jacobi2d.Jacobi2DConfig(shape=(48, 48), tol=5e-4, max_iters=240)
    ref = jacobi2d.run(cl, config)
    clean = spmd_run(_jacobi_checkpoint_prog(config, 4, 5), cl)
    assert clean.values[0]["residuals"] == ref.spmd.values[0]["residuals"]
    plan = FaultPlan(
        seed=1,
        crashes=[RankCrash(rank=1, at_time=clean.makespan * 0.5, restart_cost=0.005)],
    )
    res = spmd_run(
        _jacobi_checkpoint_prog(config, 4, 5, reliable=True), cl, fault_plan=plan
    )
    assert plan.stats.crashes_consumed == 1
    assert res.values[0]["recoveries"] == 1
    assert res.values[0]["iterations"] == ref.spmd.values[0]["iterations"]
    assert res.values[0]["residuals"] == ref.spmd.values[0]["residuals"]
    np.testing.assert_array_equal(res.values[0]["grid"], ref.result)


# -- observability ------------------------------------------------------------

def test_time_block_gauges_on_trace():
    res = run_spmd(_program(GRID2D, AVG2D, time_block=4), trace=True)
    gauges = res.traces[0].gauges
    assert gauges["stencil.time_block"] == 4.0
    assert gauges["halo.redundant_flops"] > 0.0
    base = run_spmd(_program(GRID2D, AVG2D), trace=True)
    assert base.traces[0].gauges["stencil.time_block"] == 1.0


# -- validation ---------------------------------------------------------------

def test_time_block_must_be_positive():
    for value in (0, True):  # a JSON ``true`` is no round size
        with pytest.raises(ConfigurationError, match=f"time_block must be >= 1, got {value}"):
            run_spmd(_program(GRID2D, AVG2D, time_block=value), nodes=1)


def test_time_block_rejects_unknown_string():
    with pytest.raises(ConfigurationError, match="time_block must be >= 1, got 'auto'"):
        run_spmd(_program(GRID2D, AVG2D, time_block="auto"), nodes=1)


def test_time_block_needs_room_for_deep_strips():
    # 2 ranks split axis 0 of a 28-row grid: ext 14 < 2*k*h for k=8.
    with pytest.raises(ConfigurationError, match="2\\*time_block\\*halo"):
        run_spmd(_program(GRID2D, AVG2D, time_block=8))


# -- backend parity -----------------------------------------------------------

def test_blocked_run_identical_across_backends():
    """A blocked job: in this process, in a job worker, and run directly."""
    from repro.serve import JobSpec, execute_job

    doc = dict(
        app="heat3d",
        nodes=2,
        preset="laptop",
        mix="cpu",
        scale="full",
        params={"functional_shape": [24, 24, 24], "simulated_steps": 5},
        options={"time_block": 4},
    )
    t = execute_job(JobSpec(**doc, backend="threads"))
    p = execute_job(JobSpec(**doc, backend="processes"))
    assert p["result_digest"] == t["result_digest"]
    assert repr(p["makespan"]) == repr(t["makespan"])
    config = heat3d.Heat3DConfig(functional_shape=(24, 24, 24), simulated_steps=5)
    direct = heat3d.run(laptop_cluster(2), config, mix="cpu", time_block=4)
    assert repr(direct.makespan) == repr(p["makespan"])


# -- multi-device charging pins -----------------------------------------------
# ``stencil_pins.json`` was generated at the commit *before* k=1 became the
# ``time_block=1`` case of the one step path (ISSUE 14), from the then
# separate k=1 / blocked code.  Every entry is [repr(app makespan),
# repr(engine makespan), result digest]: a charge that moves by one ulp on
# any device mix, node count, overlap/tiling setting or blocking factor
# fails here, not only in the wall-clock bench's handful of cases.  The n3
# entries came later: only a rank with neighbours on both sides of an axis
# sends two strips in one phase, so only they see the send order.

PIN_MIXES = ("cpu", "cpu+1gpu", "cpu+2gpu")
PIN_NODES = (1, 2, 3, 4)
PIN_TIME_BLOCKS = (1, 2)
#: variant -> (accepts overlap/tiling, accepts time_block)
PIN_VARIANTS = {
    "sobel": (True, True),
    "heat3d": (True, True),
    "heat3d_until_tol": (True, True),
    "heat3d_lossy_checkpointed": (True, True),
    "jacobi2d": (False, True),
}
PINS_PATH = pathlib.Path(__file__).with_name("stencil_pins.json")


def pin_cases(variant):
    """(mix, nodes, overlap, tiling, time_block) grid for one variant."""
    switches, blocks = PIN_VARIANTS[variant]
    flags = (True, False) if switches else (True,)
    return itertools.product(
        PIN_MIXES, PIN_NODES, flags, flags, PIN_TIME_BLOCKS if blocks else (1,)
    )


def pin_key(mix, nodes, overlap, tiling, time_block):
    return f"{mix}|n{nodes}|overlap={int(overlap)}|tiling={int(tiling)}|k={time_block}"


def pin_entry(variant, mix, nodes, overlap, tiling, time_block):
    from repro.faults import FaultPlan, RankCrash

    cl = laptop_cluster(nodes, gpus_per_node=2)
    if variant == "sobel":
        run = sobel.run(
            cl,
            sobel.SobelConfig(
                shape=(96, 80), functional_shape=(48, 40), simulated_steps=5
            ),
            mix,
            overlap=overlap,
            tiling=tiling,
            time_block=time_block,
        )
    elif variant == "jacobi2d":
        run = jacobi2d.run(
            cl,
            jacobi2d.Jacobi2DConfig(shape=(32, 32), tol=2e-3, max_iters=60),
            mix,
            time_block=time_block,
        )
    else:
        shape, extra = (32, 32, 32), {}
        if variant == "heat3d_until_tol":
            # Converges at iteration 11: mid-block for every k > 1.
            extra = {"until_tol": 5.2, "max_iters": 12}
        elif variant == "heat3d_lossy_checkpointed":
            # The lossy plan of examples/serve_smoke.py; its crash time
            # is meant for the paper-scale grid.
            shape = (512, 512, 512)
            extra = {
                "reliable": True,
                "checkpoint_every": 2,
                "fault_plan": FaultPlan.lossy(
                    seed=7,
                    drop=0.02,
                    dup=0.01,
                    delay=0.02,
                    max_delay=1e-4,
                    crashes=[
                        RankCrash(rank=min(1, nodes - 1), at_time=0.05, restart_cost=0.5)
                    ],
                ),
            }
        run = heat3d.run(
            cl,
            heat3d.Heat3DConfig(
                shape=shape, functional_shape=(16, 16, 16), simulated_steps=5
            ),
            mix,
            overlap=overlap,
            tiling=tiling,
            time_block=time_block,
            **extra,
        )
    makespan, engine, result = run.makespan, run.spmd.makespan, run.result
    digest = hashlib.sha256(np.ascontiguousarray(result).tobytes()).hexdigest()[:16]
    return [repr(makespan), repr(engine), digest]


@pytest.mark.parametrize("variant", sorted(PIN_VARIANTS))
def test_charging_pins_unchanged(variant):
    pins = json.loads(PINS_PATH.read_text())[variant]
    cases = list(pin_cases(variant))
    assert len(pins) == len(cases)
    drift = {}
    for case in cases:
        got = pin_entry(variant, *case)
        if got != pins[pin_key(*case)]:
            drift[pin_key(*case)] = (pins[pin_key(*case)], got)
    assert not drift, drift
