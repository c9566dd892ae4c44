#!/usr/bin/env python
"""Wall-clock performance harness for the functional layer.

Times how long the *host* (wall-clock seconds, ``time.perf_counter``)
takes to execute the five paper apps' functional runs — as opposed to the
virtual (simulated) time every other benchmark reports.  The two are
strictly separated: optimizations measured here must leave every virtual
makespan bit-for-bit unchanged (asserted by recording both).

Outputs a machine-readable JSON record (``BENCH_wallclock.json`` at the
repo root holds the committed trajectory) so per-PR regressions are
visible::

    PYTHONPATH=src python benchmarks/bench_wallclock.py --mode smoke
    PYTHONPATH=src python benchmarks/bench_wallclock.py --mode full --out BENCH_wallclock.json

Each timed case reports:

- ``wall_s``     — best-of-N wall seconds for the whole functional run
- ``makespan``   — the virtual makespan of the same run (regression canary)

plus micro-benchmarks isolating the paths this harness exists to watch:
the stencil step loop (Sobel/Heat3D), the fused stencil+reduce
convergence loop (Jacobi2D), the temporal-blocking A/B on the
latency-dominated preset (``stencil_timeblock``, monotonicity asserted),
the irregular-reduction step loop
(Moldyn/MiniMD), the Kmeans emit path, the comm-fabric ping-pong hot
path, the 384-rank per-core MPI baseline (``baseline_ranks``), inline
vs. job-worker execution (``job_workers``, makespans asserted exact), the
campaign engine A/B (``campaign_throughput``: batched sweep vs sequential
per-job execution, with a zero-execution warm-re-run gate), and
``cold_start`` (fresh interpreter -> first heat3d result; the import
footprint is gated exactly, the wall time reported as median + spread).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.apps import heat3d, kmeans, minimd, moldyn, sobel
from repro.apps.extra import jacobi2d
from repro.cluster.presets import ohio_cluster

REPO_ROOT = Path(__file__).resolve().parent.parent


def _configs(mode: str) -> dict:
    """Workload sizes per mode; smoke keeps CI latency low."""
    if mode == "smoke":
        return {
            "repeats": 2,
            "step_repeats": 3,
            "kmeans": kmeans.KmeansConfig(functional_points=60_000, iterations=1),
            "sobel": sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=3),
            "heat3d": heat3d.Heat3DConfig(functional_shape=(36, 36, 36), simulated_steps=3),
            "minimd": minimd.MiniMDConfig(functional_cells=8, simulated_steps=3),
            "moldyn": moldyn.MoldynConfig(functional_nodes=4_000, simulated_steps=3),
            # Step-loop microbenches run more steps than the app defaults so
            # the signal dominates thread-scheduling jitter.
            "sobel_steps": sobel.SobelConfig(functional_shape=(384, 384), simulated_steps=8),
            "heat3d_steps": heat3d.Heat3DConfig(
                functional_shape=(36, 36, 36), simulated_steps=8
            ),
            # The IR step cases keep the apps' default mesh sizes even in
            # smoke mode: on the reduced meshes the loop is dominated by
            # the per-step rank rendezvous, not the reduction path this
            # case exists to watch (fewer repeats keep CI latency flat).
            "moldyn_steps": moldyn.MoldynConfig(simulated_steps=8),
            "minimd_steps": minimd.MiniMDConfig(simulated_steps=8),
            # Convergence loop: small grid + loose tol keeps the iteration
            # count (and CI latency) modest while still exercising the
            # fused-residual / speculative-halo path for dozens of steps.
            "stencil_converge": jacobi2d.Jacobi2DConfig(
                shape=(32, 32), tol=1e-3, max_iters=200
            ),
            # Temporal blocking: fixed sweep count (tol below reach) so
            # every k runs identical math; the latency-heavy preset makes
            # the per-message alpha the dominant term k amortizes.
            "stencil_timeblock": jacobi2d.Jacobi2DConfig(
                shape=(48, 48), tol=1e-12, max_iters=24
            ),
            "ir_step_repeats": 2,
            "nodes": 4,
            # Comm-fabric cases: a 2-rank ping-pong isolating the
            # send/match/hand-over hot path, and the paper-scale 384-rank
            # per-core MPI baseline that stresses the mailboxes, the
            # rank-thread pool, and dataset memoization together.
            "pingpong_msgs": 2_000,
            "baseline_ranks_nodes": 32,
            "baseline_ranks": kmeans.KmeansConfig(functional_points=96_000, iterations=2),
            # Campaign A/B: small per-point workloads — the case watches the
            # engine's dispatch/batching overhead, not the kernels.
            "campaign_heat3d": heat3d.Heat3DConfig(
                functional_shape=(24, 24, 24), simulated_steps=2
            ),
            "campaign_kmeans": kmeans.KmeansConfig(functional_points=20_000, iterations=1),
        }
    return {
        "repeats": 3,
        "step_repeats": 5,
        "ir_step_repeats": 3,
        "kmeans": kmeans.KmeansConfig(functional_points=200_000, iterations=1),
        "sobel": sobel.SobelConfig(),
        "heat3d": heat3d.Heat3DConfig(),
        "minimd": minimd.MiniMDConfig(),
        "moldyn": moldyn.MoldynConfig(),
        "sobel_steps": sobel.SobelConfig(simulated_steps=15),
        "heat3d_steps": heat3d.Heat3DConfig(simulated_steps=20),
        "moldyn_steps": moldyn.MoldynConfig(simulated_steps=10),
        "minimd_steps": minimd.MiniMDConfig(simulated_steps=10),
        "stencil_converge": jacobi2d.Jacobi2DConfig(),
        "stencil_timeblock": jacobi2d.Jacobi2DConfig(
            shape=(64, 64), tol=1e-12, max_iters=48
        ),
        "nodes": 4,
        "pingpong_msgs": 5_000,
        "baseline_ranks_nodes": 32,
        "baseline_ranks": kmeans.KmeansConfig(functional_points=96_000, iterations=3),
        "campaign_heat3d": heat3d.Heat3DConfig(
            functional_shape=(36, 36, 36), simulated_steps=3
        ),
        "campaign_kmeans": kmeans.KmeansConfig(functional_points=60_000, iterations=1),
    }


def _best_of(repeats: int, fn):
    """Run ``fn`` ``repeats`` times; return (best wall seconds, last result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_apps(cfg: dict) -> dict:
    """Time the five paper apps' full functional executions."""
    cluster = ohio_cluster(cfg["nodes"])
    cases = {}
    for name, mod in [
        ("kmeans", kmeans),
        ("sobel", sobel),
        ("heat3d", heat3d),
        ("minimd", minimd),
        ("moldyn", moldyn),
    ]:
        wall, run = _best_of(cfg["repeats"], lambda m=mod, n=name: m.run(cluster, cfg[n]))
        cases[name] = {"wall_s": round(wall, 4), "makespan": run.makespan}
    return cases


def bench_stencil_steps(cfg: dict) -> dict:
    """Isolate the stencil step loop: wall seconds per Sobel/Heat3D step."""
    from repro.core.env import RuntimeEnv
    from repro.sim.engine import spmd_run

    out = {}
    for name, mod, config in [
        ("sobel_steps", sobel, cfg["sobel_steps"]),
        ("heat3d_steps", heat3d, cfg["heat3d_steps"]),
    ]:
        def prog(ctx, mod=mod, config=config):
            env = RuntimeEnv(ctx, "cpu+2gpu")
            st = env.get_stencil()
            parameter = None if mod is sobel else heat3d.ALPHA
            st.configure(
                mod.make_kernel(ctx.node),
                config.functional_shape,
                model_shape=config.shape,
                parameter=parameter,
            )
            if mod is sobel:
                from repro.data.grids import synthetic_image

                st.set_global_grid(synthetic_image(config.functional_shape, seed=config.seed))
            else:
                from repro.data.grids import heat3d_initial

                st.set_global_grid(heat3d_initial(config.functional_shape, seed=config.seed))
            t0 = time.perf_counter()
            st.run(config.simulated_steps)
            return time.perf_counter() - t0, ctx.clock.now

        cluster = ohio_cluster(cfg["nodes"])
        step_wall = float("inf")
        makespan = None
        for _ in range(cfg["step_repeats"]):
            res = spmd_run(prog, cluster)
            step_wall = min(step_wall, max(v[0] for v in res.values))
            makespan = res.makespan
        out[name] = {
            "wall_s": round(step_wall, 4),
            "makespan": makespan,
        }
    return out


def bench_stencil_converge(cfg: dict) -> dict:
    """Isolate the fused stencil+reduce convergence loop (Jacobi2D).

    Watches the ``run_until`` hot path: the in-sweep residual, the
    speculative next-step halo exchange, and the one message per
    neighbour face.  The makespan pins the overlap accounting; the iteration
    count is recorded so a convergence change (different stop point) is
    distinguishable from a pure wall-clock regression.
    """
    cluster = ohio_cluster(cfg["nodes"])
    config = cfg["stencil_converge"]
    wall, run = _best_of(
        cfg["step_repeats"], lambda: jacobi2d.run(cluster, config, mix="cpu+2gpu")
    )
    return {
        "stencil_converge": {
            "wall_s": round(wall, 4),
            "makespan": run.makespan,
            "iterations": run.spmd.values[0]["iterations"],
        }
    }


def bench_stencil_timeblock(cfg: dict) -> dict:
    """Temporal-blocking A/B on the latency-dominated preset (Jacobi2D).

    Interleaved best-of repeats over k in {1, 2, 4} so machine noise hits
    every variant alike.  Asserts the virtual-makespan monotonicity the
    feature exists for — each doubling of k must strictly shrink the
    latency-preset makespan — and records the k=4 makespan as the
    bit-identity canary (``makespan``) with the k=1/k=2 spans alongside.
    """
    from repro.cluster.presets import latency_cluster

    cluster = latency_cluster(2)
    config = cfg["stencil_timeblock"]
    walls = {1: float("inf"), 2: float("inf"), 4: float("inf")}
    spans: dict[int, float] = {}
    for _ in range(cfg["step_repeats"]):
        for k in (1, 2, 4):
            t0 = time.perf_counter()
            run = jacobi2d.run(cluster, config, mix="cpu", time_block=k)
            walls[k] = min(walls[k], time.perf_counter() - t0)
            spans[k] = run.makespan
    if not spans[4] < spans[2] < spans[1]:
        raise AssertionError(
            f"temporal blocking must be monotone on the latency preset: "
            f"k=1 {spans[1]!r}, k=2 {spans[2]!r}, k=4 {spans[4]!r}"
        )
    return {
        "stencil_timeblock": {
            "wall_s": round(walls[4], 4),
            "makespan": spans[4],
            "makespan_k1": spans[1],
            "makespan_k2": spans[2],
        }
    }


def bench_ir_steps(cfg: dict) -> dict:
    """Isolate the irregular-reduction step loop (Moldyn/MiniMD).

    The MD rank programs time their own ``start`` / ``get_local_reduction``
    / ``update_nodedata`` loop (``wall_steps`` in their result dicts), so
    the number excludes mesh generation and runtime setup and moves only
    when the IR hot path changes.  Reports the slowest rank's loop, best
    over repeats, plus the run's virtual makespan as the regression canary.
    """
    cluster = ohio_cluster(cfg["nodes"])
    out = {}
    for name, mod in [("moldyn_steps", moldyn), ("minimd_steps", minimd)]:
        step_wall = float("inf")
        makespan = None
        for _ in range(cfg["ir_step_repeats"]):
            run = mod.run(cluster, cfg[name])
            step_wall = min(step_wall, max(v["wall_steps"] for v in run.result))
            makespan = run.makespan
        out[name] = {"wall_s": round(step_wall, 4), "makespan": makespan}
    return out


def bench_kmeans_emit(cfg: dict) -> dict:
    """Isolate the Kmeans emit path: the batched kernel over all chunks.

    Replays exactly the chunk sizes the GR runtime would schedule, without
    the SPMD machinery, so this number moves only when the emit math or the
    reduction-object insert path changes.
    """
    from repro.core.reduction_object import DenseReductionObject
    from repro.data.points import clustered_points

    config = cfg["kmeans"]
    points, _ = clustered_points(config.functional_points, config.k, config.dims, seed=config.seed)
    centers = points[: config.k].astype(np.float64)
    emit = kmeans.make_emit(config)
    n = len(points)
    chunk = max(16, n // 512)

    def run_emit():
        obj = DenseReductionObject(config.k, config.dims + 1, "sum", np.float64)
        for start in range(0, n, chunk):
            emit(obj, points[start : start + chunk], start, centers)
        return obj.as_array().copy()

    wall, values = _best_of(cfg["repeats"], run_emit)
    return {
        "kmeans_emit": {
            "wall_s": round(wall, 4),
            "checksum": float(np.sum(values)),
        }
    }


def bench_fabric_comm(cfg: dict) -> dict:
    """Comm-fabric hot-path cases.

    ``fabric_pingpong`` bounces ``pingpong_msgs`` round trips between two
    ranks on one node, so the number moves only with the per-message cost
    of ``transmit``/``match`` (index probe, park, baton hand-over): every
    rendezvous is one thread handoff.

    ``baseline_ranks`` runs the paper-scale hand-written MPI Kmeans —
    32 nodes x 12 ranks per node = 384 rank threads — end to end: O(1)
    specific-source matching, pooled rank threads, and memoized input
    generation all land here.  Both report the virtual makespan as the
    bit-identity canary.
    """
    from repro.apps.baselines import mpi_kmeans
    from repro.sim.engine import spmd_run

    n_msgs = cfg["pingpong_msgs"]

    def pingpong(ctx, n=n_msgs):
        peer = 1 - ctx.rank
        t0 = time.perf_counter()
        if ctx.rank == 0:
            for i in range(n):
                ctx.comm.send(i, peer, tag=1)
                ctx.comm.recv(source=peer, tag=2)
        else:
            for _ in range(n):
                val = ctx.comm.recv(source=peer, tag=1)
                ctx.comm.send(val, peer, tag=2)
        return time.perf_counter() - t0

    cluster = ohio_cluster(1)
    wall = float("inf")
    makespan = None
    for _ in range(cfg["repeats"]):
        res = spmd_run(pingpong, cluster, ranks_per_node=2)
        wall = min(wall, max(res.values))
        makespan = res.makespan
    out = {"fabric_pingpong": {"wall_s": round(wall, 4), "makespan": makespan}}

    # Best-of-3 minimum: a ~1 s 384-thread run sees far more scheduler
    # noise than the sub-100 ms cases, and the CI gate compares walls.
    ranks_cluster = ohio_cluster(cfg["baseline_ranks_nodes"])
    b_wall, b_run = _best_of(
        max(cfg["repeats"], 3), lambda: mpi_kmeans.run(ranks_cluster, cfg["baseline_ranks"])
    )
    out["baseline_ranks"] = {
        "wall_s": round(b_wall, 4),
        "makespan": b_run.makespan,
        "ranks": ranks_cluster.num_nodes * ranks_cluster.node.cpu.cores,
    }
    return out


def _campaign_app_params(cfg: dict) -> dict:
    """Small per-point workloads: the campaign cases watch dispatch, not kernels."""
    heat, km = cfg["campaign_heat3d"], cfg["campaign_kmeans"]
    return {
        "heat3d": {
            "functional_shape": list(heat.functional_shape),
            "simulated_steps": heat.simulated_steps,
        },
        "kmeans": {"functional_points": km.functional_points, "iterations": km.iterations},
    }


def bench_job_workers(cfg: dict) -> dict:
    """Inline vs. job workers: the 24-point campaign and one heat3d@64 job.

    ``backend="processes"`` runs a whole job in a worker process
    (:mod:`repro.serve.jobpool`) — the same loop in another process — so
    the makespans must be exactly the inline ones; that is asserted here.
    Wall seconds are recorded, interleaved best-of-3, and not gated.
    """
    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.serve import JobSpec, execute_job
    from repro.serve.jobpool import shutdown_pool
    from repro.serve.spec import usable_cpus

    def campaign(backend: str | None) -> CampaignSpec:
        return CampaignSpec.from_dict(
            {
                "name": "job-workers",
                "axes": {"app": ["heat3d", "kmeans"], "nodes": [1, 2], "seed": list(range(6))},
                "app_params": _campaign_app_params(cfg),
                "backend": backend,
            }
        )

    wide = {"app": "heat3d", "nodes": 64, "mix": "cpu"}
    arms = {None: "inline", "processes": "workers"}
    campaign_wall = dict.fromkeys(arms, float("inf"))
    job_wall = dict.fromkeys(arms, float("inf"))
    makespans = None
    try:
        for _ in range(3):
            for backend in arms:
                t0 = time.perf_counter()
                run = CampaignRunner(campaign(backend), store=None).run()
                campaign_wall[backend] = min(campaign_wall[backend], time.perf_counter() - t0)
                if not run.ok:
                    raise AssertionError(f"campaign arm failed: {run.failures()}")
                t0 = time.perf_counter()
                payload = execute_job(JobSpec.from_dict({**wide, "backend": backend}))
                job_wall[backend] = min(job_wall[backend], time.perf_counter() - t0)
                got = [row["makespan"] for row in run.rows] + [payload["makespan"]]
                if makespans is None:
                    makespans = got
                elif repr(got) != repr(makespans):
                    raise AssertionError(
                        f"a job worker changed a virtual makespan: "
                        f"{makespans!r} vs {got!r} ({arms[backend]})"
                    )
    finally:
        shutdown_pool()
    case = {"campaign_points": len(makespans) - 1, "cores": usable_cpus(), "makespan": makespans}
    for backend, arm in arms.items():
        case[f"campaign_{arm}_wall_s"] = round(campaign_wall[backend], 4)
        case[f"job_{arm}_wall_s"] = round(job_wall[backend], 4)
    return {"job_workers": case}


def bench_campaign_throughput(cfg: dict) -> dict:
    """A/B the campaign engine against sequential per-job execution.

    The batched arm runs the whole sweep through
    :class:`~repro.campaign.runner.CampaignRunner` (one ``submit_many``,
    widest-first ordering, one in-process job at a time off the scheduler's
    queue, one generation per shared dataset); the sequential arm executes the same
    specs one ``execute_job`` at a time — the pre-campaign workflow.
    Interleaved best-of-3 so machine noise hits both arms alike.

    Two hard assertions, host-independent:

    - every per-point virtual makespan is bit-identical across arms (the
      campaign engine must never touch simulated physics), and
    - a warm re-run over a fresh persistent store executes **zero** jobs
      (``warm_rerun_executed``, gated at 0 in :func:`compare`).

    The batched/sequential ratio is recorded and, when below 1, reported
    as ``NOT SHOWN`` without failing: in-process jobs share one GIL, so the
    scheduler runs them one at a time and the batched arm has no wall-clock
    win to show — it is the sequential arm plus a dispatcher
    (``job_workers`` records the arm that can win).
    """
    import tempfile

    from repro.campaign import CampaignRunner, CampaignSpec
    from repro.serve import execute_job
    from repro.serve.spec import usable_cpus

    campaign = CampaignSpec.from_dict(
        {
            "name": "bench",
            "axes": {
                "app": ["heat3d", "kmeans"],
                "preset": "laptop",
                "mix": "cpu",
                "nodes": [1, 2],
                "seed": [0, 1],
            },
            "app_params": _campaign_app_params(cfg),
            "backend": None,  # identical engine path in both arms
        }
    )
    specs = campaign.expand()
    cores = usable_cpus()

    seq_wall = bat_wall = float("inf")
    seq_spans = bat_spans = None
    for _ in range(3):
        t0 = time.perf_counter()
        seq_results = [execute_job(spec) for spec in specs]
        seq_wall = min(seq_wall, time.perf_counter() - t0)
        seq_spans = [r["makespan"] for r in seq_results]
        t0 = time.perf_counter()
        run = CampaignRunner(campaign, store=None, rank_budget=64).run()
        bat_wall = min(bat_wall, time.perf_counter() - t0)
        if not run.ok:
            raise AssertionError(f"campaign arm failed: {run.failures()}")
        bat_spans = [row["makespan"] for row in run.rows]
    if repr(seq_spans) != repr(bat_spans):
        raise AssertionError(
            f"campaign makespans drifted from direct execution: "
            f"{seq_spans!r} vs {bat_spans!r}"
        )

    # Persistence phase: cold fill then warm re-run over one store.
    with tempfile.TemporaryDirectory() as store:
        cold = CampaignRunner(campaign, store=store, rank_budget=64).run()
        warm = CampaignRunner(campaign, store=store, rank_budget=64).run()
    if cold.stats["executed"] != len(specs):
        raise AssertionError(
            f"cold campaign executed {cold.stats['executed']} of {len(specs)}"
        )
    return {
        "campaign_throughput": {
            "batched_wall_s": round(bat_wall, 4),
            "sequential_wall_s": round(seq_wall, 4),
            "speedup": round(seq_wall / max(bat_wall, 1e-9), 4),
            "jobs": len(specs),
            "cores": cores,
            "warm_rerun_executed": warm.stats["executed"],
            "warm_store_hits": warm.stats["store_hits"],
            "makespan": bat_spans,
        }
    }


def bench_obs_overhead(cfg: dict) -> dict:
    """Instrumented vs uninstrumented wall clock for one functional run.

    The observability layer must be near-free: runs measure heat3d with and
    without ``trace=True`` (spans, counters and timeline histories)
    *interleaved* (so machine noise hits both alike), report best-of walls for each, and
    require the virtual makespans to be bit-identical.  CI gates
    ``overhead_ratio`` at 1 + _OBS_OVERHEAD_THRESHOLD.

    Runs a single rank (the engine's inline path) on a larger grid than the
    other smoke cases: multi-rank runs carry thread-rendezvous jitter far
    above 5%, and a sub-10ms run sits in the timer noise floor — either
    would make a 5% gate flaky no matter how the real overhead moved.
    """
    cluster = ohio_cluster(1)
    config = heat3d.Heat3DConfig(functional_shape=(96, 96, 96), simulated_steps=8)
    plain_wall = inst_wall = float("inf")
    plain_run = inst_run = None
    for _ in range(max(cfg["repeats"], 7)):
        t0 = time.perf_counter()
        plain_run = heat3d.run(cluster, config)
        plain_wall = min(plain_wall, time.perf_counter() - t0)
        t0 = time.perf_counter()
        inst_run = heat3d.run(cluster, config, trace=True)
        inst_wall = min(inst_wall, time.perf_counter() - t0)
    if inst_run.makespan != plain_run.makespan:
        raise AssertionError(
            f"instrumentation changed the virtual makespan: "
            f"{plain_run.makespan!r} -> {inst_run.makespan!r}"
        )
    return {
        "obs_overhead": {
            "wall_s": round(inst_wall, 4),
            "base_wall_s": round(plain_wall, 4),
            "overhead_ratio": round(inst_wall / max(plain_wall, 1e-9), 4),
            "makespan": inst_run.makespan,
        }
    }


#: What a fresh interpreter does in the ``cold_start`` case: serve one
#: quick-scale job through the service's executor, then report the import
#: footprint that left behind.
_COLD_START_JOB = """
import json, sys
from repro.serve import JobSpec, execute_job
payload = execute_job(JobSpec(app="%s", nodes=2, preset="laptop", mix="cpu"))
mods = list(sys.modules)
print(json.dumps({
    "makespan": payload["makespan"],
    "repro_modules": sum(m == "repro" or m.startswith("repro.") for m in mods),
    "modules": len(mods),
    "scipy_loaded": any(m == "scipy" or m.startswith("scipy.") for m in mods),
}))
"""


def bench_cold_start(cfg: dict) -> dict:
    """Interpreter start -> first heat3d result, in a fresh process.

    This is the cost the first job of a new server (or every ``repro run``)
    pays on top of a warm job, and almost all of it is imports.  Each repeat
    interleaves the job with a bare ``import numpy`` interpreter — the floor
    no change to this repo can move — so host noise hits both alike; walls
    are reported as median and inter-quartile spread, not gated.

    What *is* gated (:func:`compare`) are the exact facts: ``scipy`` stays
    unloaded (by the heat3d job, and by one untimed moldyn job that builds
    a neighbour list), the number of ``repro.*`` modules a heat3d job loads
    does not grow past the baseline's, and the makespan matches it.
    """
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")}

    def timed(code: str) -> tuple[float, str]:
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        return time.perf_counter() - t0, done.stdout

    job_walls, floor_walls, facts = [], [], None
    for _ in range(max(cfg["repeats"], 7)):
        floor_walls.append(timed("import numpy")[0])
        wall, out = timed(_COLD_START_JOB % "heat3d")
        job_walls.append(wall)
        facts = json.loads(out.splitlines()[-1])
    moldyn_facts = json.loads(timed(_COLD_START_JOB % "moldyn")[1].splitlines()[-1])

    def spread(walls: list[float]) -> float:
        q1, _, q3 = statistics.quantiles(walls, n=4)
        return round(q3 - q1, 4)

    return {
        "cold_start": {
            "wall_s_median": round(statistics.median(job_walls), 4),
            "wall_s_iqr": spread(job_walls),
            "numpy_floor_s_median": round(statistics.median(floor_walls), 4),
            "numpy_floor_s_iqr": spread(floor_walls),
            "repeats": len(job_walls),
            **facts,
            "scipy_loaded_after_moldyn": moldyn_facts["scipy_loaded"],
        }
    }


def collect(mode: str) -> dict:
    cfg = _configs(mode)
    record = {
        "mode": mode,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git": _git_rev(),
        "cases": {},
    }
    record["cases"].update(bench_apps(cfg))
    record["cases"].update(bench_stencil_steps(cfg))
    record["cases"].update(bench_stencil_converge(cfg))
    record["cases"].update(bench_stencil_timeblock(cfg))
    record["cases"].update(bench_ir_steps(cfg))
    record["cases"].update(bench_kmeans_emit(cfg))
    # The 5%-gated obs case runs before the 384-thread fabric cases so the
    # many-rank churn can't perturb its interleaved A/B measurement.
    record["cases"].update(bench_obs_overhead(cfg))
    record["cases"].update(bench_fabric_comm(cfg))
    record["cases"].update(bench_job_workers(cfg))
    record["cases"].update(bench_campaign_throughput(cfg))
    record["cases"].update(bench_cold_start(cfg))
    return record


def _git_rev() -> str:
    """Short HEAD revision, with a ``-dirty`` suffix for unclean trees.

    The committed baseline's ``git`` field is its provenance: it must name
    the commit whose code produced the numbers.  A record refreshed while
    the tree had uncommitted changes is stamped ``-dirty`` so the smoke
    check (:func:`compare`) rejects it as a baseline — refresh the JSON
    *after* committing the code change it measures.
    """
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        return f"{rev}-dirty" if status else rev
    except Exception:
        return "unknown"


#: Allowed instrumented-over-uninstrumented wall-clock ratio overhead.
_OBS_OVERHEAD_THRESHOLD = 0.05


def compare(record: dict, baseline_path: Path) -> int:
    """Fail (non-zero) on any exact check against the baseline record.

    Virtual makespans must match the baseline exactly — any drift means an
    optimization changed simulated physics, which is a bug regardless of
    wall-clock wins.  The ``obs_overhead`` case additionally gates the
    instrumented run at within 5% of the uninstrumented one (measured
    within this run, so the gate needs no baseline entry).  Wall seconds
    are recorded, never compared across hosts: wall claims are made as
    interleaved pairs through ``benchmarks/e2e``.
    """
    baseline = json.loads(baseline_path.read_text())
    base_cases = baseline["cases"]
    failures = []
    base_git = baseline.get("git", "unknown")
    if base_git == "unknown" or base_git.endswith("-dirty"):
        failures.append(
            f"baseline provenance: git field is {base_git!r} — the committed "
            "record must be stamped with the clean commit that produced it "
            "(refresh the JSON after committing the code change)"
        )
    over = record["cases"].get("obs_overhead")
    if over is not None and over["overhead_ratio"] > 1.0 + _OBS_OVERHEAD_THRESHOLD:
        failures.append(
            f"obs_overhead: instrumented run {over['wall_s']}s vs "
            f"{over['base_wall_s']}s uninstrumented "
            f"({over['overhead_ratio']:.3f}x, "
            f"threshold {1.0 + _OBS_OVERHEAD_THRESHOLD:.2f}x)"
        )
    camp = record["cases"].get("campaign_throughput")
    if camp is not None:
        if camp["warm_rerun_executed"] != 0:
            failures.append(
                f"campaign_throughput: warm re-run executed "
                f"{camp['warm_rerun_executed']} job(s); the persistent store "
                "must answer every repeated point"
            )
        if camp["batched_wall_s"] > camp["sequential_wall_s"]:
            # Recorded, not gated (ROADMAP aim 1): concurrent in-process
            # jobs convoy on the GIL, so the batched arm measured 0.35x-0.63x
            # on a 2-core host and 0.91x on one core.
            print(
                f"NOT SHOWN campaign_throughput: batched campaign "
                f"{camp['speedup']:.2f}x of sequential execution on a "
                f"{camp['cores']}-core host ({camp['batched_wall_s']}s vs "
                f"{camp['sequential_wall_s']}s)"
            )
    cold = record["cases"].get("cold_start")
    if cold is not None:
        if cold["scipy_loaded"]:
            failures.append("cold_start: a heat3d job imported scipy")
        if cold["scipy_loaded_after_moldyn"]:
            failures.append("cold_start: a moldyn job imported scipy")
        base_cold = base_cases.get("cold_start")
        if base_cold is not None and cold["repro_modules"] > base_cold["repro_modules"]:
            failures.append(
                f"cold_start: a heat3d job now loads {cold['repro_modules']} repro.* "
                f"modules, the baseline {base_cold['repro_modules']}; import what "
                "was added lazily or refresh the baseline row with the reason"
            )
    for name, case in record["cases"].items():
        base = base_cases.get(name)
        if base is None:
            continue
        if "makespan" in case and "makespan" in base:
            if case["makespan"] != base["makespan"]:
                failures.append(
                    f"{name}: virtual makespan drifted "
                    f"{base['makespan']!r} -> {case['makespan']!r}"
                )
    for f in failures:
        print(f"FAIL {f}")
    return 1 if failures else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--mode", choices=["smoke", "full"], default="smoke")
    ap.add_argument("--out", type=Path, default=None, help="write the JSON record here")
    ap.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="check makespans and the other exact gates against this record",
    )
    args = ap.parse_args()

    record = collect(args.mode)
    print(json.dumps(record, indent=2))
    if args.out:
        args.out.write_text(json.dumps(record, indent=2) + "\n")
    if args.baseline:
        return compare(record, args.baseline)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
