"""Direct per-layer probes: fixed inputs, timed calls into public functions.

Every probe is independent of the workload and of ``--seed``: it answers
"what does one call into this layer cost today", so a later change to that
layer can be read here first and in the end-to-end metrics second.  Times are
medians of repeated calls; counts are exact.
"""

from __future__ import annotations

import os
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Callable

from repro.campaign import CampaignSpec
from repro.cluster.presets import ohio_cluster
from repro.data.points import clear_points_cache, clustered_points
from repro.serve import JobScheduler, JobSpec, ResultCache, ResultStore, execute_job
from repro.sim.engine import spmd_run

import harness
import workloads as wl

LOSSY_HEAT = {
    "app": "heat3d",
    "nodes": 4,
    "params": {"simulated_steps": 6},
    "options": {"reliable": True},
    "fault_plan": {
        "seed": 7,
        "rules": [{"drop_prob": 0.05, "dup_prob": 0.02, "delay_prob": 0.05, "max_delay": 1e-4}],
    },
}


def median_time(fn: Callable[[], Any], calls: int, *, warm: int = 1) -> float:
    """Median seconds of ``calls`` timed calls (after ``warm`` untimed ones)."""
    for _ in range(warm):
        fn()
    samples = []
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def job_time(doc: dict, calls: int = 5) -> float:
    """Median host seconds of ``execute_job`` on a fixed spec."""
    spec = JobSpec.from_dict(doc)
    return median_time(lambda: execute_job(spec), calls)


def per_step(doc: dict, field: str, few: int, many: int, calls: int = 5) -> float:
    """Host seconds per step: the difference of two step counts, which
    cancels the job's set-up."""

    def with_steps(n: int) -> dict:
        return {**doc, "params": {**doc.get("params", {}), field: n}}

    return (job_time(with_steps(many), calls) - job_time(with_steps(few), calls)) / (
        many - few
    )


def spec_probes() -> dict[str, float]:
    plain = {"app": "heat3d", "nodes": 4, "params": {"seed": 3}}
    spec = JobSpec.from_dict(plain)
    lossy = JobSpec.from_dict(LOSSY_HEAT)
    campaign = CampaignSpec.from_dict(wl.campaign_doc("probe", 0))
    return {
        "serve.spec.validate_us": median_time(lambda: JobSpec.from_dict(plain), 200) * 1e6,
        "serve.spec.hash_us": median_time(spec.content_hash, 200) * 1e6,
        "serve.spec.hash_faultplan_us": median_time(lossy.content_hash, 200) * 1e6,
        "campaign.expand_us_per_point": median_time(campaign.expand, 30)
        * 1e6
        / wl.CAMPAIGN_POINTS,
    }


def cache_probes(tmp: Path) -> dict[str, float]:
    payload = execute_job(JobSpec.from_dict({"app": "heat3d", "nodes": 2}))
    keys = [f"{i:064x}" for i in range(256)]
    cache = ResultCache(128)
    store = ResultStore(tmp / "probe-store")
    it = iter(keys)
    put_us = median_time(lambda: cache.put(next(it), payload), 100) * 1e6
    get_us = median_time(lambda: cache.get(keys[100]), 200) * 1e6
    it = iter(keys)
    store_put = median_time(lambda: store.put(next(it), payload), 40) * 1e3
    it = iter(keys)
    store_get = median_time(lambda: store.get(next(it)), 40) * 1e3
    return {
        "serve.cache.put_us": put_us,
        "serve.cache.get_hit_us": get_us,
        "serve.store.put_ms": store_put,
        "serve.store.get_ms": store_get,
    }


def scheduler_probe() -> dict[str, float]:
    """submit -> wait through a ``JobScheduler`` whose executor does nothing."""
    scheduler = JobScheduler(lambda spec: {"makespan": 0.0}, rank_budget=64)
    seeds = iter(range(10_000))

    def one() -> None:
        spec = JobSpec(app="heat3d", nodes=2, params={"seed": next(seeds)})
        scheduler.wait(scheduler.submit(spec).id, timeout=30.0)

    try:
        return {"serve.sched.noop_job_ms": median_time(one, 60) * 1e3}
    finally:
        scheduler.shutdown()


def sim_probes() -> dict[str, float]:
    out = {}
    for ranks, calls in ((4, 60), (64, 30), (384, 12)):
        cluster = ohio_cluster(ranks)
        seconds = median_time(lambda: spmd_run(lambda ctx: None, cluster), calls)
        out[f"sim.spmd_empty_us_per_rank_{ranks}"] = seconds * 1e6 / ranks
    narrow = job_time({"app": "heat3d", "nodes": 2, "mix": "cpu"})
    wide = job_time({"app": "heat3d", "nodes": 64, "mix": "cpu"})
    out["sim.job_cost_ratio_2_vs_64"] = narrow / wide
    return out


def procpool_probe() -> dict[str, float]:
    """Process backend vs threads on one wide job (informational).

    Runs in a process group of its own: the multiprocessing forkserver and
    resource tracker outlive ``shutdown_pool`` and must not outlive the run.
    Reads 0 when the process backend is absent, so that deleting it later
    cannot fail the benchmark.
    """
    cpus = ",".join(map(str, harness.HOST_CPUS))
    ratio = float(
        harness.run_in_group([sys.executable, str(Path(__file__).resolve()), cpus])
    )
    return {"sim.procpool_vs_threads_ratio": ratio}


def _procpool_ratio() -> float:
    try:
        from repro.sim.procpool import shutdown_pool
    except ImportError:
        return 0.0
    doc = {"app": "heat3d", "nodes": 64, "mix": "cpu"}
    try:
        procs = job_time({**doc, "backend": "processes", "workers": 2}, 2)
    finally:
        shutdown_pool()
    return procs / job_time({**doc, "backend": "threads"}, 2)


def comm_probes() -> dict[str, float]:
    n_msgs, n_reduce, reduce_ranks = 1000, 20, 64

    def pingpong(ctx):
        peer = 1 - ctx.rank
        t0 = time.perf_counter()
        for i in range(n_msgs):
            if ctx.rank == 0:
                ctx.comm.send(i, peer, tag=1)
                ctx.comm.recv(source=peer, tag=2)
            else:
                ctx.comm.send(ctx.comm.recv(source=peer, tag=1), peer, tag=2)
        return time.perf_counter() - t0

    def allreduce(ctx):
        t0 = time.perf_counter()
        for _ in range(n_reduce):
            ctx.comm.allreduce(1.0)
        return time.perf_counter() - t0

    pair = ohio_cluster(1)
    pp = statistics.median(
        max(spmd_run(pingpong, pair, ranks_per_node=2).values) for _ in range(3)
    )
    wide = ohio_cluster(reduce_ranks)
    ar = statistics.median(max(spmd_run(allreduce, wide).values) for _ in range(3))

    steps = 3
    traced = execute_job(
        JobSpec(app="heat3d", nodes=4, params={"simulated_steps": steps}, trace=True)
    )
    counters = traced["report"]["counters"]
    return {
        "comm.pingpong_us_per_msg": pp * 1e6 / (2 * n_msgs),
        "comm.allreduce_us_per_rank_64": ar * 1e6 / (n_reduce * reduce_ranks),
        "comm.halo_msgs_per_step": counters["halo.msgs"] / steps,
        "comm.bytes_per_step": counters["comm.bytes_sent"] / steps,
    }


def core_probes() -> dict[str, float]:
    kmeans = {"app": "kmeans", "nodes": 1, "params": {"functional_points": 60_000}}
    return {
        "core.stencil.step_us": per_step(
            {"app": "heat3d", "nodes": 1}, "simulated_steps", 3, 13
        )
        * 1e6,
        "core.stencil_reduce.iter_us": per_step(
            {"app": "jacobi2d", "nodes": 1, "mix": "cpu", "params": {"tol": 1e-12}},
            "max_iters",
            10,
            60,
        )
        * 1e6,
        "core.irregular.step_us": per_step(
            {"app": "moldyn", "nodes": 1}, "simulated_steps", 3, 9
        )
        * 1e6,
        "core.generalized.emit_ns_per_elem": per_step(kmeans, "iterations", 1, 3)
        * 1e9
        / 60_000,
    }


def data_probes() -> dict[str, float]:
    seeds = iter(range(1000, 2000))

    def cold() -> None:
        clear_points_cache()
        clustered_points(60_000, 40, 3, seed=next(seeds))

    cold_ms = median_time(cold, 7) * 1e3
    clustered_points(60_000, 40, 3, seed=1)
    hit_us = median_time(lambda: clustered_points(60_000, 40, 3, seed=1), 200) * 1e6
    clear_points_cache()
    return {"data.points_cold_ms": cold_ms, "data.points_memo_hit_us": hit_us}


def fault_and_obs_probes() -> dict[str, float]:
    plain = {**LOSSY_HEAT, "options": {}, "fault_plan": None}
    base = job_time(plain, 7)
    traced = execute_job(JobSpec.from_dict({**LOSSY_HEAT, "trace": True}))
    return {
        "faults.reliable_overhead_ratio": job_time(LOSSY_HEAT, 7) / base,
        "faults.retransmits": traced["report"]["counters"].get("comm.retransmits", 0),
        "obs.trace_overhead_ratio": job_time({**plain, "trace": True}, 7) / base,
    }


def server_probes(client, ops: list) -> dict[str, float]:
    """Probes that need the live server child; run at the end of a round."""
    out = {"serve.http.healthz_ms": median_time(client.healthy, 40) * 1e3}
    answered = ops[-1][1]  # the round's last op: still in the result cache
    if "axes" in answered:  # a campaign document: take one of its points
        answered = CampaignSpec.from_dict(answered).expand()[0].to_dict()
    out["serve.http.cached_submit_ms"] = (
        median_time(lambda: client.submit(answered), 40) * 1e3
    )
    return out


def run_all() -> dict[str, float]:
    """Every direct probe; about ten seconds on the reference host."""
    out: dict[str, float] = {}
    harness.TMP_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=harness.TMP_ROOT) as tmp:
        out.update(cache_probes(Path(tmp)))
    for probe in (
        spec_probes,
        scheduler_probe,
        sim_probes,
        procpool_probe,
        comm_probes,
        core_probes,
        data_probes,
        fault_and_obs_probes,
    ):
        out.update(probe())
    return out


if __name__ == "__main__":
    # Worker processes need the CPUs the pinned harness gave up.
    os.sched_setaffinity(0, {int(cpu) for cpu in sys.argv[1].split(",")})
    print(_procpool_ratio())
