"""Hand-written MPI Kmeans (one rank per core), after the Northwestern kernel.

Structure of the original: every process owns an equal slice of the
points; each iteration computes nearest centers and partial sums locally,
then calls ``MPI_Allreduce`` on the (k x (dims+1)) accumulator.  No
threading, no accelerators, blocking collectives.
"""

from __future__ import annotations

import numpy as np

from repro.apps import kmeans as fw_kmeans
from repro.apps.common import AppRun, check_run, sequential_time, single_core_spec
from repro.cluster.specs import ClusterSpec
from repro.device.cpu import CPUDevice
from repro.sim.engine import RankContext, spmd_run


def rank_program(ctx: RankContext, config: fw_kmeans.KmeansConfig) -> np.ndarray:
    """One MPI rank: local assignment + allreduce, one core per rank."""
    # -- input loading: every rank reads its own contiguous slice ---------
    points, _ = fw_kmeans.clustered_points(
        config.functional_points, config.k, config.dims, seed=config.seed
    )
    n = len(points)
    base, extra = divmod(n, ctx.size)
    lo = ctx.rank * base + min(ctx.rank, extra)
    hi = lo + base + (1 if ctx.rank < extra else 0)
    local = points[lo:hi].astype(np.float64)
    centers = points[: config.k].astype(np.float64)

    # -- cost model: a plain sequential loop on this rank's core ----------
    core = CPUDevice(single_core_spec(ctx.node.cpu))
    work = fw_kmeans.base_work(config)
    elem_time = core.core_elem_time(work, localized=True, framework=False)
    model_local = config.n_points // ctx.size

    for _ in range(config.iterations):
        # assignment + accumulation (the hand-written inner loop)
        diff = local[:, None, :] - centers[None, :, :]
        d2 = np.einsum("nkd,nkd->nk", diff, diff)
        keys = np.argmin(d2, axis=1)
        acc = np.zeros((config.k, config.dims + 1))
        np.add.at(acc[:, : config.dims], keys, local)
        np.add.at(acc[:, config.dims], keys, 1.0)
        ctx.clock.advance(model_local * elem_time)

        total = ctx.comm.allreduce(acc, "sum")
        counts = total[:, config.dims :]
        centers = np.where(
            counts > 0, total[:, : config.dims] / np.maximum(counts, 1.0), centers
        )
    return centers


def run(cluster: ClusterSpec, config: fw_kmeans.KmeansConfig, mix: str = "cpu", **kw) -> AppRun:
    """Run the per-core MPI baseline over ``cluster`` (``mix`` is ``"cpu"`` only)."""
    ppn = check_run("kmeans-mpi", cluster, mix)
    result = spmd_run(
        rank_program, cluster,
        ranks_per_node=ppn,
        args=(config,),
        **kw,
    )
    seq = sequential_time(
        fw_kmeans.base_work(config), config.n_points, cluster.node, config.iterations
    )
    return AppRun(
        app="kmeans-mpi",
        mix=f"mpi-{ppn}ppn",
        nodes=cluster.num_nodes,
        makespan=result.makespan,
        seq_time=seq,
        result=result.values[0],
        spmd=result,
    )
