"""Hand-written single-GPU CUDA Kmeans, after the Rodinia benchmark.

The Fig. 8 comparator: one GPU, input streamed in chunks over two streams,
shared-memory accumulation — structurally the same pipeline the framework
builds, minus the framework's per-point bookkeeping
(``runtime_overhead_flops``), the source of the gap the paper observes
(ledger row ``fig8.kmeans``).
"""

from __future__ import annotations

import numpy as np

from repro.apps import kmeans as fw_kmeans
from repro.apps.common import AppRun, check_run, sequential_time
from repro.cluster.specs import ClusterSpec
from repro.device.gpu import GPUDevice
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ConfigurationError


def rank_program(ctx: RankContext, config: fw_kmeans.KmeansConfig) -> np.ndarray:
    if not ctx.node.gpus:
        raise ConfigurationError("cuda_kmeans needs a GPU")
    gpu = GPUDevice(ctx.node.gpus[0])
    work = fw_kmeans.make_work(config, ctx.node)

    points, _ = fw_kmeans.clustered_points(
        config.functional_points, config.k, config.dims, seed=config.seed
    )
    centers = points[: config.k].astype(np.float64)
    scale = config.n_points / len(points)
    # Rodinia copies large blocks; 16 chunks keeps fixed costs negligible.
    chunk = max(16, len(points) // 16)

    emit = fw_kmeans.make_emit(config)
    from repro.core.reduction_object import DenseReductionObject

    for _ in range(config.iterations):
        obj = DenseReductionObject(config.k, config.dims + 1, "sum")
        ready = ctx.clock.now
        for start in range(0, len(points), chunk):
            block = points[start : start + chunk]
            emit(obj, block, start, centers)
            execution = gpu.submit_chunk(
                work, len(block) * scale, ready, localized=True, framework=False
            )
            ready = execution.kernel_end
        # final device->host copy of the reduction object
        ready += gpu.transfer_time(obj.values.nbytes)
        ctx.clock.advance_to(ready)
        combined = obj.values
        counts = combined[:, -1:]
        centers = np.where(counts > 0, combined[:, :-1] / np.maximum(counts, 1.0), centers)
    return centers


def run(cluster: ClusterSpec, config: fw_kmeans.KmeansConfig, mix: str = "1gpu", **kw) -> AppRun:
    """Run the hand-written CUDA baseline on the first GPU of a one-node ``cluster``
    (``mix`` is ``"1gpu"`` only)."""
    check_run("kmeans-cuda", cluster, mix)
    result = spmd_run(rank_program, cluster, args=(config,), **kw)
    seq = sequential_time(
        fw_kmeans.base_work(config), config.n_points, cluster.node, config.iterations
    )
    return AppRun(
        app="kmeans-cuda",
        mix="cuda-1gpu",
        nodes=1,
        makespan=result.makespan,
        seq_time=seq,
        result=result.values[0],
        spmd=result,
    )
