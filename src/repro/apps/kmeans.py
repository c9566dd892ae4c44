"""Kmeans clustering — the paper's generalized-reduction application.

Paper workload (§IV-A): a three-dimensional single-precision dataset with
40 centers, 200 million points (2.3 GB), timed for one iteration.

One Kmeans iteration is one generalized reduction: each point *emits*
``(nearest_center, [x, y, z, 1])`` and the per-key sums/counts yield the
new centers.  The reduction object is 40 keys x 4 floats = 640 B, far under
48 KiB — so reduction localization kicks in on GPUs, which the paper names
as the reason Kmeans has its largest GPU advantage.

Cost calibration (see :mod:`repro.apps.calibrate`): per point ~10 FLOPs per
center (3 subs, 3 mults, 2 adds, compare, bookkeeping) x 40 centers = 400
FLOPs, 12 bytes streamed; CPU efficiency 0.35 of the DP-peak figure (a
single-precision scalar distance loop); GPU efficiency solved so the GPU :
12-core-CPU ratio equals the paper's (``PAPER_GPU_CPU_RATIO``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.calibrate import calibrate_gpu_ratio
from repro.apps.common import AppRun, StepLoop, check_functional_scale, sequential_time
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.core.env import RuntimeEnv
from repro.core.api import GRKernel, emit_keys_batch
from repro.core.partition import block_partition
from repro.data.points import clustered_points
from repro.device.work import WorkModel
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ValidationError

#: Paper-measured single-node ratio: GPU vs 12-core CPU (§IV-C).
PAPER_GPU_CPU_RATIO = 2.69

#: Fig. 8: the framework is slower than the hand-written Rodinia kernel;
#: the gap is the GPU kernel's per-point bookkeeping, charged as extra
#: FLOPs on the GPU side only — the framework's CPU path is the same loop a
#: hand-written version runs (the paper even finds it slightly *faster*
#: than per-core MPI thanks to its threaded process model).
FRAMEWORK_GPU_OVERHEAD_FLOPS = 24.0


@dataclass(frozen=True)
class KmeansConfig:
    """Kmeans workload description.

    ``n_points`` is the modeled (paper-scale) count; ``functional_points``
    is how many points the math actually touches.
    """

    n_points: int = 200_000_000
    functional_points: int = 200_000
    k: int = 40
    dims: int = 3
    iterations: int = 1
    seed: int = 0
    chunk_elems: int | None = None

    def __post_init__(self) -> None:
        check_functional_scale(self.functional_points, self.n_points, "kmeans")
        if self.k < 1 or self.dims < 1 or self.iterations < 1:
            raise ValidationError("k, dims, iterations must all be >= 1")
        if self.chunk_elems is not None and self.chunk_elems < 1:
            raise ValidationError(f"chunk_elems must be >= 1, got {self.chunk_elems}")


def base_work(config: KmeansConfig) -> WorkModel:
    """Uncalibrated per-point cost model."""
    itemsize = 4  # single precision, as in the paper's 12-byte points
    return WorkModel(
        name="kmeans.assign",
        flops_per_elem=10.0 * config.k,
        bytes_per_elem=float(config.dims * itemsize),
        cpu_efficiency=0.35,
        gpu_efficiency=0.10,  # placeholder; calibrated below
        atomics_per_elem=1.0,
        num_reduction_keys=config.k,
        transfer_bytes_per_elem=float(config.dims * itemsize),
        runtime_overhead_flops=0.0,
        runtime_overhead_flops_gpu=FRAMEWORK_GPU_OVERHEAD_FLOPS,
    )


def make_work(config: KmeansConfig, node: NodeSpec) -> WorkModel:
    """Work model calibrated to the paper's GPU:CPU ratio on ``node``."""
    if not node.gpus:
        return base_work(config)
    return calibrate_gpu_ratio(
        base_work(config), node, PAPER_GPU_CPU_RATIO, streaming=True
    )


def nearest_centers(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of the nearest center per point (squared Euclidean distance).

    Expands ``|p - c|^2`` to ``|p|^2 - 2 p.c + |c|^2`` and drops the
    ``|p|^2`` term (constant per point, so it cannot change the argmin):
    one BLAS matmul plus a length-``k`` bias replaces the per-axis
    subtract/square/accumulate passes — ~2x faster at the paper's
    ``d=3, k=40``.  Shared by the framework emit kernel and the sequential
    oracle, so the assignment step is structurally identical in both.
    """
    pts = points.astype(np.float64, copy=False)
    score = pts @ (-2.0 * centers.T)
    score += np.einsum("ij,ij->i", centers, centers)
    return np.argmin(score, axis=1)


def make_emit(config: KmeansConfig):
    """The batched emit function: nearest-center assignment + accumulation."""

    def emit_batch(obj, points: np.ndarray, start: int, centers: np.ndarray) -> None:
        keys = nearest_centers(points, centers)
        vals = np.empty((len(points), centers.shape[1] + 1))
        vals[:, :-1] = points
        vals[:, -1] = 1.0
        emit_keys_batch(obj, keys, vals)

    return emit_batch


def make_kernel(config: KmeansConfig, node: NodeSpec) -> GRKernel:
    """The generalized-reduction kernel for one Kmeans iteration."""
    return GRKernel(
        emit_batch=make_emit(config),
        reduce_op="sum",
        num_keys=config.k,
        value_width=config.dims + 1,
        work=make_work(config, node),
        dtype=np.dtype(np.float64),
    )


def _new_centers(combined: np.ndarray, old: np.ndarray) -> np.ndarray:
    """Centers from the combined (sums, count) reduction; empty keep old."""
    counts = combined[:, -1:]
    centers = np.where(counts > 0, combined[:, :-1] / np.maximum(counts, 1.0), old)
    return centers


def rank_program(
    ctx: RankContext,
    config: KmeansConfig,
    mix: str = "cpu+2gpu",
    *,
    reliable: bool = False,
    checkpoint_every: int | None = None,
) -> np.ndarray:
    """SPMD body: one (or more) Kmeans iterations via the GR runtime.

    ``reliable`` and ``checkpoint_every`` are the
    :class:`~repro.apps.common.StepLoop` switches (bit-identical results
    under lossy fault plans; crash recovery) — the evolving state is just
    the centers array, so a crashed rank rolls the whole group back to
    the last snapshot of the centers.
    """
    loop = StepLoop(ctx, reliable=reliable, checkpoint_every=checkpoint_every)
    points, _true = clustered_points(
        config.functional_points, config.k, config.dims, seed=config.seed
    )
    state = {"centers": points[: config.k].astype(np.float64)}  # first-k init

    env = RuntimeEnv(ctx, mix)
    gr = env.get_GR(chunk_elems=config.chunk_elems)
    gr.set_kernel(make_kernel(config, ctx.node))

    offsets = block_partition(len(points), ctx.size)
    lo, hi = int(offsets[ctx.rank]), int(offsets[ctx.rank + 1])
    model_share = config.n_points // ctx.size

    def one_iteration(_n: int) -> None:
        gr.set_input(
            points[lo:hi],
            global_start=lo,
            model_local_elems=model_share,
            parameter=state["centers"],
        )
        gr.start()
        combined = gr.get_global_reduction()
        state["centers"] = _new_centers(combined, state["centers"])

    loop.run(
        config.iterations,
        one_iteration,
        lambda: state["centers"].copy(),
        lambda s: state.__setitem__("centers", s.copy()),
    )
    env.finalize()
    loop.finish()
    return state["centers"]


def run(
    cluster: ClusterSpec,
    config: KmeansConfig | None = None,
    mix: str = "cpu+2gpu",
    *,
    reliable: bool = False,
    checkpoint_every: int | None = None,
    **spmd_kwargs,
) -> AppRun:
    """Run Kmeans on ``cluster`` and report makespan + speedup basis."""
    config = config or KmeansConfig()
    result = spmd_run(
        rank_program,
        cluster,
        args=(config, mix),
        kwargs={"reliable": reliable, "checkpoint_every": checkpoint_every},
        **spmd_kwargs,
    )
    seq = sequential_time(
        base_work(config), config.n_points, cluster.node, config.iterations
    )
    return AppRun(
        app="kmeans",
        mix=mix,
        nodes=cluster.num_nodes,
        makespan=result.makespan,
        seq_time=seq,
        result=result.values[0],
        spmd=result,
    )


def sequential_reference(config: KmeansConfig) -> np.ndarray:
    """Plain NumPy Kmeans (the correctness oracle)."""
    points, _true = clustered_points(
        config.functional_points, config.k, config.dims, seed=config.seed
    )
    centers = points[: config.k].astype(np.float64)
    pts = points.astype(np.float64)
    for _ in range(config.iterations):
        keys = nearest_centers(pts, centers)
        sums = np.zeros((config.k, config.dims))
        counts = np.zeros(config.k)
        np.add.at(sums, keys, pts)
        np.add.at(counts, keys, 1.0)
        centers = np.where(counts[:, None] > 0, sums / np.maximum(counts[:, None], 1.0), centers)
    return centers
