"""Moldyn — molecular dynamics, the paper's flagship multi-pattern app.

Paper workload (§IV-A): 1 million nodes (molecules), 130 million edges
(interactions), 1000 iterations.  Per the paper's Listing 1/2, each time
step runs the **CF** (compute force) irregular-reduction kernel and updates
the node data; the **KE** (kinetic energy) and **AV** (average velocity)
generalized reductions run at the end.

Node data layout: columns 0:3 position, 3:6 velocity.  The CF kernel
computes a pairwise force for every edge within the cutoff and accumulates
``+f`` on one endpoint and ``-f`` on the other — the exact shape of the
paper's Listing 1 ``force_cmpt``.

Cost model: ~30 FLOPs and ~64 gathered bytes per edge (two 24-byte
positions plus scatter traffic) — gather-bound; GPU efficiencies are
calibrated to the paper's measured GPU : 12-core-CPU ratio.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.apps.calibrate import calibrate_gpu_ratio
from repro.apps.common import AppRun, StepLoop, extrapolate_steps, sequential_time
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.core.api import GRKernel, IRKernel
from repro.core.env import RuntimeEnv
from repro.data.meshes import geometric_mesh
from repro.device.work import WorkModel
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ValidationError

#: Paper-measured single-node ratio (§IV-C): GPU vs 12-core CPU.
PAPER_GPU_CPU_RATIO = 1.5

#: Integration step for the (toy) velocity/position update.
DT = 1e-3

#: Pair-force scale.
FORCE_G = 0.05


@dataclass(frozen=True)
class MoldynConfig:
    """Moldyn workload description."""

    n_nodes: int = 1_000_000
    n_edges: int = 130_000_000
    functional_nodes: int = 20_000
    functional_degree: float = 26.0
    iterations: int = 1000
    simulated_steps: int = 3
    cutoff: float = 1.0  # in units of the mesh connection radius (1 = all edges)
    locality_shuffle: float = 0.10
    seed: int = 0

    def __post_init__(self) -> None:
        if self.functional_nodes > self.n_nodes:
            raise ValidationError("functional_nodes must not exceed n_nodes")
        if not 1 <= self.simulated_steps <= self.iterations:
            raise ValidationError("need 1 <= simulated_steps <= iterations")


def base_cf_work() -> WorkModel:
    """Uncalibrated per-edge cost of the CF kernel."""
    return WorkModel(
        name="moldyn.cf",
        flops_per_elem=30.0,
        bytes_per_elem=64.0,
        cpu_efficiency=0.50,
        cpu_mem_efficiency=0.60,  # indirection-array gathers
        gpu_efficiency=0.3,  # placeholder; calibrated below
        gpu_mem_efficiency=0.5,
        atomics_per_elem=2.0,
        num_reduction_keys=4096,  # nodes per shared-memory partition (large)
        runtime_overhead_flops=1.0,
    )


def gr_work(name: str) -> WorkModel:
    """Per-node cost of the KE / AV generalized reductions."""
    return WorkModel(
        name=name,
        flops_per_elem=10.0,
        bytes_per_elem=48.0,
        cpu_efficiency=0.5,
        gpu_efficiency=0.2,
        atomics_per_elem=1.0,
        num_reduction_keys=1,
        transfer_bytes_per_elem=48.0,
        runtime_overhead_flops=0.5,
    )


#: Bytes per node uploaded to each GPU when node data changes (positions).
DEVICE_NODE_BYTES = 24.0


def make_cf_work(node: NodeSpec, config: "MoldynConfig") -> WorkModel:
    if not node.gpus:
        return base_cf_work()
    # The per-step full node-copy upload, amortized per edge, is part of the
    # paper's measured GPU throughput; fold it into the calibration target.
    upload_per_edge = (
        DEVICE_NODE_BYTES * config.n_nodes / (config.n_edges * node.gpus[0].pcie_bandwidth)
    )
    return calibrate_gpu_ratio(
        base_cf_work(), node, PAPER_GPU_CPU_RATIO, gpu_overhead_per_elem=upload_per_edge
    )


def cf_edge_batch(obj, edges: np.ndarray, edge_data, nodes: np.ndarray, cutoff2: float) -> None:
    """The CF kernel (paper Listing 1): pairwise forces within the cutoff.

    Written with in-place updates so each batch allocates only the two
    position gathers plus two length-``m`` scratch vectors; the force
    scale is folded into one factor (``d * (G / r2)`` instead of
    ``(G * d) / r2`` — equal to within a ulp, well inside the apps'
    1e-9 tolerance) so the wide ``(m, 3)`` array is touched once.
    The positions are first compacted into a contiguous ``(n, 3)`` array
    so both endpoint gathers hit ``np.take``'s contiguous fast path —
    ~2.5x faster than fancy-indexing the strided ``nodes[:, 0:3]`` view,
    even counting the copy (edges outnumber nodes ~26:1).
    """
    pos = np.ascontiguousarray(nodes[:, 0:3])
    f = np.take(pos, edges[:, 0], axis=0)
    f -= np.take(pos, edges[:, 1], axis=0)  # f holds the displacement d
    r2 = np.einsum("nd,nd->n", f, f)
    inactive = r2 >= cutoff2
    np.maximum(r2, 1e-12, out=r2)
    np.divide(FORCE_G, r2, out=r2)  # r2 scratch now holds G / r2
    f *= r2[:, None]
    f[inactive] = 0.0
    obj.insert_many(edges[:, 0], f)
    np.negative(f, out=f)
    obj.insert_many(edges[:, 1], f)


def make_cf_kernel(node: NodeSpec, config: "MoldynConfig") -> IRKernel:
    return IRKernel(
        edge_compute_batch=cf_edge_batch,
        reduce_op="sum",
        value_width=3,
        work=make_cf_work(node, config),
    )


def ke_emit_batch(obj, nodes: np.ndarray, start: int, _param) -> None:
    """KE kernel: accumulate 0.5*|v|^2 under a single key."""
    v = nodes[:, 3:6]
    ke = 0.5 * np.einsum("nd,nd->n", v, v)
    obj.insert_many(np.zeros(len(nodes), dtype=np.int64), ke)


def av_emit_batch(obj, nodes: np.ndarray, start: int, _param) -> None:
    """AV kernel: accumulate velocity sums + count under a single key."""
    vals = np.concatenate([nodes[:, 3:6], np.ones((len(nodes), 1))], axis=1)
    obj.insert_many(np.zeros(len(nodes), dtype=np.int64), vals)


def make_ke_kernel() -> GRKernel:
    return GRKernel(
        emit_batch=ke_emit_batch, reduce_op="sum", num_keys=1, value_width=1, work=gr_work("moldyn.ke")
    )


def make_av_kernel() -> GRKernel:
    return GRKernel(
        emit_batch=av_emit_batch, reduce_op="sum", num_keys=1, value_width=4, work=gr_work("moldyn.av")
    )


def _integrate(nodes: np.ndarray, forces: np.ndarray) -> np.ndarray:
    """Velocity/position update from the CF reduction result (in place).

    Mutates and returns ``nodes`` — callers pass the fresh copy that
    ``get_local_nodes`` hands out, so no extra copy is needed.
    """
    nodes[:, 3:6] += forces * DT
    nodes[:, 0:3] += nodes[:, 3:6] * DT
    return nodes


def _functional_mesh(config: MoldynConfig):
    # Moldyn's mesh file has *partial* locality (domain-ordered once, then
    # perturbed): enough cross edges to make the remote-node exchange
    # significant — which is why the paper's overlapped execution buys it
    # most of its Fig. 7 gain — but enough locality that the reduction-space
    # partitioning still pays (Table II).
    positions, edges = geometric_mesh(
        config.functional_nodes, config.functional_degree, seed=config.seed,
        shuffle_fraction=config.locality_shuffle,
    )
    velocities = np.zeros_like(positions)
    velocities[:, 0] = 0.1 * np.sin(np.arange(len(positions)))
    node_data = np.concatenate([positions, velocities], axis=1)
    return node_data, edges


def rank_program(
    ctx: RankContext,
    config: MoldynConfig,
    mix: str = "cpu+2gpu",
    *,
    overlap: bool = True,
) -> dict:
    """SPMD body following the paper's Listing 2 structure."""
    node_data, edges = _functional_mesh(config)
    # The connection radius of the functional mesh in the unit cube.
    cutoff2 = (config.cutoff**2) * (
        (config.functional_degree / (len(node_data) * (4.0 / 3.0) * np.pi)) ** (2.0 / 3.0)
    )

    env = RuntimeEnv(ctx, mix)
    ir = env.get_IR(overlap=overlap)
    ir.set_kernel(make_cf_kernel(ctx.node, config))
    ir.set_parameter(cutoff2)
    ir.set_mesh(
        edges,
        node_data,
        model_edges=config.n_edges,
        model_nodes=config.n_nodes,
        device_node_bytes=DEVICE_NODE_BYTES,
    )

    def advance(_steps: int) -> None:
        ir.start()
        ir.update_nodedata(_integrate(ir.get_local_nodes(), ir.get_local_reduction()))

    wall0 = time.perf_counter()
    step_times = StepLoop(ctx).run(config.simulated_steps, advance)
    wall_steps = time.perf_counter() - wall0

    # KE and AV over the final local node data (generalized reductions).
    local_nodes = ir.get_local_nodes()
    lo, hi = ir.local_node_range
    model_share = config.n_nodes // ctx.size

    gr = env.get_GR()
    gr.set_kernel(make_ke_kernel())
    gr.set_input(local_nodes, global_start=lo, model_local_elems=max(model_share, len(local_nodes)))
    gr.start()
    ke = gr.get_global_reduction(bcast=True)

    gr.set_kernel(make_av_kernel())
    gr.set_input(local_nodes, global_start=lo, model_local_elems=max(model_share, len(local_nodes)))
    gr.start()
    av_raw = gr.get_global_reduction(bcast=True)
    av = av_raw[0, 0:3] / max(av_raw[0, 3], 1.0)

    env.finalize()
    return {
        "steps": step_times,
        "wall_steps": wall_steps,
        "ke": float(ke[0, 0]),
        "av": av,
        "range": (lo, hi),
        "nodes": local_nodes,
        "tail_time": 0.0,
    }


def run(
    cluster: ClusterSpec,
    config: MoldynConfig | None = None,
    mix: str = "cpu+2gpu",
    *,
    overlap: bool = True,
    **spmd_kwargs,
) -> AppRun:
    """Run Moldyn and report the extrapolated 1000-iteration makespan."""
    config = config or MoldynConfig()
    result = spmd_run(
        rank_program, cluster, args=(config, mix), kwargs={"overlap": overlap}, **spmd_kwargs
    )
    per_rank = [extrapolate_steps(v["steps"], config.iterations) for v in result.values]
    seq = sequential_time(base_cf_work(), config.n_edges, cluster.node, config.iterations)
    return AppRun(
        app="moldyn",
        mix=mix,
        nodes=cluster.num_nodes,
        makespan=max(per_rank),
        seq_time=seq,
        result=result.values,
        spmd=result,
    )


def sequential_reference(config: MoldynConfig) -> dict:
    """Plain NumPy Moldyn (the correctness oracle)."""
    node_data, edges = _functional_mesh(config)
    cutoff2 = (config.cutoff**2) * (
        (config.functional_degree / (len(node_data) * (4.0 / 3.0) * np.pi)) ** (2.0 / 3.0)
    )
    nodes = node_data.copy()
    for _ in range(config.simulated_steps):
        d = nodes[edges[:, 0], 0:3] - nodes[edges[:, 1], 0:3]
        r2 = np.einsum("nd,nd->n", d, d)
        f = np.where((r2 < cutoff2)[:, None], FORCE_G * d / np.maximum(r2, 1e-12)[:, None], 0.0)
        forces = np.zeros((len(nodes), 3))
        np.add.at(forces, edges[:, 0], f)
        np.add.at(forces, edges[:, 1], -f)
        nodes[:, 3:6] += forces * DT
        nodes[:, 0:3] += nodes[:, 3:6] * DT
    v = nodes[:, 3:6]
    ke = float((0.5 * np.einsum("nd,nd->n", v, v)).sum())
    av = v.mean(axis=0)
    return {"nodes": nodes, "ke": ke, "av": av}
