"""MiniMD — the Mantevo molecular-dynamics mini-app on the framework.

Paper workload (§IV-A): 500,000 atoms (double precision), 1000 iterations.
The dominant kernel — Lennard-Jones force computation over a half neighbor
list — is an irregular reduction; energy computations are generalized
reductions; and, unlike Moldyn, the neighbor list is **rebuilt
periodically** (every ``reneighbor_every`` steps, MiniMD's default cadence
~20), which exercises the runtime's connectivity-reset path (the paper's
steps 1–4 run again after every rebuild).

The hand-written comparator is Mantevo's MPI+OpenMP MiniMD, i.e. one rank
per *node* (see :mod:`repro.apps.baselines.mpi_minimd`); the paper reports
the framework faster thanks to communication/computation overlap.

GPU efficiencies are calibrated to the paper's measured GPU :
12-core-CPU ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.apps.calibrate import calibrate_gpu_ratio
from repro.apps.common import AppRun, StepLoop, extrapolated_makespan, sequential_time
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.core.api import GRKernel, IRKernel
from repro.core.env import RuntimeEnv
from repro.data.atoms import build_neighbor_edges, fcc_lattice
from repro.device.work import WorkModel
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ValidationError

#: Paper-measured single-node ratio (§IV-C): GPU vs 12-core CPU.
PAPER_GPU_CPU_RATIO = 1.7

DT = 5e-4
EPSILON = 1.0
SIGMA = 1.0


@dataclass(frozen=True)
class MiniMDConfig:
    """MiniMD workload description.

    ``functional_cells`` sets the FCC box edge (atoms = 4 * cells^3).
    The modeled atom count and a modeled mean neighbor count set the
    paper-scale edge count.
    """

    n_atoms: int = 500_000
    model_neighbors_per_atom: float = 38.0
    functional_cells: int = 14
    cutoff: float = 1.3
    iterations: int = 1000
    reneighbor_every: int = 20
    simulated_steps: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.functional_cells < 2:
            raise ValidationError("functional_cells must be >= 2")
        if 4 * self.functional_cells**3 > self.n_atoms:
            raise ValidationError("functional atom count exceeds modeled n_atoms")
        if not 1 <= self.simulated_steps <= self.iterations:
            raise ValidationError("need 1 <= simulated_steps <= iterations")
        if self.reneighbor_every < 1:
            raise ValidationError("reneighbor_every must be >= 1")

    @property
    def functional_atoms(self) -> int:
        return 4 * self.functional_cells**3

    @property
    def n_edges(self) -> int:
        """Modeled half-neighbor-list size."""
        return int(self.n_atoms * self.model_neighbors_per_atom / 2)

    @property
    def model_cells(self) -> float:
        """FCC box edge of the modeled atom count."""
        return (self.n_atoms / 4.0) ** (1.0 / 3.0)

    def exchange_scale(self) -> float:
        """Surface-corrected wire scale for the remote-atom exchange.

        Remote atoms per rank are the cutoff-deep shells of the neighbour
        slabs: a fraction ``~2*cutoff/box_edge`` of all atoms.  Scaling the
        functional remote count volumetrically would overstate the
        paper-scale exchange by ``model_cells / functional_cells``; divide
        it back out.
        """
        node_scale = self.n_atoms / self.functional_atoms
        return node_scale * self.functional_cells / self.model_cells


def base_force_work() -> WorkModel:
    """Uncalibrated per-pair cost of the LJ force kernel."""
    return WorkModel(
        name="minimd.lj",
        flops_per_elem=45.0,
        bytes_per_elem=64.0,
        cpu_efficiency=0.55,
        cpu_mem_efficiency=0.65,
        gpu_efficiency=0.3,  # placeholder; calibrated below
        gpu_mem_efficiency=0.5,
        atomics_per_elem=2.0,
        num_reduction_keys=4096,
        runtime_overhead_flops=1.0,
    )


def energy_work() -> WorkModel:
    """Per-atom cost of the energy generalized reduction."""
    return WorkModel(
        name="minimd.energy",
        flops_per_elem=12.0,
        bytes_per_elem=48.0,
        cpu_efficiency=0.5,
        gpu_efficiency=0.2,
        atomics_per_elem=1.0,
        num_reduction_keys=1,
        transfer_bytes_per_elem=48.0,
        runtime_overhead_flops=0.5,
    )


#: Bytes per atom uploaded to each GPU when positions change.
DEVICE_NODE_BYTES = 24.0


def make_force_work(node: NodeSpec, config: "MiniMDConfig") -> WorkModel:
    if not node.gpus:
        return base_force_work()
    upload_per_edge = (
        DEVICE_NODE_BYTES * config.n_atoms / (config.n_edges * node.gpus[0].pcie_bandwidth)
    )
    return calibrate_gpu_ratio(
        base_force_work(), node, PAPER_GPU_CPU_RATIO, gpu_overhead_per_elem=upload_per_edge
    )


def lj_force_batch(obj, edges: np.ndarray, edge_data, nodes: np.ndarray, cutoff2: float) -> None:
    """Lennard-Jones pair forces over the half neighbor list.

    In-place formulation: the displacement buffer becomes the force
    buffer and the ``sr2`` scratch accumulates the magnitude
    ``f = 24 eps (2 sr^12 - sr^6) / r^2``, with every operation keeping
    the naive expression's association so forces are bit-identical.
    Positions are compacted into a contiguous ``(n, 3)`` array first so
    both endpoint gathers hit ``np.take``'s contiguous fast path.
    """
    pos = np.ascontiguousarray(nodes[:, 0:3])
    f = np.take(pos, edges[:, 0], axis=0)
    f -= np.take(pos, edges[:, 1], axis=0)  # f holds the displacement d
    r2 = np.einsum("nd,nd->n", f, f)
    np.maximum(r2, 1e-12, out=r2)
    outside = r2 >= cutoff2
    sr2 = (SIGMA * SIGMA) / r2
    sr6 = sr2 * sr2
    sr6 *= sr2
    np.multiply(sr6, 2.0, out=sr2)  # sr2 scratch now builds the magnitude
    sr2 *= sr6
    sr2 -= sr6
    sr2 *= 24.0 * EPSILON
    sr2 /= r2
    sr2[outside] = 0.0
    f *= sr2[:, None]
    obj.insert_many(edges[:, 0], f)
    np.negative(f, out=f)
    obj.insert_many(edges[:, 1], f)


def make_force_kernel(node: NodeSpec, config: "MiniMDConfig") -> IRKernel:
    return IRKernel(
        edge_compute_batch=lj_force_batch,
        reduce_op="sum",
        value_width=3,
        work=make_force_work(node, config),
    )


def energy_emit_batch(obj, nodes: np.ndarray, start: int, _param) -> None:
    v = nodes[:, 3:6]
    ke = 0.5 * np.einsum("nd,nd->n", v, v)
    obj.insert_many(np.zeros(len(nodes), dtype=np.int64), ke)


def make_energy_kernel() -> GRKernel:
    return GRKernel(
        emit_batch=energy_emit_batch, reduce_op="sum", num_keys=1, value_width=1, work=energy_work()
    )


def _functional_atoms(config: MiniMDConfig) -> np.ndarray:
    pos = fcc_lattice(config.functional_cells, jitter=0.03, seed=config.seed)
    vel = np.zeros_like(pos)
    vel[:, 1] = 0.05 * np.cos(np.arange(len(pos)))
    return np.concatenate([pos, vel], axis=1)


def _integrate(nodes: np.ndarray, forces: np.ndarray) -> np.ndarray:
    # In place: callers pass the fresh copy from get_local_nodes.
    nodes[:, 3:6] += forces * DT
    nodes[:, 0:3] += nodes[:, 3:6] * DT
    return nodes


def rank_program(
    ctx: RankContext,
    config: MiniMDConfig,
    mix: str = "cpu+2gpu",
    *,
    overlap: bool = True,
) -> dict:
    """SPMD body: LJ force steps with periodic re-neighboring + energy GR."""
    atoms = _functional_atoms(config)
    edges = build_neighbor_edges(atoms[:, 0:3], config.cutoff)
    cutoff2 = config.cutoff**2

    env = RuntimeEnv(ctx, mix)
    ir = env.get_IR(overlap=overlap)
    ir.set_kernel(make_force_kernel(ctx.node, config))
    ir.set_parameter(cutoff2)
    mesh_scales = {
        "model_edges": config.n_edges,
        "model_nodes": config.n_atoms,
        "device_node_bytes": DEVICE_NODE_BYTES,
        "exchange_scale": config.exchange_scale(),
    }
    ir.set_mesh(edges, atoms, **mesh_scales)

    def advance(_steps: int) -> None:
        ir.start()
        ir.update_nodedata(_integrate(ir.get_local_nodes(), ir.get_local_reduction()))

    def rebuild(_steps: int) -> None:
        # Re-neighbor: every rank rebuilds the (identical functional)
        # list from the full positions — the runtime then re-runs its
        # connectivity setup (steps 1-4) and edge uploads.
        positions = _gather_positions(ctx, ir, atoms.shape)
        edges = build_neighbor_edges(positions[:, 0:3], config.cutoff)
        ir.set_mesh(edges, positions, **mesh_scales)

    loop = StepLoop(ctx)
    step_times = []
    rebuild_times = []
    for first in range(0, config.simulated_steps, config.reneighbor_every):
        if first:
            rebuild_times += loop.run(1, rebuild)
        segment = min(config.reneighbor_every, config.simulated_steps - first)
        step_times += loop.run(segment, advance)

    local_nodes = ir.get_local_nodes()
    lo, hi = ir.local_node_range
    gr = env.get_GR()
    gr.set_kernel(make_energy_kernel())
    gr.set_input(
        local_nodes,
        global_start=lo,
        model_local_elems=max(config.n_atoms // ctx.size, len(local_nodes)),
    )
    gr.start()
    ke = gr.get_global_reduction()

    env.finalize()
    return {
        "steps": step_times,
        "rebuilds": rebuild_times,
        "ke": float(ke[0, 0]),
        "range": (lo, hi),
        "nodes": local_nodes,
    }


def _gather_positions(ctx: RankContext, ir, shape: tuple[int, int]) -> np.ndarray:
    """Allgather the current node data (re-neighboring needs all positions)."""
    lo, hi = ir.local_node_range
    parts = ctx.comm.allgather((lo, hi, ir.get_local_nodes()))
    full = np.zeros(shape)
    for plo, phi, block in parts:
        full[plo:phi] = block
    return full


def total_time(values: list[dict], config: MiniMDConfig) -> float:
    """Extrapolated full-run time including re-neighboring costs."""
    rebuilds = config.iterations // config.reneighbor_every
    per_rebuild = [float(np.mean(v["rebuilds"])) if v["rebuilds"] else 0.0 for v in values]
    return extrapolated_makespan(values, config, [rebuilds * r for r in per_rebuild])


def run(
    cluster: ClusterSpec,
    config: MiniMDConfig | None = None,
    mix: str = "cpu+2gpu",
    *,
    overlap: bool = True,
    **spmd_kwargs,
) -> AppRun:
    """Run MiniMD and report the extrapolated 1000-iteration makespan."""
    config = config or MiniMDConfig()
    result = spmd_run(
        rank_program, cluster, args=(config, mix), kwargs={"overlap": overlap}, **spmd_kwargs
    )
    seq = sequential_time(base_force_work(), config.n_edges, cluster.node, config.iterations)
    return AppRun(
        app="minimd",
        mix=mix,
        nodes=cluster.num_nodes,
        makespan=total_time(result.values, config),
        seq_time=seq,
        result=result.values,
        spmd=result,
    )


def sequential_reference(config: MiniMDConfig) -> dict:
    """Plain NumPy MiniMD (the correctness oracle; no re-neighboring if
    ``simulated_steps`` stays below ``reneighbor_every``)."""
    atoms = _functional_atoms(config)
    edges = build_neighbor_edges(atoms[:, 0:3], config.cutoff)
    cutoff2 = config.cutoff**2
    nodes = atoms.copy()
    for step in range(config.simulated_steps):
        if step > 0 and step % config.reneighbor_every == 0:
            edges = build_neighbor_edges(nodes[:, 0:3], config.cutoff)
        d = nodes[edges[:, 0], 0:3] - nodes[edges[:, 1], 0:3]
        r2 = np.maximum(np.einsum("nd,nd->n", d, d), 1e-12)
        inside = r2 < cutoff2
        sr2 = (SIGMA * SIGMA) / r2
        sr6 = sr2 * sr2 * sr2
        fmag = np.where(inside, 24.0 * EPSILON * (2.0 * sr6 * sr6 - sr6) / r2, 0.0)
        f = fmag[:, None] * d
        forces = np.zeros((len(nodes), 3))
        np.add.at(forces, edges[:, 0], f)
        np.add.at(forces, edges[:, 1], -f)
        nodes[:, 3:6] += forces * DT
        nodes[:, 0:3] += nodes[:, 3:6] * DT
    v = nodes[:, 3:6]
    return {"nodes": nodes, "ke": float((0.5 * np.einsum("nd,nd->n", v, v)).sum())}
