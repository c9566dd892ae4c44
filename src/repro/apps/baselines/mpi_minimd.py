"""Hand-written MPI+OpenMP MiniMD (one rank per node), after Mantevo's code.

The original parallelizes across nodes with MPI and within a node with
OpenMP; communication is blocking (exchange *then* compute — the paper
credits its win over this code to overlapping the two).  This
baseline partitions atoms into contiguous blocks, exchanges the positions
of remotely-owned neighbor atoms every step, computes LJ forces over its
edge set with all 12 cores, and integrates locally.
"""

from __future__ import annotations

import numpy as np

from repro.apps import minimd as fw_minimd
from repro.apps.common import AppRun, StepLoop, check_run, extrapolated_makespan, sequential_time
from repro.cluster.specs import ClusterSpec
from repro.device.cpu import CPUDevice
from repro.sim.engine import RankContext, spmd_run

_TAG_IDS = 340
_TAG_POS = 341


def rank_program(ctx: RankContext, config: fw_minimd.MiniMDConfig) -> dict:
    atoms = fw_minimd._functional_atoms(config)
    edges = fw_minimd.build_neighbor_edges(atoms[:, 0:3], config.cutoff)
    n = len(atoms)
    cutoff2 = config.cutoff**2

    # -- block partition of atoms ----------------------------------------
    base, extra = divmod(n, ctx.size)
    lo = ctx.rank * base + min(ctx.rank, extra)
    hi = lo + base + (1 if ctx.rank < extra else 0)

    # Edges this rank computes: any edge touching a local atom.
    touch = ((edges[:, 0] >= lo) & (edges[:, 0] < hi)) | (
        (edges[:, 1] >= lo) & (edges[:, 1] < hi)
    )
    my_edges = edges[touch]

    # Remote atoms we need, grouped by owning rank.
    def owner(ids):
        cut = extra * (base + 1)
        small = ids < cut
        return np.where(small, ids // max(base + 1, 1), extra + (ids - cut) // max(base, 1))

    ends = my_edges.reshape(-1)
    remote = np.unique(ends[(ends < lo) | (ends >= hi)])
    owners = owner(remote) if len(remote) else np.array([], dtype=np.int64)
    need: dict[int, np.ndarray] = {
        int(p): remote[owners == p] for p in np.unique(owners)
    }

    # Tell owners which atoms we need (counts via alltoall, then IDs).
    counts = [len(need.get(p, ())) for p in range(ctx.size)]
    all_counts = ctx.comm.alltoall(counts)
    for p, ids in need.items():
        ctx.comm.send(ids, p, _TAG_IDS)
    serve: dict[int, np.ndarray] = {}
    for p, cnt in enumerate(all_counts):
        if p != ctx.rank and cnt > 0:
            serve[p] = np.asarray(ctx.comm.recv(source=p, tag=_TAG_IDS))

    # -- cost model: 12 OpenMP threads, hand-written loop -----------------
    cpu = CPUDevice(ctx.node.cpu)
    work = fw_minimd.base_force_work()
    edge_scale = config.n_edges / max(1, len(edges))
    # Same surface-corrected wire scale as the framework path: remote-atom
    # counts grow with slab surface, not volume (see MiniMDConfig).
    exchange_scale = config.exchange_scale()
    positions = atoms.copy()

    def advance(_steps: int) -> None:
        # -- blocking position exchange (no overlap) ----------------------
        for p, ids in serve.items():
            buf = positions[ids]
            ctx.comm.send(buf, p, _TAG_POS, wire_bytes=buf.nbytes * exchange_scale)
        for p, ids in need.items():
            got = ctx.comm.recv(source=p, tag=_TAG_POS)
            positions[ids] = np.asarray(got).reshape(len(ids), positions.shape[1])

        # -- LJ forces over my edges, updating only local atoms -----------
        d = positions[my_edges[:, 0], 0:3] - positions[my_edges[:, 1], 0:3]
        r2 = np.maximum(np.einsum("nd,nd->n", d, d), 1e-12)
        sr2 = 1.0 / r2
        sr6 = sr2 * sr2 * sr2
        fmag = np.where(r2 < cutoff2, 24.0 * (2.0 * sr6 * sr6 - sr6) / r2, 0.0)
        f = fmag[:, None] * d
        forces = np.zeros((n, 3))
        u_local = (my_edges[:, 0] >= lo) & (my_edges[:, 0] < hi)
        v_local = (my_edges[:, 1] >= lo) & (my_edges[:, 1] < hi)
        np.add.at(forces, my_edges[u_local, 0], f[u_local])
        np.add.at(forces, my_edges[v_local, 1], -f[v_local])
        ctx.clock.advance(
            cpu.partition_time(work, len(my_edges) * edge_scale, framework=False)
        )

        # -- integrate local atoms ----------------------------------------
        positions[lo:hi, 3:6] += forces[lo:hi] * fw_minimd.DT
        positions[lo:hi, 0:3] += positions[lo:hi, 3:6] * fw_minimd.DT

    step_times = StepLoop(ctx).run(config.simulated_steps, advance)
    return {"steps": step_times, "range": (lo, hi), "nodes": positions[lo:hi].copy()}


def run(cluster: ClusterSpec, config: fw_minimd.MiniMDConfig, mix: str = "cpu", **kw) -> AppRun:
    """Run the per-node MPI+OpenMP baseline over ``cluster`` (``mix`` is ``"cpu"`` only)."""
    check_run("minimd-mpi", cluster, mix)
    result = spmd_run(rank_program, cluster, args=(config,), **kw)
    seq = sequential_time(
        fw_minimd.base_force_work(), config.n_edges, cluster.node, config.iterations
    )
    return AppRun(
        app="minimd-mpi",
        mix="mpi+openmp",
        nodes=cluster.num_nodes,
        makespan=extrapolated_makespan(result.values, config),
        seq_time=seq,
        result=result.values,
        spmd=result,
    )
