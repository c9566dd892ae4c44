"""Hand-written MPI Heat3D (one rank per core), after dournac.org's solver.

Explicit 3-D Cartesian decomposition over all cores, blocking halo
exchanges every iteration (sendrecv per axis/direction), whole-subgrid
compute afterwards — no overlap, no tiling, no threading.  Each rank is a
single CPU core.
"""

from __future__ import annotations

import numpy as np

from repro.apps import heat3d as fw_heat3d
from repro.apps.common import AppRun, check_run, extrapolate_steps, sequential_time, single_core_spec
from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import coords_of, dims_create, rank_of
from repro.comm.constants import PROC_NULL
from repro.device.cpu import CPUDevice
from repro.sim.engine import RankContext, spmd_run

_TAG = 300


def _block(extent: int, parts: int, index: int) -> tuple[int, int]:
    base, extra = divmod(extent, parts)
    lo = index * base + min(index, extra)
    return lo, lo + base + (1 if index < extra else 0)


def _neighbor(coords, dims, axis, step):
    trial = list(coords)
    trial[axis] += step
    if not 0 <= trial[axis] < dims[axis]:
        return PROC_NULL
    return rank_of(tuple(trial), dims)


def rank_program(ctx: RankContext, config: fw_heat3d.Heat3DConfig) -> dict:
    dims = dims_create(ctx.size, 3)
    coords = coords_of(ctx.rank, dims)
    shape = config.functional_shape

    # -- local block with a one-cell halo --------------------------------
    bounds = [_block(shape[ax], dims[ax], coords[ax]) for ax in range(3)]
    local_shape = tuple(hi - lo for lo, hi in bounds)
    src = np.zeros(tuple(s + 2 for s in local_shape))
    dst = np.zeros_like(src)
    grid = fw_heat3d.heat3d_initial(shape, seed=config.seed)
    src[1:-1, 1:-1, 1:-1] = grid[
        bounds[0][0] : bounds[0][1], bounds[1][0] : bounds[1][1], bounds[2][0] : bounds[2][1]
    ]
    interior = tuple(slice(1, 1 + ext) for ext in local_shape)

    # -- cost model: one core, hand-written loop -------------------------
    core = CPUDevice(single_core_spec(ctx.node.cpu))
    work = fw_heat3d.base_work()
    elem_time = core.core_elem_time(work, localized=True, framework=False)
    elem_scale = float(np.prod([m / f for m, f in zip(config.shape, shape)]))
    model_local = int(np.prod(local_shape)) * elem_scale

    def face_bytes(axis: int) -> float:
        elems = 1
        for ax in range(3):
            if ax != axis:
                elems *= local_shape[ax]
        return elems * (elem_scale / (config.shape[axis] / shape[axis])) * 8

    step_times = []
    for _ in range(config.simulated_steps):
        t0 = ctx.clock.now
        # -- blocking halo exchange, axis by axis ------------------------
        for axis in range(3):
            down = _neighbor(coords, dims, axis, -1)
            up = _neighbor(coords, dims, axis, +1)
            wire = face_bytes(axis)

            def plane(where: int):
                # Full padded extent on other axes (corner propagation).
                index = [slice(0, n) for n in src.shape]
                index[axis] = where
                return tuple(index)

            # send up / receive from down
            if up != PROC_NULL:
                ctx.comm.send(np.ascontiguousarray(src[plane(-2)]), up, _TAG + axis, wire_bytes=wire)
            if down != PROC_NULL:
                got = ctx.comm.recv(source=down, tag=_TAG + axis)
                src[plane(0)] = got
            # send down / receive from up
            if down != PROC_NULL:
                ctx.comm.send(np.ascontiguousarray(src[plane(1)]), down, _TAG + axis, wire_bytes=wire)
            if up != PROC_NULL:
                got = ctx.comm.recv(source=up, tag=_TAG + axis)
                src[plane(-1)] = got

        # -- whole-subgrid update (no inner/boundary split) --------------
        fw_heat3d.heat_apply(src, dst, interior, fw_heat3d.ALPHA)
        ctx.clock.advance(model_local * elem_time)
        src, dst = dst, src
        step_times.append(ctx.clock.now - t0)

    return {"steps": step_times, "bounds": bounds, "block": src[interior].copy()}


def run(cluster: ClusterSpec, config: fw_heat3d.Heat3DConfig, mix: str = "cpu", **kw) -> AppRun:
    """Run the per-core MPI baseline over ``cluster`` (``mix`` is ``"cpu"`` only)."""
    ppn = check_run("heat3d-mpi", cluster, mix)
    result = spmd_run(
        rank_program,
        cluster,
        ranks_per_node=ppn,
        args=(config,),
        **kw,
    )
    makespan = max(extrapolate_steps(v["steps"], config.iterations) for v in result.values)
    seq = sequential_time(fw_heat3d.base_work(), config.n_elems, cluster.node, config.iterations)
    return AppRun(
        app="heat3d-mpi",
        mix=f"mpi-{ppn}ppn",
        nodes=cluster.num_nodes,
        makespan=makespan,
        seq_time=seq,
        result=result.values,
        spmd=result,
    )


def assemble(values: list[dict], shape: tuple[int, int, int]) -> np.ndarray:
    """Reassemble the global grid from per-rank blocks (test helper)."""
    out = np.zeros(shape)
    for v in values:
        b = v["bounds"]
        out[b[0][0] : b[0][1], b[1][0] : b[1][1], b[2][0] : b[2][1]] = v["block"]
    return out
