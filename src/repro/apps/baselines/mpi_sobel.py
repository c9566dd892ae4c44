"""Hand-written MPI Sobel (one rank per core), after the GWU UPC suite.

Explicit 2-D Cartesian decomposition over all cores, blocking halo
exchange per iteration, whole-subimage convolution — no overlap, no
tiling, no threading.  Each rank is a single CPU core.
"""

from __future__ import annotations

import numpy as np

from repro.apps import sobel as fw_sobel
from repro.apps.common import (
    AppRun, StepLoop, check_run, extrapolated_makespan, sequential_time, single_core_spec,
)
from repro.cluster.specs import ClusterSpec
from repro.cluster.topology import coords_of, dims_create, rank_of
from repro.comm.constants import PROC_NULL
from repro.device.cpu import CPUDevice
from repro.sim.engine import RankContext, spmd_run

_TAG = 320


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


def rank_program(ctx: RankContext, config: fw_sobel.SobelConfig) -> dict:
    dims = dims_create(ctx.size, 2)
    coords = coords_of(ctx.rank, dims)
    shape = config.functional_shape

    bounds = [_block(shape[ax], dims[ax], coords[ax]) for ax in range(2)]
    local_shape = tuple(hi - lo for lo, hi in bounds)
    src = np.zeros(tuple(s + 2 for s in local_shape), dtype=np.float32)
    dst = np.zeros_like(src)
    image = fw_sobel.synthetic_image(shape, seed=config.seed)
    src[1:-1, 1:-1] = image[bounds[0][0] : bounds[0][1], bounds[1][0] : bounds[1][1]]
    interior = tuple(slice(1, 1 + ext) for ext in local_shape)

    core = CPUDevice(single_core_spec(ctx.node.cpu))
    work = fw_sobel.base_work()
    elem_time = core.core_elem_time(work, localized=True, framework=False)
    elem_scale = float(np.prod([m / f for m, f in zip(config.shape, shape)]))
    model_local = int(np.prod(local_shape)) * elem_scale

    def face_bytes(axis: int) -> float:
        other = local_shape[1 - axis]
        return other * (elem_scale / (config.shape[axis] / shape[axis])) * 4

    def advance(_steps: int) -> None:
        nonlocal src, dst
        for axis in range(2):
            down = _neighbor(coords, dims, axis, -1)
            up = _neighbor(coords, dims, axis, +1)
            wire = face_bytes(axis)

            def line(where: int):
                # Full padded extent on the other axis so corners propagate
                # through sequential axis exchanges (Sobel reads diagonals).
                index = [slice(0, n) for n in src.shape]
                index[axis] = where
                return tuple(index)

            if up != PROC_NULL:
                ctx.comm.send(np.ascontiguousarray(src[line(-2)]), up, _TAG + axis, wire_bytes=wire)
            if down != PROC_NULL:
                src[line(0)] = ctx.comm.recv(source=down, tag=_TAG + axis)
            if down != PROC_NULL:
                ctx.comm.send(np.ascontiguousarray(src[line(1)]), down, _TAG + axis, wire_bytes=wire)
            if up != PROC_NULL:
                src[line(-1)] = ctx.comm.recv(source=up, tag=_TAG + axis)

        fw_sobel.sobel_apply(src, dst, interior, None)
        ctx.clock.advance(model_local * elem_time)
        src, dst = dst, src

    step_times = StepLoop(ctx).run(config.simulated_steps, advance)
    return {"steps": step_times, "bounds": bounds, "block": src[interior].copy()}


def run(cluster: ClusterSpec, config: fw_sobel.SobelConfig, mix: str = "cpu", **kw) -> AppRun:
    """Run the per-core MPI baseline over ``cluster`` (``mix`` is ``"cpu"`` only)."""
    ppn = check_run("sobel-mpi", cluster, mix)
    result = spmd_run(
        rank_program, cluster,
        ranks_per_node=ppn,
        args=(config,),
        **kw,
    )
    seq = sequential_time(fw_sobel.base_work(), config.n_elems, cluster.node, config.iterations)
    return AppRun(
        app="sobel-mpi",
        mix=f"mpi-{ppn}ppn",
        nodes=cluster.num_nodes,
        makespan=extrapolated_makespan(result.values, config),
        seq_time=seq,
        result=result.values,
        spmd=result,
    )


def assemble(values: list[dict], shape: tuple[int, int]) -> np.ndarray:
    """Reassemble the global image from per-rank blocks (test helper)."""
    out = np.zeros(shape, dtype=np.float32)
    for v in values:
        b = v["bounds"]
        out[b[0][0] : b[0][1], b[1][0] : b[1][1]] = v["block"]
    return out
