"""Sobel edge detection — the paper's 2-D 9-point stencil application.

Paper workload (§IV-A): two 3x3 masks convolved over a 32768x32768 single-
precision image, 15 iterations; the MPI baseline comes from the GWU UPC
suite and the CUDA baseline from the NVIDIA SDK (which stages the input in
texture memory, making it faster than the framework, Fig. 8).

Cost model: ~40 FLOPs per pixel (two 3x3 convolutions + gradient
magnitude), 16 bytes of traffic with tiling — compute-bound on the CPU,
which is where the framework's offset-computation overhead (the paper's
explanation for its deficit vs. hand-written MPI, §IV-C) becomes
visible as ``runtime_overhead_flops``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from repro.apps.calibrate import calibrate_gpu_ratio
from repro.apps.common import AppRun, StepLoop, extrapolate_steps, sequential_time
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.core.api import StencilKernel
from repro.core.env import RuntimeEnv
from repro.core.stencil import reference_sweeps
from repro.data.grids import synthetic_image
from repro.device.work import WorkModel
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ValidationError

#: Table II's perfect CPU+1GPU speedup (3.24) minus one: GPU vs 12-core CPU.
PAPER_GPU_CPU_RATIO = 2.24

#: §IV-C: the stencil runtime "spends extra cycles on computing the
#: offsets", making framework Sobel slower than hand-written MPI.
FRAMEWORK_OVERHEAD_FLOPS = 4.4

#: The Sobel masks.
GX = np.array([[-1, 0, 1], [-2, 0, 2], [-1, 0, 1]], dtype=np.float64)
GY = np.array([[-1, -2, -1], [0, 0, 0], [1, 2, 1]], dtype=np.float64)


@dataclass(frozen=True)
class SobelConfig:
    """Sobel workload description."""

    shape: tuple[int, int] = (32768, 32768)
    functional_shape: tuple[int, int] = (768, 768)
    iterations: int = 15
    simulated_steps: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.shape) != 2 or len(self.functional_shape) != 2:
            raise ValidationError("Sobel images are 2-D")
        for f, m in zip(self.functional_shape, self.shape):
            if f > m:
                raise ValidationError("functional_shape must not exceed shape")
        if not 1 <= self.simulated_steps <= self.iterations:
            raise ValidationError("need 1 <= simulated_steps <= iterations")

    @property
    def n_elems(self) -> int:
        return int(np.prod(self.shape))


def base_work() -> WorkModel:
    """Uncalibrated per-pixel cost model (single precision)."""
    return WorkModel(
        name="sobel.masks",
        flops_per_elem=40.0,
        bytes_per_elem=16.0,
        cpu_efficiency=0.60,
        gpu_efficiency=0.2,  # placeholder; calibrated below
        runtime_overhead_flops=FRAMEWORK_OVERHEAD_FLOPS,
    )


def make_work(node: NodeSpec) -> WorkModel:
    if not node.gpus:
        return base_work()
    return calibrate_gpu_ratio(base_work(), node, PAPER_GPU_CPU_RATIO)


def sobel_apply(src: np.ndarray, dst: np.ndarray, region: tuple, _param) -> None:
    """Convolve both masks over ``region``; write gradient magnitude.

    Uses the separable form of the masks: with per-row sums
    ``s = src[y, x-1] + 2*src[y, x] + src[y, x+1]`` and diffs
    ``d = src[y, x+1] - src[y, x-1]``, the gradients are
    ``gx = d[y-1] + 2*d[y] + d[y+1]`` and ``gy = s[y+1] - s[y-1]``
    (the weights of :data:`GX`/:data:`GY`).  Everything runs in the grid's
    native dtype through three region-sized buffers: ``d`` and ``s`` (two
    rows taller than ``region``) and ``gx``; ``gy`` overwrites ``d[:-2]``
    once ``gx`` has consumed ``d``, and the square root lands straight in
    ``dst[region]``.  The operation order is that of the plain expression
    ``sqrt(gx*gx + gy*gy)``, so the result is bit-identical to it.
    """
    ys, xs = region
    rows = slice(ys.start - 1, ys.stop + 1)
    left = src[rows, xs.start - 1 : xs.stop - 1]
    mid = src[rows, xs]
    right = src[rows, xs.start + 1 : xs.stop + 1]
    d = np.subtract(right, left)
    s = np.multiply(mid, 2)
    np.add(left, s, out=s)
    np.add(s, right, out=s)
    gx = np.multiply(d[1:-1], 2)
    np.add(d[:-2], gx, out=gx)
    np.add(gx, d[2:], out=gx)
    gy = np.subtract(s[2:], s[:-2], out=d[:-2])
    np.multiply(gx, gx, out=gx)
    np.multiply(gy, gy, out=gy)
    np.add(gx, gy, out=gx)
    np.sqrt(gx, out=dst[region])


#: The kernel with its work model uncalibrated, as the sequential
#: reference sweeps it; :func:`make_kernel` fits the work model to a node.
KERNEL = StencilKernel(
    sobel_apply,
    ((-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)),
    base_work(),
    np.dtype(np.float32),
)


def make_kernel(node: NodeSpec) -> StencilKernel:
    return replace(KERNEL, work=make_work(node))


def rank_program(
    ctx: RankContext,
    config: SobelConfig,
    mix: str,
    kernel: StencilKernel,
    *,
    overlap: bool = True,
    tiling: bool = True,
    time_block: int = 1,
) -> dict:
    """SPMD body: repeated passes of ``kernel`` (:func:`make_kernel` of the
    cluster's node) with per-step timing.

    ``time_block`` enables temporal blocking (``k`` sweeps per deep halo
    exchange); the gathered image stays bit-identical to ``time_block=1``.
    """
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil(overlap=overlap, tiling=tiling)
    st.configure(
        kernel,
        config.functional_shape,
        model_shape=config.shape,
        time_block=time_block,
    )
    st.set_global_grid(synthetic_image(config.functional_shape, seed=config.seed))
    step_times = StepLoop(ctx).run(config.simulated_steps, st.run, block=st.time_block)
    image = st.gather_global()
    env.finalize()
    return {"steps": step_times, "image": image}


def run(
    cluster: ClusterSpec,
    config: SobelConfig | None = None,
    mix: str = "cpu+2gpu",
    *,
    overlap: bool = True,
    tiling: bool = True,
    time_block: int = 1,
    **spmd_kwargs,
) -> AppRun:
    """Run Sobel and report the extrapolated full-run makespan."""
    config = config or SobelConfig()
    result = spmd_run(
        rank_program,
        cluster,
        args=(config, mix, make_kernel(cluster.node)),
        kwargs={"overlap": overlap, "tiling": tiling, "time_block": time_block},
        **spmd_kwargs,
    )
    per_rank_totals = [
        extrapolate_steps(v["steps"], config.iterations) for v in result.values
    ]
    seq = sequential_time(base_work(), config.n_elems, cluster.node, config.iterations)
    return AppRun(
        app="sobel",
        mix=mix,
        nodes=cluster.num_nodes,
        makespan=max(per_rank_totals),
        seq_time=seq,
        result=result.values[0]["image"],
        spmd=result,
    )


def sequential_reference(config: SobelConfig) -> np.ndarray:
    """Sobel's kernel swept by the sequential oracle."""
    image = synthetic_image(config.functional_shape, seed=config.seed)
    for _, new in islice(reference_sweeps(KERNEL, image), config.simulated_steps):
        pass
    return new
