"""Hand-written single-GPU CUDA Sobel, after the NVIDIA SDK sample.

The Fig. 8 comparator.  The SDK kernel stages the input through *texture
memory*, an application-specific optimization the paper notes the
framework "cannot perform" — modeled as a modest efficiency gain on top of
dropping the framework's offset-computation overhead.  Together they
produce the paper's gap (ledger row ``fig8.sobel``).
"""

from __future__ import annotations

import numpy as np

from repro.apps import sobel as fw_sobel
from repro.apps.common import AppRun, StepLoop, check_run, extrapolated_makespan, sequential_time
from repro.cluster.specs import ClusterSpec
from repro.device.gpu import GPUDevice
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ConfigurationError

#: Texture staging improves the achieved throughput of the neighbour reads
#: (2-D-locality caching) and removes read stalls from the compute loop.
TEXTURE_EFFICIENCY_GAIN = 1.15


def rank_program(ctx: RankContext, config: fw_sobel.SobelConfig) -> dict:
    if not ctx.node.gpus:
        raise ConfigurationError("cuda_sobel needs a GPU")
    gpu = GPUDevice(ctx.node.gpus[0])
    work = fw_sobel.make_work(ctx.node)
    work = work.replace(
        gpu_efficiency=min(1.0, work.gpu_efficiency * TEXTURE_EFFICIENCY_GAIN),
        gpu_mem_efficiency=min(1.0, work.gpu_mem_efficiency * TEXTURE_EFFICIENCY_GAIN),
    )

    image = fw_sobel.synthetic_image(config.functional_shape, seed=config.seed)
    shape = image.shape
    src = np.zeros((shape[0] + 2, shape[1] + 2), dtype=np.float32)
    src[1:-1, 1:-1] = image
    dst = np.zeros_like(src)
    region = (slice(1, shape[0] + 1), slice(1, shape[1] + 1))
    n_model = int(np.prod(config.shape))

    # The initial host->device image copy is *setup* — the paper's timings
    # "do not include application setup and initialization times".
    def advance(_steps: int) -> None:
        nonlocal src, dst
        fw_sobel.sobel_apply(src, dst, region, None)
        ctx.clock.advance(gpu.kernel_time(work, n_model, framework=False))
        src, dst = dst, src
        src[0, :] = src[-1, :] = 0
        src[:, 0] = src[:, -1] = 0

    step_times = StepLoop(ctx).run(config.simulated_steps, advance)
    return {"steps": step_times, "image": src[region].copy()}


def run(cluster: ClusterSpec, config: fw_sobel.SobelConfig, mix: str = "1gpu", **kw) -> AppRun:
    """Run the hand-written CUDA baseline on the first GPU of a one-node ``cluster``
    (``mix`` is ``"1gpu"`` only)."""
    check_run("sobel-cuda", cluster, mix)
    result = spmd_run(rank_program, cluster, args=(config,), **kw)
    seq = sequential_time(fw_sobel.base_work(), config.n_elems, cluster.node, config.iterations)
    return AppRun(
        app="sobel-cuda",
        mix="cuda-1gpu",
        nodes=1,
        makespan=extrapolated_makespan(result.values, config),
        seq_time=seq,
        result=result.values[0]["image"],
        spmd=result,
    )
