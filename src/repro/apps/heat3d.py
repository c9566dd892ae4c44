"""Heat3D — 3-D heat diffusion, the paper's 7-point stencil application.

Paper workload (§IV-A): a 512x512x512 double-precision grid, 100
iterations, compared against a widely-distributed MPI implementation.

The kernel is the classic explicit Jacobi update::

    out[i,j,k] = in[i,j,k] + alpha * (sum of 6 face neighbours - 6*in[i,j,k])

Cost model: 10 FLOPs and ~16 bytes of memory traffic per element (one
8-byte read amortized by cache reuse across the 7-point neighbourhood plus
one 8-byte write) — memory-bound on the CPU, as on real hardware.  GPU
efficiency is calibrated to the paper's measured GPU : 12-core-CPU
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import islice

import numpy as np

from repro.apps.calibrate import calibrate_gpu_ratio
from repro.apps.common import AppRun, StepLoop, extrapolated_makespan, sequential_time
from repro.cluster.specs import ClusterSpec, NodeSpec
from repro.core.api import StencilKernel
from repro.core.env import RuntimeEnv
from repro.core.stencil import reference_sweeps
from repro.data.grids import heat3d_initial
from repro.device.work import WorkModel
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ValidationError

#: Paper-measured single-node ratio (§IV-C): GPU vs 12-core CPU.
PAPER_GPU_CPU_RATIO = 2.4

#: Diffusion coefficient of the update (stability requires < 1/6).
ALPHA = 0.1


@dataclass(frozen=True)
class Heat3DConfig:
    """Heat3D workload description."""

    shape: tuple[int, int, int] = (512, 512, 512)
    functional_shape: tuple[int, int, int] = (48, 48, 48)
    iterations: int = 100
    simulated_steps: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.shape) != 3 or len(self.functional_shape) != 3:
            raise ValidationError("Heat3D grids are 3-D")
        for f, m in zip(self.functional_shape, self.shape):
            if f > m:
                raise ValidationError("functional_shape must not exceed shape")
        if not 1 <= self.simulated_steps <= self.iterations:
            raise ValidationError("need 1 <= simulated_steps <= iterations")

    @property
    def n_elems(self) -> int:
        return int(np.prod(self.shape))


def base_work() -> WorkModel:
    """Uncalibrated per-element cost model (double precision)."""
    return WorkModel(
        name="heat3d.jacobi",
        flops_per_elem=10.0,
        bytes_per_elem=16.0,
        cpu_efficiency=0.60,
        cpu_mem_efficiency=0.90,
        gpu_efficiency=0.5,  # placeholder; calibrated below
        runtime_overhead_flops=0.5,
    )


def make_work(node: NodeSpec) -> WorkModel:
    if not node.gpus:
        return base_work()
    return calibrate_gpu_ratio(base_work(), node, PAPER_GPU_CPU_RATIO)


def heat_apply(src: np.ndarray, dst: np.ndarray, region: tuple, alpha) -> None:
    """The 7-point Jacobi update over ``region`` (vectorized ``stencil_fp``).

    Accumulates the six neighbour planes into one *contiguous* temporary
    (in-place adds on a strided ``dst[region]`` view are slower than a
    single strided write at the end), then finishes the update as
    ``alpha * (acc - 6*center) + center`` — bit-identical to the naive
    expression, with one temporary instead of one per operator.

    The six neighbour views are sliced inline rather than via
    :func:`repro.core.api.shifted`: the stencil runtime calls this kernel
    once per device region per step, and for the thin boundary slabs the
    checked helper's per-call validation costs as much as the math.  The
    slices are exactly what ``shifted(src, region, off)`` would produce.
    """
    ys, xs, zs = region
    center = src[region]
    acc = src[ys.start + 1 : ys.stop + 1, xs, zs] + src[ys.start - 1 : ys.stop - 1, xs, zs]
    acc += src[ys, xs.start + 1 : xs.stop + 1, zs]
    acc += src[ys, xs.start - 1 : xs.stop - 1, zs]
    acc += src[ys, xs, zs.start + 1 : zs.stop + 1]
    acc += src[ys, xs, zs.start - 1 : zs.stop - 1]
    acc -= 6.0 * center
    acc *= alpha
    acc += center
    dst[region] = acc


#: The kernel with its work model uncalibrated, as the sequential
#: reference sweeps it; :func:`make_kernel` fits the work model to a node.
KERNEL = StencilKernel(
    heat_apply,
    ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)),
    base_work(),
)


def make_kernel(node: NodeSpec) -> StencilKernel:
    return replace(KERNEL, work=make_work(node))


def rank_program(
    ctx: RankContext,
    config: Heat3DConfig,
    mix: str,
    kernel: StencilKernel,
    *,
    overlap: bool = True,
    tiling: bool = True,
    reliable: bool = False,
    checkpoint_every: int | None = None,
    until_tol: float | None = None,
    max_iters: int | None = None,
    time_block: int = 1,
) -> dict:
    """SPMD body: run ``simulated_steps`` of ``kernel`` (:func:`make_kernel`
    of the cluster's node), report per-step times.

    The benchmark extrapolates the measured steady-state step time to the
    paper's full iteration count (see
    :func:`repro.apps.common.extrapolated_makespan`).

    ``reliable`` and ``checkpoint_every`` (snapshot cadence in exchange
    rounds) are the :class:`~repro.apps.common.StepLoop` switches: run
    bit-identically under a lossy fault plan, and recover an injected
    rank crash from the last checkpoint instead of failing the run.

    ``until_tol`` switches to the convergence-driven variant: a fused
    stencil+reduce loop (:meth:`~repro.core.stencil.StencilRuntime.
    run_until`) that stops once the L2 norm of the step update
    drops to the tolerance, or after ``max_iters`` (default:
    ``config.iterations``).  Every simulated step is then a real step —
    no extrapolation — and the result carries the residual history.

    ``time_block`` sets the sweeps per halo exchange round; grids and
    residual histories are bit-identical for every value.
    """
    loop = StepLoop(ctx, reliable=reliable, checkpoint_every=checkpoint_every)
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil(overlap=overlap, tiling=tiling)
    st.configure(
        kernel,
        config.functional_shape,
        model_shape=config.shape,
        parameter=ALPHA,
        time_block=time_block,
    )
    st.set_global_grid(heat3d_initial(config.functional_shape, seed=config.seed))
    if until_tol is None:
        out = {
            "steps": loop.run(
                config.simulated_steps,
                st.run,
                st.snapshot_state,
                st.restore_state,
                block=st.time_block,
            )
        }
    else:
        res = st.run_until(
            max_iters=max_iters if max_iters is not None else config.iterations,
            tol=until_tol,
            checkpoint=loop.manager,
        )
        out = {
            "steps": [],
            "iterations": res.iterations,
            "residuals": res.residuals,
            # A scalar copy: a result payload keeps no list above 256 entries.
            "final_residual": res.residuals[-1],
            "converged": res.converged,
        }
    out["grid"] = st.gather_global()
    env.finalize()
    out["recoveries"] = loop.finish()
    return out


def run(
    cluster: ClusterSpec,
    config: Heat3DConfig | None = None,
    mix: str = "cpu+2gpu",
    *,
    overlap: bool = True,
    tiling: bool = True,
    reliable: bool = False,
    checkpoint_every: int | None = None,
    until_tol: float | None = None,
    max_iters: int | None = None,
    time_block: int = 1,
    **spmd_kwargs,
) -> AppRun:
    """Run Heat3D and report the extrapolated full-run makespan.

    With ``until_tol`` the run is convergence-driven: the makespan is the
    loop's actual virtual time (every iteration really runs; nothing to
    extrapolate) and the sequential baseline is scaled to the iteration
    count the loop took.  ``max_iters`` caps that loop, so it needs
    ``until_tol``, and ``until_tol`` must be a norm the loop can reach: > 0.
    """
    if max_iters is not None and until_tol is None:
        raise ValidationError("max_iters caps the until_tol loop; set until_tol too")
    if until_tol is not None and not until_tol > 0:
        raise ValidationError(f"until_tol must be > 0, got {until_tol!r}")
    config = config or Heat3DConfig()
    result = spmd_run(
        rank_program,
        cluster,
        args=(config, mix, make_kernel(cluster.node)),
        kwargs={
            "overlap": overlap,
            "tiling": tiling,
            "reliable": reliable,
            "checkpoint_every": checkpoint_every,
            "until_tol": until_tol,
            "max_iters": max_iters,
            "time_block": time_block,
        },
        **spmd_kwargs,
    )
    if until_tol is not None:
        makespan = result.makespan
        iterations = result.values[0]["iterations"]
    else:
        makespan = extrapolated_makespan(result.values, config)
        iterations = config.iterations
    seq = sequential_time(base_work(), config.n_elems, cluster.node, iterations)
    return AppRun(
        app="heat3d",
        mix=mix,
        nodes=cluster.num_nodes,
        makespan=makespan,
        seq_time=seq,
        result=result.values[0]["grid"],
        spmd=result,
    )


def sequential_reference(config: Heat3DConfig) -> np.ndarray:
    """Heat3D's kernel swept by the sequential oracle."""
    grid = heat3d_initial(config.functional_shape, seed=config.seed)
    sweeps = reference_sweeps(KERNEL, grid, parameter=ALPHA)
    for _, new in islice(sweeps, config.simulated_steps):
        pass
    return new
