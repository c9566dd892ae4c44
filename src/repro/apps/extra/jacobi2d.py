"""Jacobi 2-D Poisson solver — the convergence-driven stencil scenario.

Solves ``laplacian(u) = f`` on the unit square with zero Dirichlet
boundaries by Jacobi iteration, running until the L2 norm of the step
update drops below a tolerance — the iterate-until-converged shape none
of the fixed-step apps express, and the canonical client of the stencil
runtime's fused ``run_until`` loop: the residual is produced inside each
sweep and folded through a combine that overlaps the next halo exchange,
so no step pays a standalone reduction pass.

The right-hand side rides as a *static* (read-only) coefficient field;
the update is the textbook four-point average minus the source term::

    u'[i,j] = 1/4 * (u[i-1,j] + u[i+1,j] + u[i,j-1] + u[i,j+1] - h^2 f[i,j])

Cost model: 6 FLOPs per element over ~24 bytes of traffic (the grid read
amortized across the 5-point neighbourhood, the rhs read, the write) —
memory-bound, like every low-order stencil.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.apps.common import AppRun, sequential_time
from repro.cluster.specs import ClusterSpec
from repro.core.api import StencilKernel, shifted
from repro.core.env import DeviceConfig, RuntimeEnv
from repro.core.stencil import l2_sq_residual, reference_sweeps
from repro.data import memoized
from repro.device.work import WorkModel
from repro.sim.engine import RankContext, spmd_run
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class Jacobi2DConfig:
    """Jacobi/Poisson workload (functional scale only)."""

    shape: tuple[int, int] = (48, 48)
    tol: float = 5e-4
    max_iters: int = 400
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.shape) != 2 or any(s < 8 for s in self.shape):
            raise ValidationError("Jacobi2D needs a 2-D grid with extents >= 8")
        if self.tol <= 0 or self.max_iters < 1:
            raise ValidationError("need tol > 0 and max_iters >= 1")


def work_model() -> WorkModel:
    return WorkModel(name="jacobi2d", flops_per_elem=6.0, bytes_per_elem=24.0)


@memoized
def generate_rhs(config: Jacobi2DConfig) -> np.ndarray:
    """A few smooth Gaussian sources/sinks (deterministic per seed)."""
    rng = np.random.default_rng(config.seed)
    ny, nx = config.shape
    yy, xx = np.meshgrid(np.linspace(0, 1, ny), np.linspace(0, 1, nx), indexing="ij")
    rhs = np.zeros(config.shape)
    for _ in range(4):
        cy, cx = rng.uniform(0.2, 0.8, size=2)
        amp = rng.uniform(-1.0, 1.0)
        rhs += amp * np.exp(-(((yy - cy) ** 2 + (xx - cx) ** 2) / 0.02))
    return rhs


def jacobi_apply(src: np.ndarray, dst: np.ndarray, region: tuple, param) -> None:
    """The damped-free Jacobi update; ``param`` carries h^2 and the rhs field."""
    h_sq = param.param
    rhs = param["rhs"]
    dst[region] = 0.25 * (
        shifted(src, region, (1, 0))
        + shifted(src, region, (-1, 0))
        + shifted(src, region, (0, 1))
        + shifted(src, region, (0, -1))
        - h_sq * rhs[region]
    )


def make_kernel() -> StencilKernel:
    # The grid's four face neighbours, and the rhs field's centre.
    return StencilKernel(jacobi_apply, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), work_model())


def _grid_spacing_sq(config: Jacobi2DConfig) -> float:
    return (1.0 / (max(config.shape) - 1)) ** 2


def rank_program(
    ctx: RankContext,
    config: Jacobi2DConfig,
    mix: str | DeviceConfig = "cpu",
    *,
    time_block: int | str = 1,
) -> dict:
    """SPMD body: fused Jacobi sweeps until the update norm reaches tol.

    ``time_block`` enables temporal blocking (``k`` sweeps per deep halo
    exchange, ``"auto"`` to let the link-table tuner pick); the final
    grid and residual history stay bit-identical to ``time_block=1``.
    """
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil()
    st.configure(
        make_kernel(),
        config.shape,
        parameter=_grid_spacing_sq(config),
        static_fields={"rhs": generate_rhs(config)},
        time_block=time_block,
    )
    st.set_global_grid(np.zeros(config.shape))
    res = st.run_until(max_iters=config.max_iters, tol=config.tol)
    grid = st.gather_global()
    env.finalize()
    return {
        "grid": grid,
        "iterations": res.iterations,
        "residuals": res.residuals,
        "converged": res.converged,
        "time_block": st.time_block,
    }


def run(
    cluster: ClusterSpec,
    config: Jacobi2DConfig | None = None,
    mix: str | DeviceConfig = "cpu",
    *,
    time_block: int | str = 1,
    **spmd_kwargs,
) -> AppRun:
    """Run Jacobi2D to convergence; the makespan is the loop's actual time."""
    config = config or Jacobi2DConfig()
    result = spmd_run(
        rank_program,
        cluster,
        args=(config, mix),
        kwargs={"time_block": time_block},
        **spmd_kwargs,
    )
    iterations = result.values[0]["iterations"]
    seq = sequential_time(
        work_model(), float(np.prod(config.shape)), cluster.node, iterations
    )
    return AppRun(
        app="jacobi2d",
        mix=mix if isinstance(mix, str) else mix.label(),
        nodes=cluster.num_nodes,
        makespan=result.makespan,
        seq_time=seq,
        result=result.values[0]["grid"],
        spmd=result,
    )


def sequential_reference(config: Jacobi2DConfig) -> tuple[np.ndarray, int, list[float]]:
    """Jacobi's kernel swept by the sequential oracle until the update norm
    reaches tol.

    Returns (final grid, iterations, residual history); the residual is
    the runtime's, ``sqrt`` of :func:`l2_sq_residual`.
    """
    sweeps = reference_sweeps(
        make_kernel(),
        np.zeros(config.shape),
        parameter=_grid_spacing_sq(config),
        static_fields={"rhs": generate_rhs(config)},
    )
    residuals: list[float] = []
    for old, new in islice(sweeps, config.max_iters):
        residuals.append(math.sqrt(l2_sq_residual(old, new)))
        if residuals[-1] <= config.tol:
            break
    return new, len(residuals), residuals
