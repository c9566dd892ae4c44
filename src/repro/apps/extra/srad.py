"""SRAD (speckle-reducing anisotropic diffusion) — a Rodinia benchmark.

Exercises the multi-pattern composition the paper's coverage claim rests
on.  Each iteration of Rodinia's SRAD is:

1. a **global reduction** over the image for the ROI statistics (mean
   and variance give the speckle scale ``q0^2``) — here *fused into the
   sweep* by the stencil runtime's ``run_until``: every step's statistics
   are produced by the kernel pass itself and combined while the next halo
   exchange is in flight, so no iteration pays a separate stats pass
   (only the first step primes from the initial image), then
2. two stencil passes: a diffusion-coefficient field ``c`` from the
   local gradients, then the image update from ``c`` at the east/south
   neighbours.

The two stencil passes are *fused* into one radius-2 kernel: the update at
``x`` needs ``c`` at ``x`` and at its west/north neighbours, and each
``c`` needs image values one step further out — so recomputing ``c``
inside a halo-2 kernel avoids a second evolving grid (the paper's §II-C
single-object limitation) at the cost of redundant arithmetic, exactly the
trade fused GPU stencils make.

SRAD is **not** temporal-blocking-safe: the diffusion coefficient of
sweep ``s+1`` depends on the *globally combined* statistics of sweep
``s`` (fed back through ``on_value``), so sweeps cannot be batched
between exchanges.  The runtime enforces this — ``run_until`` rejects
``on_value`` callbacks when ``time_block > 1`` — and SRAD always runs
at ``time_block=1``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.api import StencilKernel, shifted
from repro.core.env import DeviceConfig, RuntimeEnv
from repro.data.grids import synthetic_image
from repro.device.work import WorkModel
from repro.sim.engine import RankContext
from repro.util.errors import ValidationError


@dataclass(frozen=True)
class SradConfig:
    """SRAD workload (functional scale only)."""

    shape: tuple[int, int] = (64, 64)
    iterations: int = 4
    lam: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.shape) != 2 or any(s < 8 for s in self.shape):
            raise ValidationError("SRAD needs a 2-D image with extents >= 8")
        if not 0 < self.lam <= 1:
            raise ValidationError("lam must be in (0, 1]")


#: Per-element flops of the fused (sum, sum-of-squares) accumulation.
STATS_FUSED_FLOPS = 3.0


def update_work() -> WorkModel:
    return WorkModel(name="srad.update", flops_per_elem=60.0, bytes_per_elem=24.0)


def _coefficient(src: np.ndarray, region: tuple, q0_sq: float) -> np.ndarray:
    """The diffusion coefficient ``c`` over ``region`` (Rodinia's formula)."""
    j = src[region]
    dn = shifted(src, region, (-1, 0)) - j
    ds = shifted(src, region, (1, 0)) - j
    dw = shifted(src, region, (0, -1)) - j
    de = shifted(src, region, (0, 1)) - j
    j_safe = np.maximum(j, 1e-12)
    g2 = (dn * dn + ds * ds + dw * dw + de * de) / (j_safe * j_safe)
    l_ = (dn + ds + dw + de) / j_safe
    num = 0.5 * g2 - (1.0 / 16.0) * l_ * l_
    den_inner = 1.0 + 0.25 * l_
    q_sq = num / np.maximum(den_inner * den_inner, 1e-12)
    den = (q_sq - q0_sq) / max(q0_sq * (1 + q0_sq), 1e-12)
    c = 1.0 / (1.0 + den)
    return np.clip(c, 0.0, 1.0)


def make_update_kernel(lam: float) -> StencilKernel:
    """Fused halo-2 kernel: recompute ``c`` where needed, apply the update."""

    def apply(src, dst, region, q0_sq):
        def shift_region(dr, dc):
            return tuple(
                slice(sl.start + d, sl.stop + d) for sl, d in zip(region, (dr, dc))
            )

        c_here = _coefficient(src, region, q0_sq)
        c_south = _coefficient(src, shift_region(1, 0), q0_sq)
        c_east = _coefficient(src, shift_region(0, 1), q0_sq)
        j = src[region]
        dn = shifted(src, region, (-1, 0)) - j
        ds = shifted(src, region, (1, 0)) - j
        dw = shifted(src, region, (0, -1)) - j
        de = shifted(src, region, (0, 1)) - j
        divergence = c_south * ds + c_here * dn + c_east * de + c_here * dw
        dst[region] = j + (lam / 4.0) * divergence

    # ``c`` at the cell and at its south and east neighbours, each from
    # that point's centre and four face neighbours.
    five = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))
    offsets = sorted({(r + fr, c + fc) for r, c in ((0, 0), (1, 0), (0, 1)) for fr, fc in five})
    return StencilKernel(apply, offsets, update_work())


def _q0_sq_from_stats(total: float, total_sq: float, count: float) -> float:
    """Rodinia's speckle scale from the ROI sum / sum-of-squares."""
    mean = total / count
    var = total_sq / count - mean * mean
    return max(var / max(mean * mean, 1e-12), 1e-12)


def rank_program(
    ctx: RankContext, config: SradConfig, mix: str | DeviceConfig = "cpu"
) -> np.ndarray | None:
    """SPMD body: fused statistics + diffusion stencil per iteration.

    The norm loop is the stencil runtime's fused ``run_until``: each sweep
    also produces the local (sum, sum of squares) of the *new* image, and
    the combine — overlapping the next step's halo exchange — yields the
    global statistics that set ``q0^2`` for the following step.  Only the
    very first step's statistics (of the initial image, before any sweep
    exists to fuse into) need a standalone priming reduction.
    """
    image = synthetic_image(config.shape, seed=config.seed).astype(np.float64) + 0.05

    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil()
    st.configure(make_update_kernel(config.lam), config.shape)
    st.set_global_grid(image)

    count = float(np.prod(config.shape))
    local = st.local_interior()
    primed = env.comm.allreduce(
        np.array([local.sum(), (local**2).sum()]), op="sum"
    )
    st.set_parameter(_q0_sq_from_stats(float(primed[0]), float(primed[1]), count))

    def stats_fn(_old: np.ndarray, new: np.ndarray) -> np.ndarray:
        return np.array([new.sum(), (new**2).sum()])

    def on_stats(stats: np.ndarray) -> None:
        st.set_parameter(_q0_sq_from_stats(float(stats[0]), float(stats[1]), count))

    st.run_until(
        max_iters=config.iterations,
        tol=None,  # fixed iteration count, like Rodinia
        reduce_fn=stats_fn,
        residual_fn=lambda stats: float(stats[0]),
        on_value=on_stats,
        reduce_flops=STATS_FUSED_FLOPS,
    )

    env.finalize()
    return st.gather_global()


def sequential_reference(config: SradConfig) -> np.ndarray:
    """SRAD's kernel on one zero-bordered image; unlike
    :func:`~repro.core.stencil.reference_sweeps`, it recomputes ``q0^2``
    from the image's mean and variance before every sweep."""
    kernel = make_update_kernel(config.lam)
    h = kernel.halo
    image = synthetic_image(config.shape, seed=config.seed).astype(np.float64) + 0.05
    src = np.pad(image, h)
    dst = np.zeros_like(src)
    region = tuple(slice(h, h + n) for n in config.shape)
    for _ in range(config.iterations):
        interior = src[region]
        mean = interior.mean()
        q0_sq = max(interior.var() / max(mean * mean, 1e-12), 1e-12)
        kernel.apply(src, dst, region, q0_sq)
        src, dst = dst, src
    return src[region]
