"""HotSpot — Rodinia's thermal simulation, a stencil with a power map.

HotSpot models processor die temperature: the evolving grid is the
temperature field, and each cell's update draws on a **static power map**
(the per-block dissipation of the floorplan) plus its four neighbours and
the ambient sink::

    T' = T + dt/cap * ( P + (T_n + T_s - 2T)/Ry
                          + (T_e + T_w - 2T)/Rx
                          + (T_amb - T)/Rz )

This is exactly the shape the static-fields extension exists for: the
power map rides along as a read-only coefficient field with the same
decomposition and halo padding as the temperature grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

import numpy as np

from repro.core.api import StencilKernel, shifted
from repro.core.env import DeviceConfig, RuntimeEnv
from repro.core.stencil import StencilFields, reference_sweeps
from repro.data import memoized
from repro.device.work import WorkModel
from repro.sim.engine import RankContext
from repro.util.errors import ValidationError
from repro.util.rng import derive_seed, seeded_rng

T_AMBIENT = 80.0
CAP = 0.5
RX, RY, RZ = 1.0, 1.0, 4.0
DT = 0.05


@dataclass(frozen=True)
class HotspotConfig:
    """HotSpot workload (functional scale only)."""

    shape: tuple[int, int] = (64, 64)
    iterations: int = 20
    hot_blocks: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if len(self.shape) != 2 or any(s < 16 for s in self.shape):
            raise ValidationError("HotSpot needs a 2-D die with extents >= 16")
        if self.iterations < 1 or self.hot_blocks < 1:
            raise ValidationError("iterations and hot_blocks must be >= 1")


def work() -> WorkModel:
    return WorkModel(name="hotspot.step", flops_per_elem=15.0, bytes_per_elem=24.0)


@memoized
def generate_power_map(config: HotspotConfig) -> np.ndarray:
    """A floorplan-like power map: a few hot rectangular units on a
    low-power background."""
    rng = seeded_rng(derive_seed(config.seed, "hotspot", config.shape))
    power = np.full(config.shape, 0.05)
    h, w = config.shape
    for _ in range(config.hot_blocks):
        y0, x0 = rng.integers(0, h - 8), rng.integers(0, w - 8)
        hh, ww = int(rng.integers(4, h // 4)), int(rng.integers(4, w // 4))
        power[y0 : y0 + hh, x0 : x0 + ww] += float(rng.random()) * 3.0 + 1.0
    return power


def hotspot_apply(src, dst, region, ctx: StencilFields) -> None:
    """stencil_fp: one explicit thermal step (Rodinia's update rule)."""
    temp = src[region]
    power = ctx["power"][region]
    vertical = shifted(src, region, (1, 0)) + shifted(src, region, (-1, 0)) - 2.0 * temp
    horizontal = shifted(src, region, (0, 1)) + shifted(src, region, (0, -1)) - 2.0 * temp
    dst[region] = temp + (DT / CAP) * (
        power + vertical / RY + horizontal / RX + (T_AMBIENT - temp) / RZ
    )


def make_kernel() -> StencilKernel:
    return StencilKernel(hotspot_apply, ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)), work())


def rank_program(
    ctx: RankContext,
    config: HotspotConfig,
    mix: str | DeviceConfig = "cpu",
    *,
    time_block: int | str = 1,
) -> np.ndarray | None:
    """SPMD body: decompose die + power map, iterate the thermal stencil.

    The power map is a pure per-cell coefficient, so the kernel is
    temporal-blocking-safe: ``time_block=k`` widens the static field's
    padding along with the halo and yields bit-identical temperatures.
    """
    power = generate_power_map(config)
    env = RuntimeEnv(ctx, mix)
    st = env.get_stencil()
    st.configure(
        make_kernel(),
        config.shape,
        static_fields={"power": power},
        time_block=time_block,
    )
    st.set_global_grid(np.full(config.shape, T_AMBIENT))
    st.run(config.iterations)
    env.finalize()
    return st.gather_global()


def sequential_reference(config: HotspotConfig) -> np.ndarray:
    """HotSpot's kernel swept by the sequential oracle."""
    sweeps = reference_sweeps(
        make_kernel(),
        np.full(config.shape, T_AMBIENT),
        static_fields={"power": generate_power_map(config)},
    )
    for _, new in islice(sweeps, config.iterations):
        pass
    return new
