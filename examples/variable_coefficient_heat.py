"""Extension: variable-coefficient heat diffusion with static fields.

The paper's SII-C notes the framework processes "only a single target
object" per launch; this reproduction lifts that for read-only coefficient
fields.  Here a spatially varying diffusivity map (an insulating wall with
a gap) is registered as a static field; the kernel reads it alongside the
evolving temperature grid through the same ``shifted`` accessors.

Usage:  python examples/variable_coefficient_heat.py
"""

import numpy as np

from repro.cluster import ohio_cluster
from repro.core import RuntimeEnv, StencilKernel, shifted
from repro.core.stencil import StencilFields
from repro.device import WorkModel
from repro.sim import spmd_run

SHAPE = (48, 48)
ALPHA = 0.2
STEPS = 200

# Hot plate on the left; a low-diffusivity wall near it, with a gap.
GRID = np.zeros(SHAPE)
GRID[:, :6] = 100.0
KAPPA = np.ones(SHAPE)
KAPPA[:, 10:12] = 0.01
KAPPA[20:28, 10:12] = 1.0  # the gap

# Each face flux reads the cell and one face neighbour, of the grid and of kappa.
FACES = ((1, 0), (-1, 0), (0, 1), (0, -1))
WORK = WorkModel(name="varheat", flops_per_elem=18, bytes_per_elem=48, cpu_efficiency=0.6)


def diffuse(src, dst, region, ctx: StencilFields):
    """Flux-limited update: du = alpha * sum(kappa_face * (neighbour - u))."""
    kappa = ctx["kappa"]

    def face_flux(offset):
        k_face = 0.5 * (kappa[region] + shifted(kappa, region, offset))
        return k_face * (shifted(src, region, offset) - src[region])

    dst[region] = src[region] + ctx.param * sum(face_flux(offset) for offset in FACES)


def main(ctx):
    env = RuntimeEnv(ctx, "cpu+2gpu")
    st = env.get_stencil()
    st.configure(
        StencilKernel(diffuse, ((0, 0),) + FACES, WORK),
        SHAPE,
        parameter=ALPHA,
        static_fields={"kappa": KAPPA},
    )
    st.set_global_grid(GRID)
    st.run(STEPS)
    env.finalize()
    return st.gather_global()


if __name__ == "__main__":
    result = spmd_run(main, ohio_cluster(4))
    grid = result.values[0]
    left = grid[:, :10].mean()
    right = grid[:, 12:].mean()
    gap_row = grid[24, 12:18].mean()
    wall_row = grid[4, 12:18].mean()
    print(f"after {STEPS} steps: left side {left:.2f}, right side {right:.2f}")
    print(f"heat crosses mainly through the gap: behind gap {gap_row:.3f} "
          f"vs behind wall {wall_row:.3f}")
    assert gap_row > wall_row
    print(f"simulated time on 4 nodes: {result.makespan * 1e3:.2f} ms")
