"""Heat3D on the framework — the paper's 7-point stencil application.

User-level program: one vectorized stencil function; decomposition, halo
exchange, device splitting, tiling, and overlap are the framework's job.

Usage:  python examples/heat_diffusion.py
"""

from repro.apps.heat3d import ALPHA, Heat3DConfig, make_work
from repro.cluster import ohio_cluster
from repro.core import RuntimeEnv, StencilKernel, shifted
from repro.data import heat3d_initial
from repro.sim import spmd_run

CFG = Heat3DConfig(functional_shape=(40, 40, 40), simulated_steps=10)
# The footprint heat_step reads: the centre and its six face neighbours.
STAR = ((0, 0, 0), (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))


def heat_step(src, dst, region, alpha):
    """stencil_fp: explicit 7-point Jacobi update."""
    center = src[region]
    neighbours = (
        shifted(src, region, (1, 0, 0)) + shifted(src, region, (-1, 0, 0))
        + shifted(src, region, (0, 1, 0)) + shifted(src, region, (0, -1, 0))
        + shifted(src, region, (0, 0, 1)) + shifted(src, region, (0, 0, -1)))
    dst[region] = center + alpha * (neighbours - 6.0 * center)


def main(ctx):
    env = RuntimeEnv(ctx, "cpu+2gpu")
    st = env.get_stencil()
    st.configure(StencilKernel(heat_step, STAR, make_work(ctx.node)),
                 CFG.functional_shape, model_shape=CFG.shape, parameter=ALPHA)
    st.set_global_grid(heat3d_initial(CFG.functional_shape, seed=CFG.seed))
    st.run(CFG.simulated_steps)
    env.finalize()
    return st.gather_global()


if __name__ == "__main__":
    result = spmd_run(main, ohio_cluster(8))
    grid = result.values[0]
    print(f"grid {grid.shape}: peak temperature {grid.max():.2f}, mean {grid.mean():.4f}")
    print(f"simulated time for {CFG.simulated_steps} steps on 8 nodes: "
          f"{result.makespan * 1e3:.2f} ms")
