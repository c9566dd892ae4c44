"""Sobel edge detection on the framework — the paper's 9-point stencil.

Usage:  python examples/sobel_edges.py
"""

import numpy as np

from repro.apps.sobel import GX, GY, SobelConfig, make_work
from repro.cluster import ohio_cluster
from repro.core import RuntimeEnv, StencilKernel, shifted
from repro.data import synthetic_image
from repro.sim import spmd_run

CFG = SobelConfig(functional_shape=(512, 512), simulated_steps=2)
# The footprint sobel reads: the eight neighbours (both masks weigh the centre 0).
RING = tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dy or dx)


def sobel(src, dst, region, _param):
    """stencil_fp: convolve both 3x3 masks, write gradient magnitude."""
    gx = np.zeros_like(src[region])
    gy = np.zeros_like(src[region])
    for dy, dx in RING:
        neighbour = shifted(src, region, (dy, dx))
        gx += GX[dy + 1, dx + 1] * neighbour
        gy += GY[dy + 1, dx + 1] * neighbour
    dst[region] = np.sqrt(gx * gx + gy * gy)


def main(ctx):
    env = RuntimeEnv(ctx, "cpu+2gpu")
    st = env.get_stencil()
    st.configure(StencilKernel(sobel, RING, make_work(ctx.node), dtype=np.dtype(np.float32)),
                 CFG.functional_shape, model_shape=CFG.shape)
    st.set_global_grid(synthetic_image(CFG.functional_shape, seed=CFG.seed))
    st.run(CFG.simulated_steps)
    env.finalize()
    return st.gather_global()


if __name__ == "__main__":
    result = spmd_run(main, ohio_cluster(4))
    edges = result.values[0]
    strong = (edges > np.percentile(edges, 95)).mean()
    print(f"edge map {edges.shape}: {strong:.1%} strong-edge pixels, max {edges.max():.2f}")
    print(f"simulated time on 4 nodes: {result.makespan * 1e3:.2f} ms")
