"""Synthetic dataset generators (the paper's inputs, scaled).

The paper's datasets (a 2.3 GB point file, a 130 M-edge mesh, a 500 k-atom
box, a 32768x32768 image, a 512^3 grid) are not shippable; these generators
produce statistically similar inputs at any scale from a single seed, and
the benchmarks charge the cost model at paper scale (see
:func:`repro.device.work.scaled`).

All generators are deterministic given their seed (see
:mod:`repro.util.rng`) so every rank of an SPMD run can generate the same
global dataset locally instead of broadcasting it.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "points": ["clear_points_cache", "clustered_points", "points_cache_stats"],
        "meshes": ["geometric_mesh", "random_mesh"],
        "atoms": ["fcc_lattice", "build_neighbor_edges"],
        "grids": ["heat3d_initial", "synthetic_image"],
    },
)
