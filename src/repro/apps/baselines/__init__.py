"""Hand-written baselines the paper compares against (§IV-C, Fig. 5/6/8).

These are deliberately written in explicit message-passing style — manual
partitioning, manual halo exchange, blocking communication, no tiling, no
overlap — because they stand in for the hand-written benchmarks the paper
used (Northwestern Kmeans, GWU UPC Sobel, dournac.org Heat3D, Mantevo
MiniMD, Rodinia/SDK CUDA kernels).  They serve three purposes:

1. **Performance comparators** for Fig. 5 (MPI, one rank per core — except
   MiniMD, whose Mantevo code is MPI+OpenMP, one rank per node) and Fig. 8
   (hand-tuned single-GPU CUDA);
2. **Code-size comparators** for Fig. 6 — their verbosity is the point;
3. **Independent correctness oracles**: they compute the same answers
   through a different code path.

Each is a row of the app registry (:mod:`repro.apps.registry`):
``kmeans-mpi``, ``minimd-mpi``, ``sobel-mpi``, ``heat3d-mpi``,
``kmeans-cuda`` and ``sobel-cuda``, run by a ``JobSpec`` like any app —
mix ``cpu`` for the MPI baselines, ``1gpu`` on one node for the CUDA ones.

Cost accounting: hand-written kernels charge ``framework=False`` device
rates (no runtime bookkeeping overhead) directly onto the rank clock.
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): running one baseline loads none of the others.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    submodules=["mpi_kmeans", "mpi_sobel", "mpi_heat3d", "mpi_minimd", "cuda_kmeans", "cuda_sobel"],
)
