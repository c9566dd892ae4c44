"""Additional applications demonstrating pattern coverage.

The paper argues its three patterns cover "16 out of 23 Rodinia benchmark
applications" (§I).  Beyond the five evaluation apps, this package
implements three more algorithm families on the *unchanged* framework API,
substantiating that coverage claim:

- :mod:`~repro.apps.extra.pagerank` — PageRank: an irregular reduction
  over a *directed* graph (one-sided edge updates) plus a generalized
  reduction for the convergence norm.
- :mod:`~repro.apps.extra.sssp` — single-source shortest paths via
  Bellman-Ford relaxation: an irregular reduction with the **min**
  operator (the non-sum reduction path).
- :mod:`~repro.apps.extra.srad` — Rodinia's SRAD (speckle-reducing
  anisotropic diffusion): a generalized reduction for the ROI statistics
  fused with a radius-2 stencil (the two Rodinia kernels fused through
  halo recomputation).
- :mod:`~repro.apps.extra.hotspot` — Rodinia's HotSpot thermal simulation:
  a stencil whose update reads a static power-map coefficient field (the
  SII-C extension in a real benchmark).
- :mod:`~repro.apps.extra.jacobi2d` — a Jacobi/Poisson solver iterating
  *until convergence*: the fused stencil+reduce pattern (per-step
  residual produced inside the sweep, combined overlapping the next halo
  exchange).

Each module carries a NumPy (and, for the graph apps, a networkx) oracle.
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__, submodules=["pagerank", "sssp", "srad", "hotspot", "jacobi2d"]
)
