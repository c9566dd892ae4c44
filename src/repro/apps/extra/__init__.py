"""Additional applications beyond the paper's five evaluation apps.

- :mod:`~repro.apps.extra.jacobi2d` — a Jacobi/Poisson solver iterating
  *until convergence*: the fused stencil+reduce pattern (per-step
  residual produced inside the sweep, combined overlapping the next halo
  exchange) over a static coefficient field.  The wall-clock bench, the
  end-to-end workloads and the time-block ablation run it.

It carries a NumPy oracle (``sequential_reference``).
"""

from repro.util.lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, submodules=["jacobi2d"])
