"""The paper's five evaluation applications, on the framework.

Each app module provides:

- a ``*Config`` dataclass (paper-scale defaults; ``functional_*`` fields
  control the scaled-down arrays the math actually runs on);
- calibrated :class:`~repro.device.work.WorkModel` constructors — per-app
  efficiencies are solved so the single-node GPU/CPU speed ratio matches
  the paper's own measurement (§IV-C), the one number we take as input;
- ``rank_program`` — the SPMD body using the framework API;
- ``run`` — drives :func:`repro.sim.spmd_run` over a cluster and device
  mix, returning an :class:`~repro.apps.common.AppRun` with the simulated
  makespan and the modeled sequential (single-core) time for speedups;
- ``sequential_reference`` — the correctness oracle the tests use: a
  plain NumPy implementation, or for a stencil app its own kernel swept
  by :func:`repro.core.stencil.reference_sweeps`.

Hand-written baselines (MPI one-rank-per-core, CUDA single-GPU) live in
:mod:`repro.apps.baselines`.
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): ``import repro.apps.heat3d`` must not load its siblings.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {"common": ["AppRun", "extrapolate_steps", "single_core_spec"]},
    submodules=["kmeans", "moldyn", "minimd", "sobel", "heat3d"],
)
