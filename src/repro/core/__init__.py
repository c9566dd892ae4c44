"""The pattern framework: the paper's primary contribution.

Public surface (mirrors the paper's Listing 2 flow):

.. code-block:: python

    from repro.core import RuntimeEnv, DeviceConfig

    def rank_program(ctx):
        env = RuntimeEnv(ctx, DeviceConfig(use_cpu=True, num_gpus=2))
        gr = env.get_GR()                 # generalized reductions
        ir = env.get_IR()                 # irregular reductions
        st = env.get_stencil()            # stencil computations
        ...
        env.finalize()

Each runtime accepts the paper's user-defined functions (emit/reduce, edge
compute/node reduce, stencil function) in *vectorized batch* form (the fast
path) or classic per-element form via the adapters in
:mod:`repro.core.api`.
"""

from repro.util.lazy import lazy_exports

# Lazy (PEP 562): a stencil job must not load the reduction runtimes.
__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "api": [
            "GRKernel",
            "IRKernel",
            "StencilKernel",
            "elementwise_emit",
            "elementwise_edge_compute",
            "elementwise_stencil",
            "shifted",
            "REDUCTION_OPS",
        ],
        "reduction_object": ["DenseReductionObject"],
        "partition": ["block_partition"],
        "scheduler": ["ChunkScheduler", "ScheduleReport"],
        "adaptive": ["AdaptivePartitioner"],
        "env": ["RuntimeEnv", "DeviceConfig"],
        "generalized": ["GeneralizedReductionRuntime"],
        "irregular": ["IrregularReductionRuntime"],
        "stencil": ["StencilRuntime", "ConvergenceResult"],
    },
)
