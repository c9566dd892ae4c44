"""Generalized-reduction runtime (paper §II-A, §III-C/D/E).

Execution flow of :meth:`GeneralizedReductionRuntime.start`:

1. **Inter-process partitioning** — the input has no loop dependences, so
   it is evenly block-partitioned across processes (done by the caller
   handing each rank its local slice; the runtime checks consistency).
2. **Intra-process heterogeneous execution** — the local slice is cut into
   chunks and dynamically scheduled over CPU cores and GPU controllers by
   :class:`~repro.core.scheduler.ChunkScheduler`; every consumer owns a
   private reduction object (reduction localization: per-core objects on
   the CPU, shared-memory objects on GPUs when they fit).
3. **Local merge** — device objects are combined into one local object;
   GPU objects are first copied device→host (charged on the copy engine).
4. **Global combine** — :meth:`get_global_reduction` runs the paper's
   "parallel binary tree order" combine via ``comm.reduce`` (⌈log₂ n⌉
   rounds), optionally broadcasting the result back.

The functional math and the virtual-time accounting run together: every
chunk's ``emit_batch`` really executes, and its cost lands on the
consuming worker's timeline.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.core.api import GRKernel, elementwise_emit, resolve_op
from repro.core.env import RuntimeEnv
from repro.core.reduction_object import DenseReductionObject
from repro.core.scheduler import ChunkScheduler
from repro.device.costmodel import reduction_fits_in_shared
from repro.device.gpu import GPUDevice
from repro.device.work import WorkModel, scaled
from repro.util.errors import ConfigurationError

#: GPUs pull this many queue chunks at once.
GPU_CHUNK_MULTIPLIER = 8


class GeneralizedReductionRuntime:
    """Runtime instance for one (or successive) generalized-reduction kernels."""

    def __init__(
        self,
        env: RuntimeEnv,
        *,
        chunk_elems: int | None = None,
        gpu_streams: int = 2,
        localized: bool | None = None,
    ) -> None:
        """
        Args:
            env: The owning runtime environment.
            chunk_elems: Dynamic-scheduling chunk size in functional
                elements (CPU cores pull one chunk at a time).  ``None``
                (default) picks ``local_elems / 512`` so the queue has
                enough chunks for dynamic balancing regardless of the
                functional scale.
            gpu_streams: CUDA streams per GPU (the paper uses 2).
            localized: Force reduction localization on (True) or off
                (False); ``None`` (default) applies it automatically when
                the reduction object fits in GPU shared memory — the
                paper's behaviour.
        """
        self.env = env
        self.chunk_elems = None if chunk_elems is None else int(chunk_elems)
        self.gpu_streams = int(gpu_streams)
        self.localized = localized
        self._kernel: GRKernel | None = None
        self._data: np.ndarray | None = None
        self._global_start = 0
        self._model_local: int | None = None
        self._parameter: Any = None
        self._local_result: DenseReductionObject | None = None

    # -- configuration (paper: set_emit_func / set_reduc_func) ---------
    def set_kernel(self, kernel: GRKernel) -> None:
        """Install a batched kernel specification."""
        self._kernel = kernel
        self._local_result = None

    def set_emit_func(
        self,
        emit,
        *,
        reduce_op: str = "sum",
        num_keys: int,
        value_width: int = 1,
        work: WorkModel,
        dtype=np.float64,
        batched: bool = False,
    ) -> None:
        """Install a paper-style per-unit emit function (Table I).

        ``emit(obj, input, index, parameter)`` is wrapped by
        :func:`~repro.core.api.elementwise_emit` unless ``batched=True``.
        With ``batched=True``, ``emit`` is already a batch function
        ``emit(obj, data, start, parameter)`` covering a whole chunk —
        typically ending in one :func:`~repro.core.api.emit_keys_batch`
        call, which is bit-identical to the per-element loop but avoids
        the Python-level dispatch per input unit.
        """
        emit_batch = emit if batched else elementwise_emit(emit)
        self.set_kernel(
            GRKernel(
                emit_batch=emit_batch,
                reduce_op=reduce_op,
                num_keys=num_keys,
                value_width=value_width,
                work=work,
                dtype=np.dtype(dtype),
            )
        )

    def set_reduc_func(self, reduce_op: str) -> None:
        """Change the combining op of the installed kernel."""
        if self._kernel is None:
            raise ConfigurationError("set a kernel before set_reduc_func")
        resolve_op(reduce_op)
        self._kernel = GRKernel(
            emit_batch=self._kernel.emit_batch,
            reduce_op=reduce_op,
            num_keys=self._kernel.num_keys,
            value_width=self._kernel.value_width,
            work=self._kernel.work,
            dtype=self._kernel.dtype,
        )

    def set_input(
        self,
        local_data: np.ndarray,
        *,
        global_start: int = 0,
        model_local_elems: int | None = None,
        parameter: Any = None,
    ) -> None:
        """Provide this process's input slice.

        Args:
            local_data: The rank-local input units (first axis = units).
            global_start: Global index of ``local_data[0]`` (so per-unit
                user functions see global indices, as in the paper).
            model_local_elems: Paper-scale element count this slice stands
                for; costs are charged at that scale while the math runs on
                ``len(local_data)`` units.
            parameter: Opaque extra state passed to the emit function
                (e.g. current Kmeans centers).
        """
        if local_data.ndim < 1 or len(local_data) == 0:
            raise ConfigurationError("local_data must be a non-empty array of input units")
        self._data = local_data
        self._global_start = int(global_start)
        self._model_local = model_local_elems
        self._parameter = parameter

    def set_parameter(self, parameter: Any) -> None:
        """Update the opaque parameter between launches (e.g. new centers)."""
        self._parameter = parameter

    # -- decisions ------------------------------------------------------
    def _use_localized(self) -> bool:
        if self.localized is not None:
            return self.localized
        kernel = self._kernel
        gpus = self.env.gpus
        if not gpus:
            return True  # CPU path: per-core private objects are always used
        value_bytes = kernel.value_width * kernel.dtype.itemsize
        return reduction_fits_in_shared(kernel.num_keys, value_bytes, gpus[0].spec)

    # -- execution -------------------------------------------------------
    def start(self) -> None:
        """Run the kernel over the local input (paper: ``gr->start()``)."""
        kernel = self._kernel
        if kernel is None:
            raise ConfigurationError("no kernel configured; call set_kernel/set_emit_func")
        if self._data is None:
            raise ConfigurationError("no input configured; call set_input")
        env = self.env
        clock = env.clock
        t0 = clock.now
        for dev in env.devices:
            dev.reset(start=t0)

        localized = self._use_localized()
        n_local = len(self._data)
        time_scale = scaled(n_local, self._model_local)
        chunk_elems = self.chunk_elems or max(16, n_local // 512)

        # One private reduction object per device (the CPU object stands
        # for the per-core private objects, merged at chunk granularity —
        # their combine cost is part of CPU_PRIVATE_INSERT_COST).
        objs: dict[str, DenseReductionObject] = {}
        for dev in env.devices:
            objs[dev.name] = DenseReductionObject(
                kernel.num_keys, kernel.value_width, kernel.reduce_op, kernel.dtype
            )

        def exec_chunk(device, start_elem: int, n: int) -> None:
            chunk = self._data[start_elem : start_elem + n]
            kernel.emit_batch(
                objs[device.name], chunk, self._global_start + start_elem, self._parameter
            )

        scheduler = ChunkScheduler(
            env.devices,
            localized=localized,
            gpu_streams=self.gpu_streams,
        )
        report = scheduler.run(
            kernel.work,
            n_local,
            chunk_elems,
            start=t0,
            time_scale=time_scale,
            exec_fn=exec_chunk,
            gpu_chunk_multiplier=GPU_CHUNK_MULTIPLIER,
        )

        # Local merge: GPU objects come back over PCIe, then host combines.
        merged: DenseReductionObject | None = None
        merge_ready = report.makespan
        obj_bytes = kernel.num_keys * kernel.value_width * kernel.dtype.itemsize
        for dev in env.devices:
            obj = objs[dev.name]
            if isinstance(dev, GPUDevice):
                iv = dev.copy_engine.schedule(
                    report.makespan, dev.transfer_time(obj_bytes), "reduction.d2h"
                )
                merge_ready = max(merge_ready, iv.end)
            if merged is None:
                merged = obj
            else:
                merged.merge(obj)
                merge_ready += env.host_memcpy_time(obj_bytes)
        clock.advance_to(merge_ready)
        self._local_result = merged
        if env.trace.enabled:
            env.trace.record(
                "compute", f"GR:{kernel.work.name}", t0, clock.now, {"elems": n_local}
            )
            # Dynamic-scheduling outcome: chunks and elements per device,
            # plus this run's load imbalance, for the cluster-wide report.
            for w in report.workers:
                env.trace.count(f"gr.chunks[{w.device.name}]", w.chunks)
                env.trace.count(f"gr.elems[{w.device.name}]", w.elems)
            env.trace.count("gr.inserts", float(sum(o.n_inserts for o in objs.values())))
            env.trace.gauge("gr.load_imbalance", report.load_imbalance())

    # -- results -----------------------------------------------------------
    def get_local_reduction(self) -> DenseReductionObject:
        """This process's reduction object (paper: ``get_local_reduction``)."""
        if self._local_result is None:
            raise ConfigurationError("start() has not produced a result yet")
        return self._local_result

    def get_global_reduction(self) -> np.ndarray:
        """Tree-combine all processes' objects (paper §III-B global combine).

        Returns the combined ``(num_keys, value_width)`` array on every rank
        (a tree reduce to rank 0, then a broadcast): every program needs it
        everywhere, e.g. all ranks need the new Kmeans centers.
        """
        local = self.get_local_reduction()
        ufunc, _ = resolve_op(local.op)
        combined = self.env.comm.reduce(local.values, op=lambda a, b: ufunc(a, b), root=0)
        return self.env.comm.bcast(combined, root=0)
