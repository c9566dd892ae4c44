"""Discrete GPU device model (Fermi-class).

A :class:`GPUDevice` owns two engine timelines — a *copy* engine (PCIe DMA)
and a *compute* engine (kernel execution) — mirroring how CUDA streams
pipeline host→device copies with kernels.  The paper's generalized-
reduction scheduler creates two streams per GPU and splits each task chunk
into two blocks; :meth:`submit_chunk` reproduces exactly that pipeline, so
copy/compute overlap (and its limits: a chunk's kernel cannot start before
its copy finishes) is structural, not a fudge factor.

Kernel cost is roofline (compute vs. device-memory bandwidth) at the
kernel's calibrated efficiency, plus the atomic term for reduction inserts
and a fixed launch overhead per kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.specs import GPUSpec
from repro.device.base import Device
from repro.device.costmodel import atomic_cost_per_insert
from repro.device.work import WorkModel
from repro.sim.timeline import Timeline
from repro.util.errors import ValidationError

#: CUDA block size assumed by the contention model and occupancy notes.
GPU_THREADS_PER_BLOCK = 256


@dataclass(frozen=True)
class ChunkExecution:
    """Virtual-time record of one pipelined chunk on a GPU."""

    ready: float
    copy_start: float
    copy_end: float
    kernel_start: float
    kernel_end: float

    @property
    def total(self) -> float:
        return self.kernel_end - self.ready


class GPUDevice(Device):
    """One discrete GPU: copy engine + compute engine."""

    kind = "gpu"

    def __init__(self, spec: GPUSpec, index: int = 0) -> None:
        super().__init__(f"{spec.name}#{index}", index)
        self.spec = spec
        self.copy_engine = Timeline(f"gpu{index}.copy")
        self.compute_engine = Timeline(f"gpu{index}.compute")

    # -- cost model ----------------------------------------------------
    def elem_time(
        self, model: WorkModel, *, localized: bool = True, framework: bool = True
    ) -> float:
        """Seconds per element of kernel execution (device fully occupied)."""
        flops = model.flops_per_elem + (model.gpu_overhead_flops if framework else 0.0)
        compute = flops / (self.spec.flops * model.gpu_efficiency)
        memory = model.bytes_per_elem / (self.spec.mem_bandwidth * model.gpu_mem_efficiency)
        t = max(compute, memory)
        if model.atomics_per_elem > 0:
            t += model.atomics_per_elem * atomic_cost_per_insert(
                "gpu", model.num_reduction_keys or 1, localized, gpu=self.spec
            )
        return t

    def kernel_time(
        self, model: WorkModel, n: float, *, localized: bool = True, framework: bool = True
    ) -> float:
        """One kernel launch processing ``n`` elements."""
        if n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        if n == 0:
            return 0.0
        return self.spec.kernel_launch_overhead + n * self.elem_time(
            model, localized=localized, framework=framework
        )

    def partition_time(
        self, model: WorkModel, n: float, *, localized: bool = True, framework: bool = True
    ) -> float:
        return self.kernel_time(model, n, localized=localized, framework=framework)

    def transfer_time(self, nbytes: float) -> float:
        """One host<->device copy of ``nbytes`` over PCIe."""
        if nbytes < 0:
            raise ValidationError(f"nbytes must be >= 0, got {nbytes}")
        if nbytes == 0:
            return 0.0
        return self.spec.pcie_latency + nbytes / self.spec.pcie_bandwidth

    def peer_transfer_time(self, nbytes: float) -> float:
        """GPU->GPU copy via ``cudaMemcpyPeerAsync`` (concurrent
        bi-directional on the PCIe bus, per the paper §III-C)."""
        return self.transfer_time(nbytes)

    # -- pipelined chunk execution (two-stream model) --------------------
    def submit_chunk(
        self,
        model: WorkModel,
        n: float,
        ready: float,
        *,
        localized: bool = True,
        framework: bool = True,
        streams: int = 2,
    ) -> ChunkExecution:
        """Execute one scheduler chunk, split across ``streams`` blocks.

        Mirrors the paper's §III-D flow: the controlling CPU thread splits
        the chunk into ``streams`` blocks; each block's input is copied
        host→device (copy engine), then its kernel runs (compute engine).
        Block *k+1*'s copy overlaps block *k*'s kernel.  Returns the
        virtual-time envelope; the controlling thread fetches the next
        chunk only after ``kernel_end`` (both streams done).
        """
        if streams < 1:
            raise ValidationError(f"streams must be >= 1, got {streams}")
        if n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        first_copy_start = None
        last_kernel_end = ready
        per_block = n / streams
        copy_bytes = per_block * model.transfer_bytes_per_elem
        for s in range(streams):
            copy_dur = self.transfer_time(copy_bytes) if copy_bytes > 0 else 0.0
            copy_iv = self.copy_engine.schedule(ready, copy_dur, f"chunk.h2d[{s}]")
            if first_copy_start is None:
                first_copy_start = copy_iv.start
            kernel_dur = self.kernel_time(
                model, per_block, localized=localized, framework=framework
            )
            kern_iv = self.compute_engine.schedule(copy_iv.end, kernel_dur, f"chunk.k[{s}]")
            last_kernel_end = kern_iv.end
        return ChunkExecution(
            ready=ready,
            copy_start=first_copy_start if first_copy_start is not None else ready,
            copy_end=self.copy_engine.available_at,
            kernel_start=last_kernel_end,  # end of pipeline; see envelope use
            kernel_end=last_kernel_end,
        )

    # -- bookkeeping -----------------------------------------------------
    def timelines(self) -> list[Timeline]:
        return [self.copy_engine, self.compute_engine]

    def reset(self, start: float = 0.0) -> None:
        self.copy_engine.reset(start)
        self.compute_engine.reset(start)
