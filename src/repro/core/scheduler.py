"""Dynamic chunk scheduling across heterogeneous devices (paper §III-D).

Generalized reductions get *dynamic* scheduling: the input is cut into
fixed-size chunks held in a virtual task queue; consumers pull the next
chunk the moment they become free.  Consumers are:

- each CPU core ("Each CPU core continuously receives chunks to process");
- one *controller* per GPU ("the task retrieval and kernel launches of
  GPUs is controlled by a CPU thread and two streams are created for each
  GPU ... the controlling CPU thread retrieves a task chunk for each GPU,
  and splits the chunk into two smaller blocks").

The simulation is exact list scheduling in virtual time: a min-heap of
consumer free-times assigns chunks greedily, so load imbalance, scheduler
tail effects, and the GPU copy/compute pipeline all show up in the final
makespan — these are precisely the overheads the paper's Table II measures
as the gap between "perfect" and "actual" speedup.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

from repro.device.base import Device
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.device.work import WorkModel
from repro.util.errors import SchedulingError, ValidationError

#: Cost of one task-queue pull (the paper's pthread lock acquisition).
DISPATCH_OVERHEAD = 0.3e-6

ExecFn = Callable[[Device, int, int], None]


@dataclass
class WorkerReport:
    """Per-consumer accounting after a scheduled run."""

    name: str
    device: Device
    elems: int = 0
    chunks: int = 0
    finish: float = 0.0


@dataclass
class ScheduleReport:
    """Outcome of one dynamic-scheduling pass."""

    start: float
    makespan: float
    workers: list[WorkerReport] = field(default_factory=list)

    def load_imbalance(self) -> float:
        """(makespan - mean finish) / (makespan - start); 0 means perfectly even."""
        if not self.workers or self.makespan <= self.start:
            return 0.0
        mean_finish = sum(w.finish for w in self.workers) / len(self.workers)
        return (self.makespan - mean_finish) / (self.makespan - self.start)


class _CoreConsumer:
    """One CPU core pulling chunks from the queue."""

    def __init__(self, device: CPUDevice, core: int, start: float) -> None:
        self.device = device
        self.report = WorkerReport(name=f"{device.name}.core{core}", device=device)
        self.free_at = start
        self._core = core

    def execute(self, model: WorkModel, n_modeled: float, *, localized: bool) -> float:
        dur = DISPATCH_OVERHEAD + n_modeled * self.device.core_elem_time(model, localized=localized)
        iv = self.device.workers[self._core].schedule(self.free_at, dur, "chunk")
        self.free_at = iv.end
        return iv.end


class _GpuConsumer:
    """The controlling thread of one GPU (two-stream pipeline)."""

    def __init__(self, device: GPUDevice, start: float, streams: int) -> None:
        self.device = device
        self.report = WorkerReport(name=f"{device.name}.ctl", device=device)
        self.free_at = start
        self.streams = streams

    def execute(self, model: WorkModel, n_modeled: float, *, localized: bool) -> float:
        ready = self.free_at + DISPATCH_OVERHEAD
        execution = self.device.submit_chunk(
            model, n_modeled, ready, localized=localized, streams=self.streams
        )
        self.free_at = execution.kernel_end
        return self.free_at


class ChunkScheduler:
    """Greedy pull-based scheduler over a device team."""

    def __init__(
        self,
        devices: list[Device],
        *,
        localized: bool = True,
        gpu_streams: int = 2,
    ) -> None:
        if not devices:
            raise SchedulingError("ChunkScheduler needs at least one device")
        self.devices = devices
        self.localized = localized
        self.gpu_streams = gpu_streams

    def run(
        self,
        model: WorkModel,
        total_elems: int,
        chunk_elems: int,
        *,
        start: float = 0.0,
        time_scale: float = 1.0,
        exec_fn: ExecFn | None = None,
        gpu_chunk_multiplier: int = 1,
    ) -> ScheduleReport:
        """Schedule ``total_elems`` in chunks of ``chunk_elems``.

        Args:
            model: Cost model of the kernel.
            total_elems: Functional element count (the local input length).
            chunk_elems: Chunk granularity, in functional elements.
            start: Virtual time at which consumers start pulling.
            time_scale: Multiplier mapping functional counts to modeled
                counts (see :func:`repro.device.work.scaled`).
            exec_fn: Called as ``exec_fn(device, start_elem, n)`` to do the
                real math for each chunk (omit for timing-only runs).
            gpu_chunk_multiplier: GPUs pull this many queue chunks at once
                (larger GPU task grain amortizes launches/transfers).

        Returns:
            :class:`ScheduleReport` with per-consumer accounting.
        """
        if total_elems < 0:
            raise ValidationError(f"total_elems must be >= 0, got {total_elems}")
        if chunk_elems <= 0:
            raise ValidationError(f"chunk_elems must be > 0, got {chunk_elems}")
        if time_scale <= 0:
            raise ValidationError(f"time_scale must be > 0, got {time_scale}")
        if gpu_chunk_multiplier < 1:
            raise ValidationError("gpu_chunk_multiplier must be >= 1")

        consumers: list[_CoreConsumer | _GpuConsumer] = []
        for dev in self.devices:
            if isinstance(dev, CPUDevice):
                consumers.extend(_CoreConsumer(dev, c, start) for c in range(dev.cores))
            elif isinstance(dev, GPUDevice):
                consumers.append(_GpuConsumer(dev, start, self.gpu_streams))
            else:
                raise SchedulingError(f"unknown device type {type(dev).__name__}")

        heap: list[tuple[float, int, int]] = [
            (c.free_at, i, i) for i, c in enumerate(consumers)
        ]
        heapq.heapify(heap)
        next_elem = 0
        seq = len(consumers)
        while next_elem < total_elems:
            free_at, _, idx = heapq.heappop(heap)
            consumer = consumers[idx]
            grain = chunk_elems
            if isinstance(consumer, _GpuConsumer):
                grain *= gpu_chunk_multiplier
            n = min(grain, total_elems - next_elem)
            if exec_fn is not None:
                exec_fn(consumer.device, next_elem, n)
            finish = consumer.execute(model, n * time_scale, localized=self.localized)
            consumer.report.elems += n
            consumer.report.chunks += 1
            next_elem += n
            seq += 1
            heapq.heappush(heap, (consumer.free_at, seq, idx))

        makespan = start
        reports = []
        for c in consumers:
            c.report.finish = max(c.free_at, start)
            makespan = max(makespan, c.report.finish)
            reports.append(c.report)
        return ScheduleReport(start=start, makespan=makespan, workers=reports)
