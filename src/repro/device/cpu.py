"""Multi-core CPU device model.

One :class:`CPUDevice` stands for *all* the CPU cores of a node (the
paper's runtime drives them with pthreads from a single process).  Each
core is a separate worker :class:`~repro.sim.timeline.Timeline`, so the
dynamic chunk scheduler sees 12 independent consumers; static partitions
are charged assuming the partition is divided evenly across cores, on one
core's line (the stencil runtime's is the first core, the irregular
runtime's the last).  The cores in between get their lines only when
something schedules per core: the chunk scheduler, or an enabled trace
binding the device (both go through :attr:`CPUDevice.workers`).

Roofline: a core's per-element time is the max of its compute time and its
share of the node memory bandwidth — running 12 cores flat out divides the
memory system 12 ways, which is what makes memory-bound kernels (stencils)
scale sub-linearly in cores, as on real hardware.
"""

from __future__ import annotations

from repro.cluster.specs import CPUSpec
from repro.device.base import Device
from repro.device.costmodel import atomic_cost_per_insert
from repro.device.work import WorkModel
from repro.sim.timeline import Timeline
from repro.util.errors import ValidationError


class CPUDevice(Device):
    """All CPU cores of one node, acting as one heterogeneous-team member."""

    kind = "cpu"

    def __init__(self, spec: CPUSpec, index: int = 0) -> None:
        super().__init__(spec.name, index)
        self.spec = spec
        #: The first and last core until :attr:`workers` builds the rest.
        self._lines = [Timeline(f"cpu{index}.core{c}") for c in sorted({0, spec.cores - 1})]
        #: Where the last :meth:`reset` started every line.
        self._reset_at = 0.0

    @property
    def cores(self) -> int:
        return self.spec.cores

    def core_elem_time(
        self, model: WorkModel, *, localized: bool = True, framework: bool = True
    ) -> float:
        """Seconds per element on ONE core with all cores active."""
        flops = model.flops_per_elem + (model.runtime_overhead_flops if framework else 0.0)
        compute = flops / (self.spec.core_flops * model.cpu_efficiency)
        memory = model.bytes_per_elem / (
            self.spec.mem_bandwidth * model.cpu_mem_efficiency / self.spec.cores
        )
        t = max(compute, memory)
        if model.atomics_per_elem > 0:
            t += model.atomics_per_elem * atomic_cost_per_insert(
                "cpu",
                model.num_reduction_keys or 1,
                localized,
                cpu_cores=self.spec.cores,
            )
        return t

    def elem_time(
        self, model: WorkModel, *, localized: bool = True, framework: bool = True
    ) -> float:
        """Seconds per element for the whole device (all cores together)."""
        return self.core_elem_time(model, localized=localized, framework=framework) / self.cores

    def partition_time(
        self, model: WorkModel, n: float, *, localized: bool = True, framework: bool = True
    ) -> float:
        """Time for ``n`` elements split evenly across the cores."""
        if n < 0:
            raise ValidationError(f"n must be >= 0, got {n}")
        return n * self.elem_time(model, localized=localized, framework=framework)

    def memcpy_time(self, nbytes: float) -> float:
        """Host-memory copy cost (boundary packing, reduction merges)."""
        if nbytes < 0:
            raise ValidationError(f"nbytes must be >= 0, got {nbytes}")
        # memcpy reads + writes: 2x traffic over the node memory bus.
        return 2.0 * nbytes / self.spec.mem_bandwidth

    def timelines(self) -> list[Timeline]:
        """The core lines built so far: ``[0]`` is the first core and
        ``[-1]`` the last, whether or not the cores between exist."""
        return list(self._lines)

    @property
    def workers(self) -> list[Timeline]:
        """Every core's line, indexed by core; the cores between the first
        and the last are built on first use, as freshly reset."""
        lines = self._lines
        if len(lines) < self.spec.cores:
            lines[1:-1] = [
                Timeline(f"cpu{self.index}.core{c}", self._reset_at)
                for c in range(1, self.spec.cores - 1)
            ]
        return lines

    def reset(self, start: float = 0.0) -> None:
        self._reset_at = start
        for line in self._lines:
            line.reset(start)
