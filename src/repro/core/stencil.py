"""Stencil runtime (paper §II-A, §III-C/D/E, Fig. 4).

Grid decomposition and execution flow:

- **Inter-process**: the global grid is divided over a virtual Cartesian
  processor topology (user-supplied ``dims`` or an ``MPI_Dims_create``
  style balanced factorization).  Each process holds its sub-grid with a
  halo-padded allocation.
- **Halo exchange (Fig. 4 steps 1–5)**: one array travels, the grid.
  The kernel declares the offsets it reads; ``halo`` is their largest
  component, and ``configure`` turns it into an exchange plan
  (:class:`~repro.comm.communicator.NeighborExchange`): one phase per axis
  of records (peer, tag, send box, halo box, wire bytes).  Each face's
  strip is packed into a contiguous buffer that lives as long as its
  message (CPU: strip memcpy; GPU: a zero-copy kernel writing a
  host-mapped buffer, charged on the copy engine), sent as one
  non-blocking ``owned=True`` message, and received directly into the
  halo box via ``irecv(out=...)``.  Static fields never travel: their
  halos are filled once at setup.
- **Overlap**: inner elements — those at least ``halo`` away from the
  sub-grid boundary — depend only on local data and are computed
  concurrently with the exchange; boundary elements run after (steps 3/7).
  ``overlap=False`` serializes exchange before all compute (Fig. 7).
- **Intra-process**: the sub-grid is split along the highest (first)
  dimension across devices, evenly on step 1 and speed-proportionally
  afterwards (:class:`~repro.core.adaptive.AdaptivePartitioner`).
  Device-boundary planes are exchanged via PCIe / peer copies (step 6).
- **Tiling**: grid tiling improves cache behaviour and lets all boundary
  planes be processed by a single GPU kernel launch; ``tiling=False``
  inflates CPU memory traffic and launches one GPU kernel per face
  (Fig. 7 ablates this).
- **Exchange rounds** (``configure(time_block=k)``, default 1):
  :meth:`StencilRuntime.run` executes rounds of one halo exchange plus
  ``k`` kernel sweeps (the last round only the sweeps left).  The halo
  slabs are allocated ``k * halo`` deep, a round carries one
  ``k * halo``-deep strip per neighbour (one contiguous message), and the
  sweeps run over a *shrinking* valid region — sweep
  ``s`` still computes ``(k-1-s)*halo`` cells past the interior toward
  every rank neighbour, recomputing exactly the ghost values the
  neighbour computes itself (bit-identical by construction, since both
  run the same elementwise update on the same time-``t`` data).  With
  ``k = 1`` there is nothing past the interior to recompute; with
  ``k > 1`` (temporal blocking) the redundant ghost flops are charged as
  real work through the device cost model, so the trade — ``k`` x fewer
  message rounds (the per-message α/LogGP constant amortizes; bytes do
  not) against extra compute — is priced honestly.
- **Fused reduce** (:meth:`StencilRuntime.run_until`, the
  loop-of-stencil-reduce pattern, arXiv 1609.04567): each sweep also
  yields its local squared L2 update norm (:func:`l2_sq_residual`,
  charged as :data:`FUSED_REDUCE_FLOPS` extra per element — no second
  pass over the grid), and one sum ``allreduce`` per round folds them
  while the next round's halo strips fly.  The result
  is bit-for-bit a sweep-then-allreduce loop's; only virtual time moves.
  Outside ``run_until`` no reduce is armed and none is charged.

Functional honesty: halo slabs are filled **only** by the exchange
protocol, so a protocol bug produces wrong numbers, not just wrong times.
Global borders keep zero-filled halos; :func:`reference_sweeps`, the
sequential oracle every app reference and test uses, sweeps the same
kernel over one array with that border.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from repro.cluster.topology import dims_create
from repro.comm.cart import CartComm
from repro.comm.communicator import Exchange, NeighborExchange
from repro.comm.constants import PROC_NULL
from repro.core.adaptive import AdaptivePartitioner
from repro.core.api import StencilKernel
from repro.core.env import RuntimeEnv
from repro.core.partition import block_partition
from repro.device.cpu import CPUDevice
from repro.device.gpu import GPUDevice
from repro.util.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.core.checkpoint import CheckpointManager

#: Tag of the axis-0 halo messages; axis ``a`` uses ``_TAG_HALO + a``.
_TAG_HALO = 201


class StencilFields:
    """Parameter wrapper passed to kernels configured with static fields.

    Lifts the paper's SII-C limitation that "only a single target object
    can be processed every time a runtime instance is launched": kernels
    may read any number of *static* coefficient fields (spatially varying
    diffusivity, masks, metric terms) alongside the evolving grid.  Fields
    are decomposed with the same halo padding as the grid, so
    :func:`~repro.core.api.shifted` works on them unchanged.

    Attributes:
        param: The user's own parameter (whatever was passed to configure).
        fields: ``{name: halo-padded local array}`` of the static fields.
    """

    __slots__ = ("param", "fields")

    def __init__(self, param: Any, fields: dict[str, np.ndarray]) -> None:
        self.param = param
        self.fields = fields

    def __getitem__(self, name: str) -> np.ndarray:
        return self.fields[name]

#: Extra CPU memory traffic factor when tiling is disabled (neighbour
#: accesses miss cache across long rows).
UNTILED_CPU_BYTES_FACTOR = 1.35

#: CPU compute efficiency retained without tiling (cache-miss stalls).
UNTILED_CPU_EFF_FACTOR = 0.85

#: GPU efficiency retained without tiling (uncoalesced boundary handling).
UNTILED_GPU_EFF_FACTOR = 0.90

#: Most elements one ``kernel.apply`` call is handed (256 KiB of float64):
#: every sweep region is applied in axis-0 slabs of at most this size, so a
#: kernel's temporaries stay cache-sized whatever the rank's region (the
#: sizing sweep is in docs/architecture.md, "Resident memory").
SLAB_ELEMS = 32768

#: Extra flops per element charged for the fused reduce in
#: :meth:`StencilRuntime.run_until` (one subtract + one multiply-add of the
#: running sum).
FUSED_REDUCE_FLOPS = 2.0


def l2_sq_residual(old: np.ndarray, new: np.ndarray) -> float:
    """The fused reduce's local value: squared L2 norm of the step update."""
    diff = (new - old).ravel()
    return float(np.dot(diff, diff))


def reference_sweeps(
    kernel: StencilKernel,
    grid: np.ndarray,
    *,
    parameter: Any = None,
    static_fields: dict[str, np.ndarray] | None = None,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The sequential oracle: sweep ``kernel`` over all of ``grid``, forever.

    The grid and every static field get a zero border ``kernel.halo``
    deep (the runtime's global-border convention), the kernel gets the
    parameter the runtime would hand it, and each sweep yields its
    ``(old, new)`` interiors, views valid until the next sweep.  Nothing
    of :class:`StencilRuntime` runs, so it checks a decomposed run
    independently.
    """
    h = kernel.halo
    src = np.pad(np.asarray(grid, dtype=kernel.dtype), h)
    dst = np.zeros_like(src)
    if static_fields:
        parameter = StencilFields(
            parameter, {name: np.pad(np.asarray(f), h) for name, f in static_fields.items()}
        )
    interior = tuple(slice(h, h + n) for n in np.shape(grid))
    while True:
        kernel.apply(src, dst, interior, parameter)
        yield src[interior], dst[interior]
        src, dst = dst, src


@dataclass
class ConvergenceResult:
    """Outcome of one :meth:`StencilRuntime.run_until` loop."""

    iterations: int
    residuals: list[float] = field(default_factory=list)
    values: list[Any] = field(default_factory=list)
    converged: bool = False


class StencilRuntime:
    """Runtime instance for one stencil kernel over one structured grid."""

    def __init__(
        self,
        env: RuntimeEnv,
        *,
        overlap: bool = True,
        tiling: bool = True,
    ) -> None:
        self.env = env
        self.overlap = overlap
        self.tiling = tiling
        self._kernel: StencilKernel | None = None
        self._configured = False
        self._parameter: Any = None
        self._timestep = 0
        self._partitioner: AdaptivePartitioner | None = None
        self._rows: np.ndarray | None = None  # current per-device row counts
        #: (t0, rows, recvs) of an exchange round begun ahead of the next
        #: step (see :meth:`_begin_step_early`), or None.
        self._prestarted: tuple[float, np.ndarray, list] | None = None
        #: The convergence accumulator of the :meth:`run_until` loop in
        #: flight; outside the loop it is None and nothing reduce-related
        #: is charged.
        self._conv: dict | None = None
        #: Per-sweep local values of the round in flight, and interior
        #: snapshots after the round's first ``_rewind_points`` sweeps —
        #: every sweep but the last, and only when a tolerance is set — so
        #: a mid-round convergence can rewind the grid to the converged sweep.
        self._values: list[float] = []
        self._grids: list[np.ndarray] = []
        self._rewind_points = 0
        #: Temporal-blocking factor (sweeps per exchange round) and the
        #: resulting halo-slab depth ``time_block * halo``.
        self._time_block = 1
        self._halo_depth: int | None = None
        #: Cumulative model-scale ghost-zone recomputation (flops), for
        #: the ``halo.redundant_flops`` gauge.
        self._redundant_flops = 0.0

    # -- configuration ---------------------------------------------------
    def configure(
        self,
        kernel: StencilKernel,
        global_shape: tuple[int, ...],
        *,
        dims: tuple[int, ...] | None = None,
        model_shape: tuple[int, ...] | None = None,
        parameter: Any = None,
        static_fields: dict[str, np.ndarray] | None = None,
        time_block: int = 1,
    ) -> None:
        """Set up the decomposition (paper: grid size + virtual topology).

        Args:
            kernel: The stencil kernel specification.
            global_shape: Functional global grid shape.
            dims: Virtual processor topology; balanced if ``None``.
            model_shape: Paper-scale grid shape this run stands for (costs
                charged at that scale); same rank as ``global_shape``.
            parameter: Opaque state passed to the kernel.
            static_fields: Read-only coefficient fields (global arrays with
                the grid's shape).  The kernel then receives a
                :class:`StencilFields` wrapper as its parameter, carrying
                halo-padded local views of every field (an extension past
                the paper's single-target-object limitation, SII-C).
            time_block: Temporal-blocking factor ``k``: halo slabs are
                allocated ``k * halo`` deep, one exchange round runs per
                ``k`` sweeps, and the redundant ghost-zone recomputation
                is charged as real flops.  Requires kernels that are
                temporal-blocking-safe: a pure function of the kernel's
                offsets with no cross-sweep parameter mutation (see
                ``docs/writing_kernels.md``).
        """
        env = self.env
        ndim = len(global_shape)
        if ndim < 1:
            raise ConfigurationError("global_shape must have at least one axis")
        if dims is None:
            dims = dims_create(env.nprocs, ndim)
        if len(kernel.offsets[0]) != ndim or len(dims) != ndim:
            raise ConfigurationError(
                f"grid rank {ndim}, kernel offsets rank {len(kernel.offsets[0])} and "
                f"dims {tuple(dims)} disagree"
            )
        self.cart = CartComm(env.comm, dims=dims)
        self._kernel = kernel
        self._parameter = parameter
        self.global_shape = tuple(int(s) for s in global_shape)
        h = kernel.halo

        # Per-axis local extent for this rank's coordinates.
        bounds = [
            (int(offs[c]), int(offs[c + 1]))
            for offs, c in zip(map(block_partition, self.global_shape, dims), self.cart.coords)
        ]
        self.local_start = tuple(lo for lo, _ in bounds)
        self.local_shape = tuple(hi - lo for lo, hi in bounds)
        for ax, ext in enumerate(self.local_shape):
            if ext < 2 * h:
                raise ConfigurationError(
                    f"local extent {ext} on axis {ax} is below 2*halo={2 * h}; "
                    f"use fewer processes or a bigger grid"
                )

        # Model-scale ratios (per axis) for cost charging.
        if model_shape is None:
            self._axis_ratio = (1.0,) * ndim
        else:
            if len(model_shape) != ndim:
                raise ConfigurationError("model_shape rank must match global_shape")
            self._axis_ratio = tuple(
                model_shape[ax] / self.global_shape[ax] for ax in range(ndim)
            )
        self._elem_scale = float(np.prod(self._axis_ratio))

        # Neighbour ranks per axis (PROC_NULL at global borders); needed
        # before allocation because temporal blocking both validates
        # against and widens the halo slabs.
        self._neighbors = [self.cart.shift(ax, 1) for ax in range(ndim)]

        self._partitioner = AdaptivePartitioner(len(env.devices))
        self._check_time_block(time_block)
        self._time_block = time_block
        self._halo_depth = self._time_block * h

        padded = tuple(ext + 2 * self._halo_depth for ext in self.local_shape)
        self._src = np.zeros(padded, dtype=kernel.dtype)
        self._dst = np.zeros(padded, dtype=kernel.dtype)
        self.interior = tuple(
            slice(self._halo_depth, self._halo_depth + ext) for ext in self.local_shape
        )

        self._fields: dict[str, np.ndarray] = {}
        if static_fields:
            for name, values in static_fields.items():
                values = np.asarray(values)
                if values.shape != self.global_shape:
                    raise ConfigurationError(
                        f"static field {name!r} has shape {values.shape}, "
                        f"expected {self.global_shape}"
                    )
                self._fields[name] = self._pad_from_global(values, self._halo_depth)
        self._exchange = NeighborExchange(env.comm, self._exchange_plan())
        self._rows = None
        self._timestep = 0
        self._prestarted = None
        self._redundant_flops = 0.0
        self._configured = True
        # The inner box (at least ``halo`` away from every face) overlaps
        # the exchange; the boundary shell around it (two slabs per axis)
        # waits for the halos.  Only the sizes matter — charges go by
        # element count and the kernel is applied in axis-0 slabs.
        # Per-round charge plans depend on the sweep count and the device
        # split too, so they fill in on first use (see :meth:`_round_plan`).
        self._inner_elems = math.prod(ext - 2 * h for ext in self.local_shape)
        self._boundary_elems = math.prod(self.local_shape) - self._inner_elems
        self._plans: dict[tuple[int, bytes], tuple] = {}

    @property
    def time_block(self) -> int:
        """The temporal-blocking factor (sweeps per exchange)."""
        return self._time_block

    def _check_time_block(self, time_block: int) -> None:
        """Refuse a blocking factor that is not a positive int or whose
        strips do not fit this rank's extents."""
        if type(time_block) is not int or time_block < 1:  # a bool is no round size
            raise ConfigurationError(f"time_block must be >= 1, got {time_block!r}")
        h = self._kernel.halo
        # Generalizes the 2*halo rule: deep send strips come from the
        # interior, so every axis that actually exchanges needs room for
        # both faces' k*h-deep strips.
        for ax, ext in enumerate(self.local_shape):
            lo, hi = self._neighbors[ax]
            if (lo != PROC_NULL or hi != PROC_NULL) and ext < 2 * time_block * h:
                raise ConfigurationError(
                    f"local extent {ext} on axis {ax} is below "
                    f"2*time_block*halo={2 * time_block * h}; lower time_block, "
                    f"use fewer processes or a bigger grid"
                )

    def set_global_grid(self, grid: np.ndarray) -> None:
        """Load this rank's block from the (identical-on-all-ranks) grid."""
        self._check_configured()
        if grid.shape != self.global_shape:
            raise ConfigurationError(
                f"grid shape {grid.shape} != configured {self.global_shape}"
            )
        if not np.can_cast(grid.dtype, self._kernel.dtype, casting="same_kind"):
            # Slice assignment below would cast silently (e.g. a float
            # grid truncated into an integer kernel); make the kind
            # mismatch a configuration error instead of a precision bug.
            raise ConfigurationError(
                f"grid dtype {grid.dtype} cannot be cast to kernel dtype "
                f"{self._kernel.dtype} ('same_kind'); convert the grid explicitly"
            )
        self._src[self.interior] = grid[
            tuple(slice(lo, lo + n) for lo, n in zip(self.local_start, self.local_shape))
        ]
        self._dst[:] = 0

    def _pad_from_global(self, field: np.ndarray, h: int) -> np.ndarray:
        """Local halo-padded view of a read-only global field.

        Static fields never change, so their halos are filled once at
        setup directly from the global array (the paper excludes setup
        from its timings); out-of-domain halo cells stay zero.
        """
        padded = np.zeros(tuple(ext + 2 * h for ext in self.local_shape), dtype=field.dtype)
        src_slices = []
        dst_slices = []
        for ax in range(field.ndim):
            g_lo = max(0, self.local_start[ax] - h)
            g_hi = min(self.global_shape[ax], self.local_start[ax] + self.local_shape[ax] + h)
            src_slices.append(slice(g_lo, g_hi))
            offset = g_lo - (self.local_start[ax] - h)
            dst_slices.append(slice(offset, offset + (g_hi - g_lo)))
        padded[tuple(dst_slices)] = field[tuple(src_slices)]
        return padded

    # -- halo exchange (Fig. 4 steps 1-5) --------------------------------------
    def _exchange_plan(self) -> tuple[tuple[Exchange, ...], ...]:
        """The halo exchange as data: the box plan.

        One phase per axis, in axis order, holding that axis' faces that
        have a neighbour (a global border never sends), low face first.  A
        strip is ``time_block * halo`` deep and spans the padded extent of
        every other axis, halos included; a phase starts only once the
        previous phase's halos have landed, so corner and edge values
        travel through the face neighbours, as diagonal offsets need.
        """
        d = self._halo_depth
        phases = []
        for axis, (sl, peers) in enumerate(zip(self.interior, self._neighbors)):
            lead = (slice(None),) * axis
            wire = self._face_bytes_model(axis)
            faces = (
                (slice(sl.start, sl.start + d), slice(sl.start - d, sl.start)),
                (slice(sl.stop - d, sl.stop), slice(sl.stop, sl.stop + d)),
            )
            phases.append(tuple(
                Exchange(peer, _TAG_HALO + axis, lead + (send,), lead + (halo,), wire)
                for (send, halo), peer in zip(faces, peers)
                if peer != PROC_NULL
            ))
        return tuple(phases)

    def _face_bytes_model(self, axis: int) -> float:
        """Model-scale bytes of one ``time_block * halo``-deep face strip."""
        elems = self._halo_depth * math.prod(
            ext for ax, ext in enumerate(self.local_shape) if ax != axis
        )
        scale = self._elem_scale / self._axis_ratio[axis]
        return elems * scale * np.dtype(self._kernel.dtype).itemsize

    def _pack_cost(self, axis: int, phase: tuple[Exchange, ...], rows: np.ndarray) -> float:
        """Charge step-1/2 packing of one phase across the device split.

        Returns the virtual time at which all send buffers are ready.
        The face perpendicular to axis 0 belongs entirely to the first or
        last device; faces along other axes are split across devices.
        """
        env = self.env
        ready = env.clock.now
        total_bytes = phase[0].wire
        n_dev = len(env.devices)
        if axis == 0:
            # Only the devices owning the outermost rows pack this face: the
            # first for the low face, the last for the high face (both
            # directions happen per step).
            edge = total_bytes / (2 if n_dev > 1 else 1)
            per_dev = [edge if d in (0, n_dev - 1) else 0.0 for d in range(n_dev)]
        else:
            # tolist(): keep the per-device shares python floats — numpy
            # scalars in the time arithmetic slow every max()/schedule() call.
            per_dev = [total_bytes * s for s in (rows / max(1, int(rows.sum()))).tolist()]
        for dev, nbytes in zip(env.devices, per_dev):
            if nbytes <= 0:
                continue
            if isinstance(dev, GPUDevice):
                # Zero-copy kernel writes the host-mapped buffer.
                dur = dev.spec.kernel_launch_overhead + nbytes / dev.spec.pcie_bandwidth
                iv = dev.copy_engine.schedule(env.clock.now, dur, f"halo.pack[{axis}]")
                ready = max(ready, iv.end)
            else:
                ready = max(ready, env.clock.now + env.host_memcpy_time(nbytes))
        return ready

    def _unpack(self, x: Exchange) -> None:
        """Charge steps 4-5 for one landed strip (delivered into its slab)."""
        env = self.env
        unpack_end = env.clock.now
        for dev in env.devices:
            if isinstance(dev, GPUDevice):
                iv = dev.copy_engine.schedule(
                    env.clock.now,
                    dev.transfer_time(x.wire) + dev.spec.kernel_launch_overhead,
                    f"halo.unpack[{x.tag - _TAG_HALO}]",
                )
                unpack_end = max(unpack_end, iv.end)
            else:
                unpack_end = max(unpack_end, env.clock.now + env.host_memcpy_time(x.wire))
        env.clock.advance_to(unpack_end)

    def _send_axis(self, axis: int, rows: np.ndarray) -> list:
        """Post one phase's receives into its halo boxes, charge its pack
        (Fig. 4 steps 1-2), then send each face a fresh copy of its strip,
        high face first.  Returns the posted receives."""
        ex, src = self._exchange, self._src
        phase = ex.phases[axis]
        if not phase:
            return []
        posted = ex.post(phase, src)
        self.env.clock.advance_to(self._pack_cost(axis, phase, rows))
        ex.send(reversed(phase), lambda x: src[x.send].copy())
        self.env.trace.count("halo.msgs", len(phase))
        return posted

    def _begin_round(self) -> tuple[float, np.ndarray, list]:
        """Open an exchange round: fresh device timelines, the device
        split, and the plan's first phase sent (the inner compute
        overlaps the whole exchange).  Returns (round start time,
        per-device rows, posted receives).
        """
        env = self.env
        t0 = env.clock.now
        for dev in env.devices:
            dev.reset(start=t0)
        rows = self._rows = self._partitioner.split(self.local_shape[0])
        return t0, rows, self._send_axis(0, rows)

    def _begin_step_early(self) -> None:
        """Open the *next* exchange round now (device resets, the first
        phase's pack and send), so :meth:`_fused_round`'s combine hides the strips'
        flight time; the next :meth:`_advance` picks the round up."""
        if self._prestarted is not None:
            raise ConfigurationError("an exchange is already in flight for the next step")
        self._prestarted = self._begin_round()

    def _cancel_begun_step(self) -> None:
        """Drain an exchange begun by :meth:`_begin_step_early` unused.

        A convergence loop that speculatively begins step ``t+1``'s
        exchange and then detects convergence at step ``t`` must still
        complete the posted receives — every rank sent its strips, and
        leaving them unmatched would poison the per-(src, tag) FIFO for
        any later traffic.  Halo slabs are (re)filled, interiors are
        untouched, and the unpack charges are paid: the speculation was
        real work, so its cost is honest.
        """
        pre, self._prestarted = self._prestarted, None
        if pre is not None:
            self._exchange.complete(pre[2], self._unpack)

    def _finish_exchange(self, posted: list, rows: np.ndarray) -> None:
        """Complete the exchange: fill the first phase's halos, then run
        each later phase in turn."""
        complete = self._exchange.complete
        complete(posted, self._unpack)
        for axis in range(1, len(self._exchange.phases)):
            complete(self._send_axis(axis, rows), self._unpack)

    def _interdevice_exchange(self, ready: float) -> float:
        """Step 6: boundary planes between neighbouring devices.

        Planes are ``time_block * halo`` deep and swapped once per
        exchange round — like the rank-level halos, the sweeps between
        rounds recompute across the split instead of re-exchanging.
        """
        env = self.env
        devices = env.devices
        if len(devices) < 2:
            return ready
        nbytes = self._face_bytes_model(0)
        finish = ready
        for a, b in zip(devices[:-1], devices[1:]):
            # Bidirectional plane swap between adjacent sub-grids.
            for dev in (a, b):
                if isinstance(dev, GPUDevice):
                    iv = dev.copy_engine.schedule(
                        ready, dev.peer_transfer_time(nbytes), "halo.d2d"
                    )
                    finish = max(finish, iv.end)
                else:
                    finish = max(finish, ready + env.host_memcpy_time(nbytes))
        return finish

    # -- compute -------------------------------------------------------------------
    def _effective_work(self, dev) -> "Any":
        """The kernel's work model adjusted for the tiling setting and an
        armed fused reduce."""
        work = self._kernel.work
        if not self.tiling:
            if isinstance(dev, CPUDevice):
                # Long untiled rows blow the cache on neighbour accesses: more
                # memory traffic *and* pipeline stalls in the compute loop.
                work = work.replace(
                    bytes_per_elem=work.bytes_per_elem * UNTILED_CPU_BYTES_FACTOR,
                    cpu_efficiency=work.cpu_efficiency * UNTILED_CPU_EFF_FACTOR,
                )
            else:
                work = work.replace(
                    gpu_efficiency=work.gpu_efficiency * UNTILED_GPU_EFF_FACTOR
                )
        if self._conv is not None:
            # The fused accumulation reuses the values the sweep already has
            # in registers: extra flops, no extra bytes, no extra launch.
            work = work.replace(flops_per_elem=work.flops_per_elem + FUSED_REDUCE_FLOPS)
        return work

    def _charge_counts(
        self,
        counts: list[float],
        n_regions: int,
        phase: str,
        ready: float,
    ) -> tuple[float, np.ndarray]:
        """Charge per-device virtual time for per-device element counts
        spread over ``n_regions`` regions.

        Cost accounting only — the functional math runs separately (each
        sweep region applied slab by slab in :meth:`_advance`), because
        region fragmentation is a *virtual* concern: launch counts and
        per-device shares feed the cost model, while the host applies
        whatever slabs keep its temporaries small.  Returns (finish time,
        per-device busy seconds).
        """
        env = self.env
        busy = np.zeros(len(env.devices))
        finish = ready
        for d, dev in enumerate(env.devices):
            n_model = counts[d] * self._elem_scale
            if n_model <= 0:
                continue
            work = self._effective_work(dev)
            if isinstance(dev, GPUDevice):
                # Tiling groups all boundary planes into one launch; without
                # it each face costs its own kernel launch.
                launches = 1 if (self.tiling or phase != "boundary") else n_regions
                dur = launches * dev.spec.kernel_launch_overhead + n_model * dev.elem_time(
                    work, framework=True
                )
                iv = dev.compute_engine.schedule(ready, dur, f"stencil.{phase}")
                busy[d] += dur
                finish = max(finish, iv.end)
            else:
                dur = dev.partition_time(work, n_model, framework=True)
                iv = dev.timelines()[0].schedule(ready, dur, f"stencil.{phase}")
                busy[d] += dur
                finish = max(finish, iv.end)
            if env.trace.enabled:
                env.trace.record("compute", f"ST:{phase}:{dev.name}", iv.start, iv.end)
        return finish, busy

    def _sweep_counts(self, s: int, sweeps: int, rows: np.ndarray) -> list[float]:
        """Per-device functional element counts charged for sweep ``s``.

        The valid region shrinks by ``halo`` toward every *open* side per
        sweep: at sweep ``s`` the computed box still extends
        ``e = (sweeps-1-s)*halo`` past the interior toward rank
        neighbours (ghost-zone recomputation), and every device
        additionally recomputes ``e`` rows past its own split planes —
        inter-device planes are exchanged once per round, so the sweeps
        in between must recompute across them too.  Sides at a global
        border never extend.
        """
        shape, neighbors = self.local_shape, self._neighbors
        h = self._kernel.halo
        e = (sweeps - 1 - s) * h
        cross = 1.0
        for ax in range(1, len(shape)):
            lo, hi = neighbors[ax]
            cross *= shape[ax] + e * ((lo != PROC_NULL) + (hi != PROC_NULL))
        lo0, hi0 = neighbors[0]
        n_dev = len(rows)
        counts: list[float] = []
        for d in range(n_dev):
            r = float(rows[d])
            if r <= 0:
                counts.append(0.0)
                continue
            open_lo = (d > 0) or (lo0 != PROC_NULL)
            open_hi = (d < n_dev - 1) or (hi0 != PROC_NULL)
            counts.append((r + e * (open_lo + open_hi)) * cross)
        return counts

    def _sweep_regions(self, sweeps: int) -> list[list[tuple[slice, ...]]]:
        """Functional compute region for each sweep of one exchange round,
        as the axis-0 slabs of at most :data:`SLAB_ELEMS` elements (or one
        row, if a row is wider) that :meth:`_advance` hands the kernel one
        at a time.

        Sweep ``s`` writes the interior extended by ``(sweeps-1-s)*halo``
        toward every side with a rank neighbour.  Each region plus its
        ``halo``-neighbourhood is contained in the previous sweep's
        region (or, for sweep 0, in the freshly exchanged slabs), so
        every ghost value recomputed here equals bit-for-bit what the
        owning rank computes: both run the same elementwise update on the
        same time-``t`` data.  Global-border halo cells are never written
        and stay zero in both buffers — the convention
        :func:`reference_sweeps` uses.
        """
        h = self._kernel.halo
        out: list[list[tuple[slice, ...]]] = []
        for s in range(sweeps):
            e = (sweeps - 1 - s) * h
            ys, *rest = (
                slice(
                    sl.start - (e if lo != PROC_NULL else 0),
                    sl.stop + (e if hi != PROC_NULL else 0),
                )
                for sl, (lo, hi) in zip(self.interior, self._neighbors)
            )
            rows = ys.stop - ys.start
            cross = math.prod(sl.stop - sl.start for sl in rest)
            n = min(rows, -(-rows * cross // SLAB_ELEMS))
            bounds = [ys.start + i * rows // n for i in range(n + 1)]
            out.append([(slice(a, b), *rest) for a, b in zip(bounds, bounds[1:])])
        return out

    def _round_plan(self, sweeps: int, rows: np.ndarray) -> tuple:
        """Everything one round of ``sweeps`` sweeps charges and applies
        that is fixed for this configuration and device split.

        Returns ``(inner, remainder, later, regions, observed,
        redundant_flops)``: the per-device counts of sweep 0's inner box
        (overlaps the exchange) and of the rest of its ghost-extended
        region (waits for halos and device planes), the counts of sweeps
        ``1..sweeps-1``, the functional slabs per sweep, the per-sweep-
        averaged counts the partitioner observes (ghost rows included,
        so the extra work does not bias the speed profile), and the
        model-scale redundant flops of the round.  Built on first use
        per (sweeps, split); the split changes once, after profiling.
        """
        key = (sweeps, rows.tobytes())
        plan = self._plans.get(key)
        if plan is not None:
            return plan
        # tolist(): keep the per-device shares python floats — numpy scalars
        # leaking into the time arithmetic slow every max()/schedule() call.
        shares = (rows / max(1, int(rows.sum()))).tolist()
        counts = [self._sweep_counts(s, sweeps, rows) for s in range(sweeps)]
        inner = [self._inner_elems * share for share in shares]
        if sweeps == 1:
            # Same set as ``counts[0] - inner`` (no ghost extension), but
            # the committed makespans pin this rounding on device mixes.
            remainder = [self._boundary_elems * share for share in shares]
        else:
            # Strictly positive: the extension only ever grows the region
            # past inner + boundary.
            remainder = [c - i for c, i in zip(counts[0], inner)]
        total = np.sum(np.asarray(counts, dtype=float), axis=0)
        interior_elems = float(self._inner_elems + self._boundary_elems)
        redundant = (
            max(0.0, float(total.sum()) - sweeps * interior_elems)
            * self._elem_scale
            * self._kernel.work.flops_per_elem
        )
        plan = (inner, remainder, counts[1:], self._sweep_regions(sweeps), total / sweeps, redundant)
        self._plans[key] = plan
        return plan

    # -- one exchange round ------------------------------------------------------------
    def _advance(self, sweeps: int) -> None:
        """One exchange round: one halo exchange, then ``sweeps`` sweeps.

        Sweep 0 splits in two: the inner box overlaps the wire, the rest
        of its (ghost-extended) region waits for halos and device planes.
        Sweeps ``1..sweeps-1`` are charged sequentially: pure local
        compute over a shrinking region, with the redundant ghost
        elements priced as real flops through the same device cost model.
        The functional sweeps run afterwards, decoupled from the charges:
        each sweep region is applied as axis-0 slabs of at most
        :data:`SLAB_ELEMS` elements (elementwise updates give bit-identical
        results however a box is cut), so gathered grids are bit-identical
        for every ``sweeps`` and no kernel temporary grows with the region.
        Slabbing is also faster, because each temporary stays in cache: on
        a 2-vCPU Xeon, ``heat_apply`` over a 48³ box takes 2.0 ms in one
        call and 0.95 ms as four slabs.
        """
        self._check_configured()
        env = self.env
        clock = env.clock
        # Pick up the round _begin_step_early() opened, if any.
        t0, rows, recvs = self._prestarted or self._begin_round()
        self._prestarted = None
        inner, remainder, later, slabs, observed, redundant = self._round_plan(sweeps, rows)

        if self.overlap:
            inner_done, busy = self._charge_counts(inner, 1, "inner", clock.now)
            self._finish_exchange(recvs, rows)
            ready = max(inner_done, self._interdevice_exchange(clock.now))
        else:
            self._finish_exchange(recvs, rows)
            inner_done, busy = self._charge_counts(
                inner, 1, "inner", self._interdevice_exchange(clock.now)
            )
            ready = inner_done
        end, busy_s = self._charge_counts(remainder, 2 * len(self.local_shape), "boundary", ready)
        end = max(inner_done, end)
        busy += busy_s
        for counts in later:
            end, busy_s = self._charge_counts(counts, 1, "sweep", end)
            busy += busy_s
        clock.advance_to(end)

        apply = self._kernel.apply
        param = StencilFields(self._parameter, self._fields) if self._fields else self._parameter
        for sweep in slabs:
            for slab in sweep:
                apply(self._src, self._dst, slab, param)
            if self._conv is not None:
                # Interiors are always fully valid, even mid-round: every
                # sweep's region contains the interior, so the fused local
                # value is bitwise the one an unblocked sweep produces.
                new = self._dst[self.interior]
                self._values.append(l2_sq_residual(self._src[self.interior], new))
                if len(self._grids) < self._rewind_points:
                    self._grids.append(new.copy())
            self._src, self._dst = self._dst, self._src
            self._timestep += 1

        if not self._partitioner.profiled and busy.sum() > 0:
            self._partitioner.observe(observed, np.maximum(busy, 1e-30))

        self._redundant_flops += redundant
        if env.trace.enabled:
            env.trace.gauge("stencil.time_block", float(self._time_block))
            env.trace.gauge("halo.redundant_flops", self._redundant_flops)
            env.trace.record(
                "compute", "ST:step", t0, clock.now, {"step": self._timestep, "sweeps": sweeps}
            )

    def run(self, iterations: int) -> None:
        """Run ``iterations`` stencil *sweeps* (paper: the time-step loop).

        The sweeps execute in rounds of ``time_block``; a final partial
        round still exchanges at the configured ``time_block * halo``
        depth (the halo slabs are fixed at configure time — the
        overshoot bytes are charged honestly) but only sweeps
        the remaining iterations, so the run lands exactly on
        ``iterations`` applications.
        """
        if iterations < 1:
            raise ConfigurationError(f"iterations must be >= 1, got {iterations}")
        left = iterations
        while left > 0:
            sweeps = min(self._time_block, left)
            self._advance(sweeps)
            left -= sweeps

    # -- the fused stencil+reduce loop -----------------------------------------------
    def run_until(
        self,
        *,
        max_iters: int,
        tol: float | None = None,
        checkpoint: CheckpointManager | None = None,
    ) -> ConvergenceResult:
        """Iterate until the L2 norm of the update drops to ``tol`` or
        ``max_iters``.

        The loop runs one exchange round at a time (``time_block`` sweeps
        each; 1 by default): every sweep also produces the local squared
        L2 norm of its update over the interior (charged at
        :data:`FUSED_REDUCE_FLOPS` extra per element), then come the next
        round's speculative halo send, one *vector* sum folding all the
        round's local values at once (bitwise identical per component to
        one scalar sum per sweep), and the convergence test per sweep on
        the combined value's square root.  Checkpoint snapshots land on
        round boundaries.  Residual histories and final grids are the same
        bit for bit for every ``time_block``, including a mid-round
        convergence (the grid rewinds to the converged sweep).  The reduce
        is armed only for the loop's duration.

        Args:
            max_iters: Hard iteration cap (>= 1).
            tol: Stop once the residual is ``<= tol``; ``None`` never
                stops early (pure fixed-step fused loop).
            checkpoint: Drive the loop through this
                :class:`~repro.core.checkpoint.CheckpointManager`
                (speculation is disabled: no in-flight halo message may
                straddle a rollback boundary).

        Returns:
            The convergence record; every rank returns identical
            iteration counts and residual sequences (the combine is a
            collective).
        """
        self._check_configured()
        if max_iters < 1:
            raise ConfigurationError(f"max_iters must be >= 1, got {max_iters}")
        self._conv = conv = {"iterations": 0, "residuals": [], "values": [], "converged": False}
        k = self._time_block

        def body(_round: int) -> bool:
            left = max_iters - conv["iterations"]
            # Speculate only when another round follows, and never under
            # a checkpoint manager: no halo message may be in flight
            # across a rollback boundary.
            return self._fused_round(
                min(k, left), tol, speculate=checkpoint is None and left > k
            )

        try:
            # One loop iteration per exchange round, so checkpoints land
            # on round boundaries and a crash-restart inside a round
            # replays it whole to the same bit-identical grid and history.
            rounds = -(-max_iters // k)
            if checkpoint is not None:
                checkpoint.run_convergence(
                    rounds, body, self.snapshot_state, self.restore_state
                )
            else:
                for it in range(rounds):
                    if body(it):
                        break
                self._cancel_begun_step()
            return ConvergenceResult(**conv)
        finally:
            self._conv = None
            self._values, self._grids = [], []

    def _fused_round(self, sweeps: int, tol: float | None, *, speculate: bool) -> bool:
        """One round of fused sweeps + a single vector combine.

        :meth:`_advance` captures every sweep's local value; the round
        then folds all of them in *one* collective, the communicator's
        ``allreduce`` — recursive doubling applies the combine ufunc
        elementwise, so each component of the folded vector is bitwise
        the scalar a per-sweep ``allreduce`` would have produced (same
        rank tree, same IEEE op order).  Fusion changes only the
        placement: the combine runs while the speculatively begun
        next-round halo messages are in flight.  Residuals are consumed
        sweep by sweep against ``tol``: on a mid-round hit the grid
        rewinds to the converged sweep's interior (the overshot sweeps'
        charges stay — the round was really computed) and the history
        ends exactly where the ``time_block=1`` loop's would.  Returns
        True to stop.
        """
        env = self.env
        conv = self._conv
        self._values, self._grids = [], []
        self._rewind_points = sweeps - 1 if tol is not None else 0
        self._advance(sweeps)
        if speculate:
            # Post the next round's exchange before the combine so the
            # strips' flight time hides under the collective.
            self._begin_step_early()
        t0 = env.clock.now
        combined = env.comm.allreduce(np.array(self._values), op="sum")
        if env.trace.enabled:
            env.trace.record(
                "stencil_reduce", "SR:combine", t0, env.clock.now, {"step": self._timestep}
            )
            env.trace.count("stencil_reduce.combines")
        for s in range(sweeps):
            value = combined[s]
            conv["iterations"] += 1
            conv["values"].append(value)
            residual = math.sqrt(value)
            conv["residuals"].append(residual)
            if env.trace.enabled:
                env.trace.count("stencil_reduce.steps")
                env.trace.gauge("stencil_reduce.residual", residual)
            if tol is not None and residual <= tol:
                conv["converged"] = True
                if s < sweeps - 1:
                    # The round overshot: functionally rewind the grid to
                    # the converged sweep (halos are stale but the loop
                    # is over; results read interiors only).
                    self._src[self.interior] = self._grids[s]
                return True
        return False

    # -- checkpoint/restart ------------------------------------------------------------
    def snapshot_state(self) -> dict:
        """Independent copy of the evolving per-rank state (checkpoint hook).

        Captures exactly what one iteration mutates: both grid buffers
        (halos included — a restored rank must not need a fresh exchange
        to resume), the timestep counter, the current device split and
        the adaptive partitioner's observed profile.  No exchange state
        needs capturing: a pack buffer lives only as long as its message,
        and a snapshot is refused while an exchange is in flight.  With
        temporal blocking, snapshots land on
        block boundaries (the checkpoint drivers step whole blocks), so no
        intra-block position needs saving either.  The partitioner state matters
        because a crash-restarted rank rebuilds its runtime with a fresh,
        *unprofiled* partitioner: without the saved speeds it would
        re-profile from an even split while the surviving ranks keep
        their proportional splits, and every post-recovery device charge
        (hence the makespan) would diverge from an uninterrupted run.
        Read-only configuration (decomposition, kernel, static fields) is
        rebuilt identically by the rank program and is deliberately not
        snapshotted.

        Inside :meth:`run_until` the convergence accumulator evolves with
        the loop, so it snapshots with the grid.
        """
        self._check_configured()
        if self._prestarted is not None:
            raise ConfigurationError(
                "cannot snapshot with a speculative exchange in flight; "
                "run_until does not speculate under a checkpoint manager"
            )
        state = {
            "src": self._src.copy(),
            "dst": self._dst.copy(),
            "timestep": self._timestep,
            "rows": None if self._rows is None else self._rows.copy(),
            # Empty, but its estimated size is part of the pinned checkpoint charge.
            "fields": {},
            "partitioner": self._partitioner.state_dict(),
        }
        if self._conv is not None:
            # Histories are append-only and the combined values are fresh
            # objects each step, so shallow list copies are independent.
            conv = self._conv
            state["convergence"] = {
                **conv, "residuals": list(conv["residuals"]), "values": list(conv["values"])
            }
            # Never changes, but its estimated size is part of the
            # checkpoint charge.
            state["parameter"] = self._parameter
        return state

    def restore_state(self, state: dict) -> None:
        """Reinstate a :meth:`snapshot_state` snapshot (restart hook)."""
        self._check_configured()
        np.copyto(self._src, state["src"])
        np.copyto(self._dst, state["dst"])
        self._timestep = state["timestep"]
        self._rows = None if state["rows"] is None else state["rows"].copy()
        self._partitioner.load_state(state["partitioner"])
        conv = state.get("convergence")
        if conv is not None and self._conv is not None:
            self._conv.update(
                conv, residuals=list(conv["residuals"]), values=list(conv["values"])
            )

    # -- results ---------------------------------------------------------------------------
    def gather_global(self) -> np.ndarray | None:
        """Assemble the full grid at rank 0 (test/diagnostic helper).

        Rank 0 reads its own interior in place; every other rank sends one
        read-only copy, which the payload layer shares instead of
        snapshotting it again.
        """
        self._check_configured()
        block = self._src[self.interior]
        if self.env.comm.rank != 0:
            block = block.copy()
            block.flags.writeable = False
        parts = self.env.comm.gather((self.local_start, block), root=0)
        if parts is None:
            return None
        out = np.zeros(self.global_shape, dtype=self._kernel.dtype)
        for start, block in parts:
            out[tuple(slice(lo, lo + n) for lo, n in zip(start, block.shape))] = block
        return out

    def _check_configured(self) -> None:
        if not self._configured:
            raise ConfigurationError("call configure first")
