"""Irregular-reduction runtime (paper §II-A, §III-C/D/E).

The computation space is the edge set; the reduction space is the node
set.  Partitioning follows the paper exactly:

- **Inter-process**: nodes are split into equal contiguous blocks; edges
  with both endpoints local are *local edges*, edges crossing blocks are
  *cross edges* and are assigned to both sides (each side updates only its
  own endpoint).  Node storage uses the Fig. 3 arrangement — local nodes in
  front, remote nodes grouped by owning process behind.
  :func:`repro.core.partition.decompose` computes both in one pass per
  rank, once per ``set_mesh``; the edge data is split by the same edge
  indices.
- **Remote-node exchange**: steps 1–4 (counts + global ID lists) run once
  per connectivity, steps 5–6 (node data) run whenever node data changed,
  all as real messages.  With ``overlap=True`` (default) local edges are
  computed concurrently with the step-5/6 exchange — the paper's
  *overlapped execution* — and cross edges afterwards.
- **Intra-process**: the local reduction space is split across devices by
  the :class:`~repro.core.adaptive.AdaptivePartitioner` (even on the first
  time step, speed-proportional from the second).  Each device further
  relies on shared-memory-sized reduction partitions
  (:func:`~repro.device.costmodel.shared_memory_partitions`) which make
  its atomic updates cheap.  Device results are *concatenated*, never
  combined — the reduction space is disjoint.

Functional honesty: remote node slots are filled **only** by the exchange
protocol; if the protocol were wrong, results would be wrong.

Because device slices of the reduction space are disjoint and
concatenated, a rank's result is functionally one reduction object over
its local nodes, and that is all the runtime keeps: one
:class:`DenseReductionObject` over ``[0, n_local)`` with precomputed
scatter plans (:meth:`DenseReductionObject.plan_scatter`; float64 sums
only, other ops scatter unplanned) for the four endpoint columns of the
local/cross edge arrays, built once per
``set_mesh``/``set_kernel`` and reset in place every step.  The edge
kernel runs once per phase over the full edge array and scatters straight
into it.  The device split decides only what each device is *charged*:
per device it is a pair of local/cross edge counts (cross-device edges
counted on both sides), recounted after every repartition.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.communicator import Exchange, NeighborExchange
from repro.core.api import IRKernel
from repro.core.adaptive import AdaptivePartitioner
from repro.core.env import RuntimeEnv
from repro.core.partition import (
    block_partition,
    count_edges_by_node_ranges,
    decompose,
    validate_range_tiling,
)
from repro.core.reduction_object import DenseReductionObject
from repro.device.costmodel import shared_memory_partitions
from repro.device.gpu import GPUDevice
from repro.device.work import scaled
from repro.util.errors import ConfigurationError

_TAG_IDS = 102
_TAG_DATA = 103


class IrregularReductionRuntime:
    """Runtime instance for an irregular-reduction kernel over one mesh."""

    def __init__(
        self,
        env: RuntimeEnv,
        *,
        overlap: bool = True,
        adaptive: bool = True,
    ) -> None:
        """
        Args:
            env: The owning runtime environment.
            overlap: Overlap local-edge computation with the node-data
                exchange (paper's optimization; Fig. 7 ablates it).
            adaptive: Re-split the device workload by profiled speed from
                the second time step (paper §III-D); ``False`` keeps the
                even split (ablation).
        """
        self.env = env
        self.overlap = overlap
        self.adaptive = adaptive
        self._kernel: IRKernel | None = None
        self._parameter: Any = None
        # Mesh state (set_mesh / _setup)
        self._configured = False
        self._needs_id_exchange = True
        self._data_dirty = True
        self._gpu_edges_loaded = False
        self._timestep = 0
        self._partitioner: AdaptivePartitioner | None = None
        self._ranges: list[tuple[int, int]] | None = None
        # The rank's one reduction object (built lazily in start) and a
        # view of its local rows once a step has produced them.
        self._obj: DenseReductionObject | None = None
        self._result: np.ndarray | None = None
        # Per-phase, per-device edge counts of the current device split.
        self._device_edges: dict[str, list[int]] | None = None
        # The step-5/6 plan and the step-5 gather index of all requesters
        # concatenated, both built by the id exchange.
        self._exchange: NeighborExchange | None = None
        self._serve_idx: np.ndarray | None = None

    # -- configuration ---------------------------------------------------
    def set_kernel(self, kernel: IRKernel) -> None:
        self._kernel = kernel
        # The reduction object embeds the kernel's op, width and dtype.
        self._obj = None

    def set_parameter(self, parameter: Any) -> None:
        self._parameter = parameter

    def set_mesh(
        self,
        edges: np.ndarray,
        node_data: np.ndarray,
        edge_data: np.ndarray | None = None,
        *,
        model_edges: int | None = None,
        model_nodes: int | None = None,
        device_node_bytes: float | None = None,
        exchange_scale: float | None = None,
    ) -> None:
        """Provide the (global) mesh; every rank passes identical arrays.

        Args:
            edges: ``(m, 2)`` indirection array of global node IDs.
            node_data: ``(n, node_width)`` per-node attributes.
            edge_data: Optional per-edge attributes aligned with ``edges``.
            model_edges / model_nodes: Paper-scale counts the functional
                mesh stands for (costs are charged at that scale).
            device_node_bytes: Bytes per node actually uploaded to each
                GPU's full node copy every time node data changes (default:
                the whole row; MD apps upload positions only).
            exchange_scale: Scale factor for the *remote-node exchange*
                wire volume (default: ``model_nodes / functional_nodes``).
                Remote-node counts grow with partition *surface*, not
                volume, so apps with geometric meshes pass a
                surface-corrected factor (see ``repro.apps.minimd``).
        """
        edges = np.asarray(edges)
        node_data = np.asarray(node_data, dtype=np.float64)
        if node_data.ndim == 1:
            node_data = node_data[:, None]
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ConfigurationError(f"edges must be (m, 2), got {edges.shape}")
        if edges.size and (edges.min() < 0 or edges.max() >= len(node_data)):
            raise ConfigurationError(f"edge node ids must lie in [0, {len(node_data)})")
        if edge_data is not None:
            edge_data = np.asarray(edge_data)
            if len(edge_data) != len(edges):
                raise ConfigurationError(
                    f"edge_data has {len(edge_data)} rows but edges has {len(edges)}"
                )
        self._n_global_nodes = len(node_data)
        self._n_global_edges = len(edges)
        self._edge_scale = scaled(max(1, len(edges)), model_edges)
        self._node_scale = scaled(max(1, len(node_data)), model_nodes)
        self._exchange_scale = (
            float(exchange_scale) if exchange_scale is not None else self._node_scale
        )
        if self._exchange_scale <= 0:
            raise ConfigurationError("exchange_scale must be > 0")

        rank = self.env.rank
        offsets = block_partition(self._n_global_nodes, self.env.nprocs)
        self._lo, self._n_local = int(offsets[rank]), int(offsets[rank + 1] - offsets[rank])
        # Edge endpoints come renumbered to arranged slots (paper: "converts
        # these IDs into the local rank").  Frozen: the scatter plans key
        # off these arrays' memory identity.
        local, cross, self._local_edges, self._cross_edges, self._remote, self._groups = (
            decompose(edges, offsets, rank)
        )
        self._local_edges.flags.writeable = False
        self._cross_edges.flags.writeable = False

        # Edge data travels with its edges.
        if edge_data is not None:
            self._local_edge_data = edge_data[local]
            self._cross_edge_data = edge_data[cross]
        else:
            self._local_edge_data = None
            self._cross_edge_data = None

        # Arranged node-data store (Fig. 3): local block + grouped remotes.
        self._node_width = node_data.shape[1]
        self._device_node_bytes = (
            float(device_node_bytes)
            if device_node_bytes is not None
            else float(self._node_width * 8)
        )
        self._nodes = np.zeros((self._n_local + len(self._remote), self._node_width))
        self._nodes[: self._n_local] = node_data[self._lo : self._lo + self._n_local]
        # Remote slots deliberately stay zero until the exchange fills them.

        self._partitioner = AdaptivePartitioner(len(self.env.devices))
        self._ranges = None
        self._configured = True
        self._needs_id_exchange = True
        self._data_dirty = True
        self._gpu_edges_loaded = False
        self._timestep = 0
        self._device_edges = None
        self._obj = None
        self._result = None

        # Load-time cost: each process inspects the full edge list to pick
        # its own (paper §III-B "inspects all the input edges").
        inspect = self._n_global_edges * self._edge_scale * 2 * 8  # two int64 reads/edge
        t0 = self.env.clock.now
        self.env.clock.advance(inspect / self.env.ctx.node.cpu.mem_bandwidth)
        if self.env.trace.enabled:
            self.env.trace.record("compute", "IR:inspect", t0, self.env.clock.now)

    # -- remote-node ID exchange (steps 1-4) -------------------------------
    def _exchange_ids(self) -> None:
        comm = self.env.comm
        groups = self._groups
        # Steps 1-2: tell every process how many of its nodes we need
        # (an all-to-all of counts stands in for the pairwise requests).
        counts = np.diff(groups)
        all_counts = comm.alltoall(list(counts))
        # Steps 3-4: exchange the actual global-ID lists.
        owners = np.flatnonzero(counts).tolist()
        reqs = []
        for owner in owners:
            ids = self._remote[groups[owner] : groups[owner + 1]]
            reqs.append(
                comm.isend(ids, owner, _TAG_IDS, wire_bytes=ids.nbytes * self._exchange_scale)
            )
        serve = {}
        for requester, cnt in enumerate(all_counts):
            if requester != comm.rank and cnt > 0:
                ids = comm.recv(source=requester, tag=_TAG_IDS)
                serve[requester] = np.asarray(ids) - self._lo  # local indices
        # The step-5/6 plan, one phase of one record per peer: its send is
        # its span of one np.take over all serve indices concatenated, its
        # receive its block of remote node slots.  Requesters and owners
        # are the same ranks, in the same (ascending) order: a cross edge
        # is a cross edge of both blocks it joins.
        row_bytes = self._node_width * self._nodes.itemsize
        records, lo = [], 0
        for peer in owners:
            n, base = len(serve[peer]), self._n_local + int(groups[peer])
            records.append(Exchange(
                peer, _TAG_DATA, slice(lo, lo + n), slice(base, base + int(counts[peer])),
                n * row_bytes * self._exchange_scale,
            ))
            lo += n
        self._exchange = NeighborExchange(comm, (tuple(records),))
        self._serve_idx = np.concatenate([np.zeros(0, np.intp), *map(serve.get, owners)])
        comm.waitall(reqs)
        self._needs_id_exchange = False

    def _send_node_data(self) -> list:
        """Steps 5-6 through the plan: post the receives, gather for every
        requester in one ``np.take`` (the fresh array lives as long as its
        messages) and send each its span.  Returns the posted receives."""
        env, ex = self.env, self._exchange
        (phase,) = ex.phases
        posted = ex.post(phase, self._nodes)
        buf = np.take(self._nodes, self._serve_idx, axis=0)  # step-5 gather
        ex.send(
            phase,
            lambda x: buf[x.send],
            charge=lambda x: env.clock.advance(env.host_memcpy_time(x.wire)),
        )
        return posted

    # -- device partitioning ------------------------------------------------
    def _device_ranges(self) -> list[tuple[int, int]]:
        counts = self._partitioner.split(self._n_local)
        ranges = []
        lo = 0
        for c in counts:
            ranges.append((lo, lo + int(c)))
            lo += int(c)
        validate_range_tiling(ranges, self._n_local)
        return ranges

    def _count_device_edges(self, ranges: list[tuple[int, int]]) -> None:
        """Recount each device's local/cross edges for a new split.

        Runs only on the first step and after a repartition (in practice:
        once even-split, once more when the adaptive profile lands).
        """
        self._device_edges = {
            "local": count_edges_by_node_ranges(self._local_edges, ranges),
            "cross": count_edges_by_node_ranges(self._cross_edges, ranges),
        }
        self.env.trace.count("ir.cache_builds")

    def _reset_reduction_object(self) -> DenseReductionObject:
        """The rank's reduction object, identity-filled for a new step.

        Built on the first step after ``set_mesh``/``set_kernel`` with
        scatter plans for all four endpoint columns; reset in place (plans
        kept) on every later step.
        """
        obj = self._obj
        if obj is not None:
            obj.reset()
            return obj
        kernel = self._kernel
        obj = DenseReductionObject(
            max(1, self._n_local), kernel.value_width, kernel.reduce_op, kernel.dtype
        )
        for edges in (self._local_edges, self._cross_edges):
            obj.plan_scatter(edges[:, 0])
            obj.plan_scatter(edges[:, 1])
        self._obj = obj
        return obj

    # -- one time step --------------------------------------------------------
    def start(self) -> None:
        """Execute one reduction pass over all edges (paper: ``ir->start()``)."""
        if not self._configured:
            raise ConfigurationError("call set_mesh before start")
        if self._kernel is None:
            raise ConfigurationError("no kernel configured")
        env = self.env
        clock = env.clock
        kernel = self._kernel
        t0 = clock.now
        for dev in env.devices:
            dev.reset(start=t0)
        if self._needs_id_exchange:
            self._exchange_ids()

        # Adaptive (re)partitioning of the reduction space across devices;
        # the per-device edge counts are recounted only when the split moved.
        new_ranges = self._device_ranges()
        repartitioned = new_ranges != self._ranges
        self._ranges = new_ranges
        if repartitioned or self._device_edges is None:
            self._count_device_edges(new_ranges)
        n_edges = self._device_edges
        obj = self._reset_reduction_object()

        # Charge GPU-side data movement: edges are uploaded on first use
        # and after every repartition; node data is re-uploaded whenever it
        # changed (full copy per device, paper §III-D).
        if self._local_edge_data is not None:
            per_edge_attr = self._local_edge_data.itemsize * (
                self._local_edge_data.shape[1] if self._local_edge_data.ndim > 1 else 1
            )
        else:
            per_edge_attr = 0
        edge_bytes_per = 2 * 8 + per_edge_attr  # two int64 endpoints + attributes
        node_bytes = len(self._nodes) * self._device_node_bytes * self._node_scale
        upload_done: dict[str, float] = {}
        node_upload_busy: dict[str, float] = {d.name: 0.0 for d in env.devices}
        for d, dev in enumerate(env.devices):
            ready = clock.now
            if isinstance(dev, GPUDevice):
                if repartitioned or not self._gpu_edges_loaded:
                    n_edges_dev = (n_edges["local"][d] + n_edges["cross"][d]) * self._edge_scale
                    iv = dev.copy_engine.schedule(
                        ready, dev.transfer_time(n_edges_dev * edge_bytes_per), "edges.h2d"
                    )
                    ready = iv.end
                if self._data_dirty:
                    iv = dev.copy_engine.schedule(
                        ready, dev.transfer_time(node_bytes), "nodes.h2d"
                    )
                    node_upload_busy[dev.name] = iv.duration
                    ready = iv.end
            upload_done[dev.name] = ready
        self._gpu_edges_loaded = True

        posted = self._send_node_data() if self._data_dirty else []

        # Record the SIII-E shared-memory partition counts (each partition
        # of the reduction space fits one SM's scratchpad).
        elem_bytes = kernel.value_width * kernel.dtype.itemsize
        if env.trace.enabled:
            for d, dev in enumerate(env.devices):
                if isinstance(dev, GPUDevice):
                    lo, hi = new_ranges[d]
                    n_dev_nodes = max(1, int((hi - lo) * self._node_scale))
                    env.trace.record(
                        "partition",
                        f"IR:shared-parts:{dev.name}",
                        clock.now,
                        clock.now,
                        {"num_parts": shared_memory_partitions(n_dev_nodes, elem_bytes, dev.spec)},
                    )

        device_busy = {d.name: 0.0 for d in env.devices}

        def compute_phase(phase: str, ready_floor: float) -> float:
            # Functional execution: one kernel run over the phase's full
            # edge array into the rank's reduction object (its key range
            # drops remote endpoints).  Virtual execution: each device is
            # charged for its own edge count, cross-device edges included.
            finish = ready_floor
            cross = phase == "cross"
            edges_ph = self._cross_edges if cross else self._local_edges
            if len(edges_ph):
                data_ph = self._cross_edge_data if cross else self._local_edge_data
                kernel.edge_compute_batch(obj, edges_ph, data_ph, self._nodes, self._parameter)
            for d, dev in enumerate(env.devices):
                n_d = n_edges[phase][d]
                if n_d == 0:
                    continue
                dur = dev.partition_time(kernel.work, n_d * self._edge_scale, framework=True)
                tl = dev.timelines()[-1]  # compute engine / last core acts as the device line
                iv = tl.schedule(max(upload_done[dev.name], ready_floor), dur, f"IR.{phase}")
                device_busy[dev.name] += dur
                finish = max(finish, iv.end)
                if env.trace.enabled:
                    env.trace.record(
                        "compute", f"IR:{phase}:{dev.name}", iv.start, iv.end, {"edges": n_d}
                    )
            return finish

        # Local edges read no remote node.  Overlapped, they are charged
        # from t0, concurrently with the exchange, and the cross edges wait
        # for every device's local phase and the exchange; otherwise both
        # phases wait for the exchange only.
        self._exchange.complete(posted)  # delivery copies into the posted node slots
        # Only a delivered exchange clears the flag: a rank with no remote
        # nodes stays dirty, so its GPUs re-upload node data every step.
        if posted:
            self._data_dirty = False
        exchanged = clock.now
        overlapped = self.overlap and bool(posted)
        local_done = compute_phase("local", t0 if overlapped else exchanged)
        cross_ready = max(local_done, exchanged) if overlapped else exchanged
        clock.advance_to(max(local_done, compute_phase("cross", cross_ready)))

        # Profile device speeds for the adaptive split (paper: profile the
        # first step, repartition in the second).
        if self.adaptive:
            counts = np.array(
                [n_edges["local"][d] + n_edges["cross"][d] for d in range(len(env.devices))],
                dtype=np.float64,
            )
            # Profile with the *recurring* per-step costs (compute + node
            # re-upload); the one-time edge upload is excluded so the
            # adaptive split reflects steady-state speeds.
            times = np.array(
                [
                    max(device_busy[d.name] + node_upload_busy[d.name], 1e-30)
                    for d in env.devices
                ]
            )
            if counts.sum() > 0 and not self._partitioner.profiled:
                self._partitioner.observe(counts, times)

        self._result = obj.values[: self._n_local]
        self._timestep += 1
        if env.trace.enabled:
            env.trace.record("compute", "IR:step", t0, clock.now, {"step": self._timestep})
            # Per-step accounting: the edges each device is charged for, and
            # the rank's edge contributions attempted / dropped as remote
            # (one reduction object per rank, so counted once per rank).
            for d, dev in enumerate(env.devices):
                env.trace.count(f"ir.edges[{dev.name}]", n_edges["local"][d] + n_edges["cross"][d])
            env.trace.count("ir.inserts", float(obj.n_inserts))
            env.trace.count("ir.dropped", float(obj.n_dropped))

    # -- results / updates -----------------------------------------------------
    @property
    def local_node_range(self) -> tuple[int, int]:
        """Global-ID range ``[lo, hi)`` of this process's nodes."""
        self._check_configured()
        return self._lo, self._lo + self._n_local

    def get_local_reduction(self) -> np.ndarray:
        """``(n_local, value_width)`` reduction result over local nodes.

        The returned array is a view of the rank's reduction object,
        overwritten by the next :meth:`start`; copy it to keep a step's
        result beyond that.
        """
        if self._result is None:
            raise ConfigurationError("start() has not produced a result yet")
        return self._result

    def get_local_nodes(self) -> np.ndarray:
        """Current local node data (a copy)."""
        self._check_configured()
        return self._nodes[: self._n_local].copy()

    def update_nodedata(self, new_local_nodes: np.ndarray) -> None:
        """Replace local node data (paper: ``ir->update_nodedata(result)``).

        Marks the data dirty so the next :meth:`start` re-runs the step-5/6
        exchange (remote copies everywhere are stale now).  The per-device
        edge counts and the reduction object's scatter plans hold only
        connectivity-derived state, so they survive node-data updates.

        SPMD contract: if *any* rank updates its node data between two
        ``start()`` calls, **every** rank must call ``update_nodedata``
        before its next ``start()`` (with unchanged data if it has no
        updates) — the step-5/6 exchange is collective, and a rank that
        skips it would serve stale values to its neighbours.
        """
        self._check_configured()
        new_local_nodes = np.asarray(new_local_nodes, dtype=np.float64)
        if new_local_nodes.shape != (self._n_local, self._node_width):
            raise ConfigurationError(
                f"expected shape {(self._n_local, self._node_width)}, "
                f"got {new_local_nodes.shape}"
            )
        self._nodes[: self._n_local] = new_local_nodes
        t0 = self.env.clock.now
        self.env.clock.advance(self.env.host_memcpy_time(new_local_nodes.nbytes * self._node_scale))
        if self.env.trace.enabled:
            self.env.trace.record("compute", "IR:update", t0, self.env.clock.now)
        self._data_dirty = True

    def _check_configured(self) -> None:
        if not self._configured:
            raise ConfigurationError("call set_mesh first")
