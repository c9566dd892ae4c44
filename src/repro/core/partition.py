"""Workload partitioning: reduction-space blocks and edge classification.

Implements the paper's §II-A partitioning scheme for irregular reductions:

1. Divide the nodes (the *reduction space*) into equal contiguous blocks,
   one per partition (process or device).
2. Group the edges: an edge whose endpoints fall in the same block is
   *local* (assigned exclusively); an edge crossing blocks is a *cross
   edge* and is assigned to **both** partitions — each side updates only
   its own endpoint, which removes races and the need for a combine step.

:func:`arrange_nodes` additionally builds the Fig. 3 memory layout: local
nodes stored contiguously in front, remote nodes grouped (contiguously) by
owning process behind them, plus a global-ID array for the data exchange
and the renumbering of edge endpoints into local slots.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.util.errors import ValidationError


def block_partition(n: int, parts: int) -> np.ndarray:
    """Offsets of a balanced contiguous split of ``range(n)`` into ``parts``.

    Returns ``parts + 1`` offsets; partition ``p`` is
    ``[offsets[p], offsets[p+1])``.  The first ``n % parts`` partitions get
    one extra element.

    >>> block_partition(10, 3)
    array([ 0,  4,  7, 10])
    """
    if n < 0:
        raise ValidationError(f"n must be >= 0, got {n}")
    if parts <= 0:
        raise ValidationError(f"parts must be > 0, got {parts}")
    base, extra = divmod(n, parts)
    sizes = np.full(parts, base, dtype=np.int64)
    sizes[:extra] += 1
    return np.concatenate([[0], np.cumsum(sizes)])


def owner_of(offsets: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Partition index owning each ID, given block offsets.

    >>> owner_of(np.array([0, 4, 7, 10]), np.array([0, 3, 4, 9]))
    array([0, 0, 1, 2])
    """
    ids = np.asarray(ids)
    if ids.size and (ids.min() < offsets[0] or ids.max() >= offsets[-1]):
        raise ValidationError("ids outside the partitioned range")
    return np.searchsorted(offsets, ids, side="right") - 1


def classify_edges(
    edges: np.ndarray, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """Masks of (local, cross) edges relative to node block ``[lo, hi)``.

    *Local*: both endpoints inside the block.  *Cross*: exactly one
    endpoint inside.  Edges touching the block not at all get neither mask
    (they belong to other partitions).
    """
    edges = np.asarray(edges)
    if edges.ndim != 2 or edges.shape[1] != 2:
        raise ValidationError(f"edges must be (m, 2), got {edges.shape}")
    in0 = (edges[:, 0] >= lo) & (edges[:, 0] < hi)
    in1 = (edges[:, 1] >= lo) & (edges[:, 1] < hi)
    local = in0 & in1
    cross = in0 ^ in1
    return local, cross


@dataclass
class NodeArrangement:
    """The Fig. 3 node layout for one process.

    Attributes:
        lo, hi: Global-ID range of the local node block.
        remote_ids: ``{owner_rank: sorted global IDs}`` of remote nodes this
            process reads (endpoints of its cross edges).
        remote_offsets: ``{owner_rank: slot offset}`` where that owner's
            remote block begins in the arranged array.
        n_slots: Total arranged slots = local count + all remote counts.
    """

    lo: int
    hi: int
    remote_ids: dict[int, np.ndarray]
    remote_offsets: dict[int, int]
    n_slots: int

    @property
    def n_local(self) -> int:
        return self.hi - self.lo

    def slot_of_global(self, global_ids: np.ndarray, n_global: int) -> np.ndarray:
        """Map global node IDs to arranged local slots (vectorized).

        Raises if any ID is neither local nor a known remote.
        """
        lookup = np.full(n_global, -1, dtype=np.int64)
        lookup[self.lo : self.hi] = np.arange(self.n_local)
        for owner, ids in self.remote_ids.items():
            base = self.remote_offsets[owner]
            lookup[ids] = base + np.arange(len(ids))
        slots = lookup[np.asarray(global_ids)]
        if slots.size and slots.min() < 0:
            raise ValidationError("edge references a node that is neither local nor remote")
        return slots


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array.

    NumPy 2.4's ``np.unique`` imports ``numpy.ma`` on first use (13 ms and
    1.2 MiB in the first irregular job of a process) to ask about masks.
    """
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def arrange_nodes(
    edges: np.ndarray, offsets: np.ndarray, my_part: int
) -> tuple[NodeArrangement, np.ndarray, np.ndarray]:
    """Build this partition's edge set and node arrangement.

    Args:
        edges: Global ``(m, 2)`` indirection array (all edges).
        offsets: Node block offsets from :func:`block_partition`.
        my_part: This process's partition index.

    Returns:
        ``(arrangement, local_edges, cross_edges)`` where the edge arrays
        hold *global* endpoint IDs; renumber them to slots with
        :meth:`NodeArrangement.slot_of_global`.
    """
    nparts = len(offsets) - 1
    if not 0 <= my_part < nparts:
        raise ValidationError(f"my_part {my_part} out of range for {nparts} partitions")
    lo, hi = int(offsets[my_part]), int(offsets[my_part + 1])
    local_mask, cross_mask = classify_edges(edges, lo, hi)
    local_edges = np.asarray(edges)[local_mask]
    cross_edges = np.asarray(edges)[cross_mask]

    # Remote endpoints of cross edges, grouped by owner, each group sorted.
    remote_ids: dict[int, np.ndarray] = {}
    remote_offsets: dict[int, int] = {}
    n_local = hi - lo
    base = n_local
    if len(cross_edges):
        ends = cross_edges.reshape(-1)
        outside = ends[(ends < lo) | (ends >= hi)]
        uniq = _sorted_distinct(outside)
        owners = owner_of(offsets, uniq)
        for owner in _sorted_distinct(owners):
            ids = uniq[owners == owner]
            remote_ids[int(owner)] = ids
            remote_offsets[int(owner)] = base
            base += len(ids)

    arrangement = NodeArrangement(
        lo=lo,
        hi=hi,
        remote_ids=remote_ids,
        remote_offsets=remote_offsets,
        n_slots=base,
    )
    return arrangement, local_edges, cross_edges


def validate_range_tiling(ranges: list[tuple[int, int]], total: int) -> None:
    """Raise unless ``ranges`` exactly tile ``[0, total)``.

    The device split of the reduction space must neither drop nor
    double-cover a node: every node is owned by exactly one device, which
    is what lets device results be concatenated instead of combined.
    Rounding bugs in an adaptive split would silently corrupt results, so
    the runtime checks the tiling on every (re)partition.
    """
    if not ranges:
        raise ValidationError("device ranges must not be empty")
    prev = 0
    for lo, hi in ranges:
        if lo != prev or hi < lo:
            raise ValidationError(
                f"device ranges {ranges} do not tile [0, {total}): "
                f"range ({lo}, {hi}) does not start at {prev}"
            )
        prev = hi
    if prev != total:
        raise ValidationError(
            f"device ranges {ranges} cover [0, {prev}) but the reduction "
            f"space is [0, {total})"
        )


def count_edges_by_node_ranges(
    edges_slots: np.ndarray, ranges: list[tuple[int, int]]
) -> list[int]:
    """Per-device edge counts (local-slot space) of a device node-range split.

    Device-level application of the same reduction-space rule: an edge is
    counted for every device whose range contains at least one endpoint
    (an edge crossing two devices counts for both).  ``ranges`` must tile a
    contiguous span, as :func:`validate_range_tiling` checks; endpoints
    outside it (remote-node slots) belong to no device.  One
    ``searchsorted`` per endpoint column finds each endpoint's device.
    """
    n = len(ranges)
    bounds = np.array([lo for lo, _ in ranges] + [ranges[-1][1]], dtype=np.int64)
    owners = []
    for ends in (edges_slots[:, 0], edges_slots[:, 1]):
        owner = np.searchsorted(bounds, ends, side="right") - 1
        owner[(ends < bounds[0]) | (ends >= bounds[-1])] = n  # no device
        owners.append(owner)
    owners[1][owners[1] == owners[0]] = n  # an edge inside one device counts once
    counts = np.bincount(owners[0], minlength=n + 1) + np.bincount(owners[1], minlength=n + 1)
    return [int(c) for c in counts[:n]]
