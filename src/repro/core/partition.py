"""Workload partitioning: reduction-space blocks and edge classification.

Implements the paper's §II-A partitioning scheme for irregular reductions:

1. Divide the nodes (the *reduction space*) into equal contiguous blocks,
   one per partition (process or device).
2. Group the edges: an edge whose endpoints fall in the same block is
   *local* (assigned exclusively); an edge crossing blocks is a *cross
   edge* and is assigned to **both** partitions — each side updates only
   its own endpoint, which removes races and the need for a combine step.

:func:`decompose` does both for one process in a single pass — one block
test per endpoint — and renumbers the endpoints into the Fig. 3 memory
layout: local nodes stored contiguously in front, remote nodes behind
them, sorted, which (blocks being contiguous) groups them by owning
process.
"""

from __future__ import annotations

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


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """``np.unique`` of a 1-D integer array.

    NumPy 2.4's ``np.unique`` imports ``numpy.ma`` on first use (13 ms and
    1.2 MiB in the first irregular job of a process) to ask about masks.
    """
    ordered = np.sort(values)
    keep = np.ones(len(ordered), dtype=bool)
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def decompose(
    edges: np.ndarray, offsets: np.ndarray, rank: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Partition ``rank``'s edges and their Fig. 3 endpoint slots, in one pass.

    Each endpoint of the ``(m, 2)`` global indirection array ``edges`` is
    tested once against the node block ``[lo, hi)`` of ``rank`` in the
    :func:`block_partition` ``offsets``; every id must lie in
    ``[offsets[0], offsets[-1])``.  Returns
    ``(local, cross, local_slots, cross_slots, remote, groups)``:

    - ``local`` / ``cross``: the ascending indices into ``edges`` of the
      edges with both / exactly one endpoint in the block, so selecting by
      them keeps global edge order;
    - ``local_slots`` / ``cross_slots``: those edges with every endpoint
      renumbered to its slot, ``id - lo`` for a local node and
      ``hi - lo + i`` for ``remote[i]``;
    - ``remote``: the sorted distinct outside endpoints of the cross edges.
      Blocks are contiguous, so they come grouped by owner in ascending
      order: owner ``p``'s are ``remote[groups[p]:groups[p + 1]]``.

    Rows are gathered with ``np.take`` by index: selecting rows of an
    ``(m, 2)`` array by a boolean mask is ~80x slower.
    """
    lo, hi = int(offsets[rank]), int(offsets[rank + 1])
    inside = (edges >= lo) & (edges < hi)
    local = np.flatnonzero(inside[:, 0] & inside[:, 1])
    cross = np.flatnonzero(inside[:, 0] ^ inside[:, 1])
    cross_slots = np.take(edges, cross, axis=0)
    outside = ~np.take(inside, cross, axis=0)
    ends = cross_slots[outside]
    remote = _sorted_distinct(ends)
    cross_slots -= lo
    cross_slots[outside] = hi - lo + np.searchsorted(remote, ends)
    local_slots = np.take(edges, local, axis=0) - lo
    return local, cross, local_slots, cross_slots, remote, np.searchsorted(remote, offsets)


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
