"""Fixed-radius neighbour search: the one pair finder behind every edge list.

A NumPy cell list.  Points are binned into cells no narrower than the cutoff
and sorted by cell key, z fastest, so the z-neighbours of a cell are adjacent
keys and a point's candidates in one ``(dx, dy)`` column of cells are **one
contiguous range** of the sorted order.  The five columns of the half
stencil cover each pair exactly once.
"""

from __future__ import annotations

import numpy as np

from repro.util.errors import ValidationError

#: Cells are this much wider than the cutoff, so rounding in the cell index
#: can never put two points within the cutoff more than one cell apart.
_CELL_SLACK = 1.0 + 1e-6

#: Cell columns searched from each point.  Column (0, 0) pairs a point only
#: with the points after it in the sorted order; the other four are the
#: forward half of the 3 x 3 neighbourhood.
_HALF_STENCIL = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))

#: Points expanded at a time: keeps the candidate temporaries cache-sized
#: (measured 10-20 % faster than whole columns from 10 k points up).
_BLOCK = 2048


def _grid_shape(span: np.ndarray, cutoff: float, n: int) -> np.ndarray:
    """Cells per axis: none narrower than the cutoff, O(n) of them in total."""
    # A zero-extent axis is one cell, and a tiny cutoff over a wide box gets
    # wider cells rather than span / cutoff of them per axis.
    cells = np.clip(span / (cutoff * _CELL_SLACK), 1.0, 2.0 * n)
    while cells.prod() > 2 * n:
        cells = np.maximum(1.0, cells / 2)
    return cells.astype(np.int64)


def neighbor_pairs(positions: np.ndarray, cutoff: float) -> np.ndarray:
    """All pairs of points no farther apart than ``cutoff`` (inclusive).

    Returns an ``(m, 2)`` int64 array with ``u < v`` in every row and the
    rows in lexicographic order, so the order is a property of the input.
    """
    pos = np.asarray(positions, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValidationError(f"positions must be (n, 3), got {pos.shape}")
    if cutoff <= 0:
        raise ValidationError(f"cutoff must be > 0, got {cutoff}")
    n = len(pos)
    if n < 2:
        return np.empty((0, 2), dtype=np.int64)
    lo = pos.min(axis=0)
    span = pos.max(axis=0) - lo
    cells = _grid_shape(span, cutoff, n)
    per_unit = cells / np.where(span > 0, span, 1.0)
    # Cell indices start at 1: an empty border cell on every side of the grid
    # lets the stencil step off the edge without a bounds check.
    cell = np.minimum(((pos - lo) * per_unit).astype(np.int64), cells - 1) + 1
    nx, ny, nz = (int(c) + 2 for c in cells)
    key = (cell[:, 0] * ny + cell[:, 1]) * nz + cell[:, 2]
    order = np.argsort(key, kind="stable")
    key = key[order]
    coords = [np.ascontiguousarray(pos[order, a]) for a in range(3)]
    # first[k]: where cell k begins in the sorted order (first[-1] == n).
    first = np.concatenate(([0], np.cumsum(np.bincount(key, minlength=nx * ny * nz))))
    us, vs = [], []
    for dx, dy in _HALF_STENCIL:
        below = key + (dx * ny + dy) * nz - 1  # cells z-1, z, z+1 of the column
        starts = np.arange(1, n + 1) if dx == dy == 0 else first[below]
        counts = first[below + 3] - starts
        for block in (slice(b, b + _BLOCK) for b in range(0, n, _BLOCK)):
            start, count = starts[block], counts[block]
            # Expand every [start, start + count) range into explicit indices.
            ends = np.cumsum(count)
            j = np.arange(ends[-1])
            j += np.repeat(start - (ends - count), count)
            d2 = sum((np.repeat(c[block], count) - c.take(j)) ** 2 for c in coords)
            near = np.flatnonzero(d2 <= cutoff * cutoff)
            us.append(np.repeat(order[block], count).take(near))
            vs.append(order.take(j.take(near)))
    u, v = np.concatenate(us), np.concatenate(vs)
    # min * n + max sorts lexicographically and decodes with one divmod,
    # straight into the two columns of the result.
    code = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    pairs = np.empty((len(code), 2), dtype=np.int64)
    np.divmod(code, n, out=(pairs[:, 0], pairs[:, 1]))
    return pairs
