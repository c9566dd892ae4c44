"""Atom boxes and neighbor lists for MiniMD.

MiniMD initializes atoms on an FCC lattice and builds a cutoff-based
neighbor list that is rebuilt every ~20 time steps.  :func:`fcc_lattice`
produces the positions (with thermal jitter) and
:func:`build_neighbor_edges` the half neighbor list as an edge array —
which is exactly the indirection-array form the paper's irregular-reduction
pattern consumes.
"""

from __future__ import annotations

import numpy as np

from repro.data import memoized
from repro.data.neighbors import neighbor_pairs
from repro.util.errors import ValidationError
from repro.util.rng import derive_seed, seeded_rng


@memoized
def fcc_lattice(
    cells: int,
    *,
    jitter: float = 0.02,
    seed: int = 0,
) -> np.ndarray:
    """Positions of a ``cells^3`` FCC box (4 atoms per unit cell), in
    lattice constants.

    >>> fcc_lattice(2).shape
    (32, 3)
    """
    if cells < 1:
        raise ValidationError(f"cells must be >= 1, got {cells}")
    base = np.array(
        [[0.0, 0.0, 0.0], [0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]]
    )
    grid = np.array(np.meshgrid(*([np.arange(cells)] * 3), indexing="ij"))
    corners = grid.reshape(3, -1).T  # (cells^3, 3)
    pos = (corners[:, None, :] + base[None, :, :]).reshape(-1, 3)
    if jitter > 0:
        rng = seeded_rng(derive_seed(seed, "fcc", cells))
        pos = pos + rng.normal(0.0, jitter, size=pos.shape)
    return pos


@memoized
def build_neighbor_edges(positions: np.ndarray, cutoff: float) -> np.ndarray:
    """Half neighbor list (each pair once) within ``cutoff``.

    Returns an ``(m, 2)`` int64 edge array, sorted so ``u < v`` — the
    indirection array for the force kernel.
    """
    edges = neighbor_pairs(positions, cutoff)
    if len(edges) == 0:
        raise ValidationError("no neighbors within cutoff; increase cutoff or density")
    return edges
