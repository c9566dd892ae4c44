"""Unstructured meshes / interaction graphs for irregular reductions.

:func:`geometric_mesh` mimics a molecular-dynamics interaction list
(Moldyn): points in a 3-D box connected when closer than a cutoff.  Nodes
are **sorted along a space-filling order** before IDs are assigned, so the
framework's contiguous block partitioning corresponds to a spatial
partitioning — the same property real MD inputs have after domain-ordering,
and the reason the paper's block scheme keeps the cross-edge fraction low.
"""

from __future__ import annotations

import numpy as np

from repro.data import memoized
from repro.data.neighbors import neighbor_pairs
from repro.util.errors import ValidationError
from repro.util.rng import derive_seed, seeded_rng


#: Bits per axis of a Morton code.
_MORTON_BITS = 8


def _morton_order(points: np.ndarray) -> np.ndarray:
    """Sort order of 3-D points along a Morton (Z-order) curve."""
    cells = 1 << _MORTON_BITS
    scaled = np.clip((points * cells).astype(np.int64), 0, cells - 1)
    code = np.zeros(len(points), dtype=np.int64)
    for b in range(_MORTON_BITS):
        for axis in range(points.shape[1]):
            code |= ((scaled[:, axis] >> b) & 1) << (b * points.shape[1] + axis)
    return np.argsort(code, kind="stable")


@memoized
def geometric_mesh(
    n_nodes: int,
    target_degree: float = 8.0,
    *,
    seed: int = 0,
    shuffle_fraction: float = 0.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Random geometric graph in the unit cube with ~``target_degree`` mean degree.

    ``shuffle_fraction`` randomly relocates that fraction of node IDs
    after the spatial sort, emulating the partial locality of real mesh
    files (generated in domain order, then touched by refinement or atom
    migration).  0.0 = perfect Morton locality, 1.0 ~ arbitrary numbering.

    Returns:
        ``(positions, edges)`` — positions ``(n, 3)`` float64, edges
        ``(m, 2)`` int64 with ``u < v`` (each pair once, as in an
        interaction list).
    """
    if not 0.0 <= shuffle_fraction <= 1.0:
        raise ValidationError("shuffle_fraction must be in [0, 1]")
    if n_nodes < 2:
        raise ValidationError(f"n_nodes must be >= 2, got {n_nodes}")
    if target_degree <= 0:
        raise ValidationError("target_degree must be > 0")
    rng = seeded_rng(derive_seed(seed, "mesh", n_nodes))
    positions = rng.random((n_nodes, 3))
    # Mean degree of an RGG: n * (4/3) pi r^3 => solve r for the target.
    radius = (target_degree / (n_nodes * (4.0 / 3.0) * np.pi)) ** (1.0 / 3.0)
    positions = positions[_morton_order(positions)]
    if shuffle_fraction > 0:
        srng = seeded_rng(derive_seed(seed, "mesh-shuffle", n_nodes))
        k = int(round(shuffle_fraction * n_nodes))
        if k >= 2:
            picked = srng.choice(n_nodes, size=k, replace=False)
            positions[picked] = positions[srng.permutation(picked)]
    edges = neighbor_pairs(positions, radius)
    if len(edges) == 0:
        raise ValidationError(
            f"mesh came out edgeless (n={n_nodes}, degree={target_degree}); "
            f"increase target_degree"
        )
    return positions, edges

