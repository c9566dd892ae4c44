"""Structured grids and images for stencil applications."""

from __future__ import annotations

import numpy as np

from repro.data import memoized
from repro.util.errors import ValidationError
from repro.util.rng import derive_seed, seeded_rng

#: Elements per generated row slab: temporaries stay this size whatever the
#: grid.  A ``Generator`` drawn in slabs yields the same stream as one draw.
_SLAB_ELEMS = 1 << 15

#: Extent of heat3d's hot box along each axis, as a fraction of the grid's.
_HOT_FRACTION = 0.2

#: Rectangles drawn into each synthetic image.
_N_SHAPES = 24


def _row_slabs(shape: tuple[int, ...]):
    """Axis-0 slices of at most ``_SLAB_ELEMS`` elements (at least one row)."""
    step = max(1, _SLAB_ELEMS // int(np.prod(shape[1:])))
    return (slice(lo, lo + step) for lo in range(0, shape[0], step))


@memoized
def heat3d_initial(shape: tuple[int, int, int], *, seed: int = 0) -> np.ndarray:
    """Initial temperature field: a hot central box in a cold domain.

    Mirrors the classic Heat3D benchmark setup (a heated region diffusing
    into the domain; zero-temperature boundaries).
    """
    if len(shape) != 3 or any(s < 4 for s in shape):
        raise ValidationError(f"shape must be 3-D with extents >= 4, got {shape}")
    grid = np.zeros(shape, dtype=np.float64)
    center = [s // 2 for s in shape]
    half = [max(1, int(s * _HOT_FRACTION / 2)) for s in shape]
    region = tuple(slice(c - h, c + h) for c, h in zip(center, half))
    grid[region] = 100.0
    rng = seeded_rng(derive_seed(seed, "heat3d", shape))
    for rows in _row_slabs(shape):  # symmetry-breaking noise
        grid[rows] += rng.random(grid[rows].shape) * 0.01
    return grid


@memoized
def synthetic_image(shape: tuple[int, int], *, seed: int = 0) -> np.ndarray:
    """A float32 grayscale test image with rectangles and gradients.

    Gives Sobel real edges to find, so correctness checks compare
    meaningful gradient magnitudes rather than noise.
    """
    if len(shape) != 2 or any(s < 8 for s in shape):
        raise ValidationError(f"shape must be 2-D with extents >= 8, got {shape}")
    rng = seeded_rng(derive_seed(seed, "image", shape))
    h, w = shape
    # A row broadcast against a column, slab by slab: index grids would be
    # 8x the image, a whole float64 gradient 2x.
    img = np.empty(shape, dtype=np.float32)
    across, down = np.arange(w) / w * 0.3, np.arange(h) / h * 0.2
    for rows in _row_slabs(shape):
        img[rows] = across + down[rows, None]
    for _ in range(_N_SHAPES):
        y0, x0 = rng.integers(0, h - 4), rng.integers(0, w - 4)
        hh = int(rng.integers(2, max(3, h // 4)))
        ww = int(rng.integers(2, max(3, w // 4)))
        img[y0 : y0 + hh, x0 : x0 + ww] += float(rng.random()) * 0.8
    for rows in _row_slabs(shape):
        img[rows] += rng.normal(0, 0.01, size=img[rows].shape).astype(np.float32)
    return np.clip(img, 0.0, 2.0, out=img)
