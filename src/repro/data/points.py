"""Point datasets for generalized reductions (Kmeans)."""

from __future__ import annotations

import numpy as np

# The memo is shared by every generator; its two old names stay importable here.
from repro.data import clear_memo as clear_points_cache
from repro.data import memo_stats as points_cache_stats
from repro.data import memoized
from repro.util.errors import ValidationError
from repro.util.rng import derive_seed, seeded_rng

#: Standard deviation of each blob around its center, per dimension.
SPREAD = 0.05


@memoized
def clustered_points(
    n: int,
    k: int,
    dims: int = 3,
    *,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian blobs around ``k`` centers in the unit cube.

    Matches the paper's Kmeans input shape ("a three-dimensional dataset
    with 40 centers"); single precision, like the 12-byte/point dataset.

    Returns:
        ``(points, true_centers)`` with shapes ``(n, dims)``/``(k, dims)``.
    """
    if n <= 0 or k <= 0 or dims <= 0:
        raise ValidationError("n, k, dims must all be > 0")
    if n < k:
        raise ValidationError(f"need at least k={k} points, got {n}")
    rng = seeded_rng(derive_seed(seed, "kmeans", "centers"))
    centers = rng.random((k, dims))
    prng = seeded_rng(derive_seed(seed, "kmeans", "points"))
    assignment = prng.integers(0, k, size=n)
    noise = prng.normal(0.0, SPREAD, size=(n, dims))
    points = centers[assignment] + noise
    return points.astype(np.float32), centers.astype(np.float32)
