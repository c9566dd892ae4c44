"""Cartesian process-topology helpers (an ``MPI_Dims_create`` equivalent).

The stencil runtime asks the user for a virtual processor topology; when the
user passes ``None`` the runtime balances the factorization of the process
count over the grid dimensions, exactly like ``MPI_Dims_create``.
"""

from __future__ import annotations

from repro.util.errors import ValidationError


def _prime_factors(n: int) -> list[int]:
    """Prime factorization in descending order. ``12 -> [3, 2, 2]``."""
    factors: list[int] = []
    d = 2
    while d * d <= n:
        while n % d == 0:
            factors.append(d)
            n //= d
        d += 1
    if n > 1:
        factors.append(n)
    factors.sort(reverse=True)
    return factors


def dims_create(nprocs: int, ndims: int) -> tuple[int, ...]:
    """Choose a balanced ``ndims``-dimensional grid of ``nprocs`` processes.

    ``MPI_Dims_create`` with every entry free: prime factors are
    distributed largest-first onto the currently smallest dimension to keep
    the grid as cubic as possible, and larger extents go to earlier
    dimensions.

    >>> dims_create(12, 2)
    (4, 3)
    """
    if nprocs <= 0:
        raise ValidationError(f"nprocs must be > 0, got {nprocs}")
    if ndims <= 0:
        raise ValidationError(f"ndims must be > 0, got {ndims}")
    extents = [1] * ndims
    for factor in _prime_factors(nprocs):
        smallest = min(range(ndims), key=lambda i: extents[i])
        extents[smallest] *= factor
    return tuple(sorted(extents, reverse=True))


def coords_of(rank: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Row-major coordinates of ``rank`` in a grid of shape ``dims``.

    >>> coords_of(5, (2, 3))
    (1, 2)
    """
    total = 1
    for d in dims:
        total *= d
    if not 0 <= rank < total:
        raise ValidationError(f"rank {rank} out of range for dims {dims}")
    coords = []
    for extent in reversed(dims):
        coords.append(rank % extent)
        rank //= extent
    return tuple(reversed(coords))


def rank_of(coords: tuple[int, ...], dims: tuple[int, ...]) -> int:
    """Row-major rank of ``coords`` in a grid of shape ``dims``.

    Inverse of :func:`coords_of`.
    """
    if len(coords) != len(dims):
        raise ValidationError(f"coords {coords} do not match dims {dims}")
    rank = 0
    for c, extent in zip(coords, dims):
        if not 0 <= c < extent:
            raise ValidationError(f"coords {coords} out of range for dims {dims}")
        rank = rank * extent + c
    return rank
