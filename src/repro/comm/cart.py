"""Cartesian process topology over a :class:`~repro.comm.SimComm`.

The stencil runtime decomposes its global grid over a virtual processor
grid; :class:`CartComm` supplies the coordinate arithmetic and neighbour
lookup (``MPI_Cart_create`` / ``MPI_Cart_shift`` equivalents on a
non-periodic grid).  Shifts off the grid return
:data:`~repro.comm.constants.PROC_NULL`, and sends/receives to
``PROC_NULL`` are no-ops, so border ranks need no special cases in the
halo-exchange code.
"""

from __future__ import annotations

from repro.cluster.topology import coords_of, rank_of
from repro.comm.communicator import SimComm
from repro.comm.constants import PROC_NULL
from repro.util.errors import ConfigurationError


class CartComm:
    """A Cartesian view of an existing communicator (same ranks, same size)."""

    def __init__(self, comm: SimComm, dims: tuple[int, ...] | list[int]) -> None:
        dims = tuple(int(d) for d in dims)
        total = 1
        for d in dims:
            total *= d
        if total != comm.size:
            raise ConfigurationError(
                f"dims {dims} describe {total} processes, communicator has {comm.size}"
            )
        self.comm = comm
        self.dims = dims
        self.coords = coords_of(comm.rank, dims)

    @property
    def size(self) -> int:
        return self.comm.size

    def shift(self, axis: int, disp: int = 1) -> tuple[int, int]:
        """``(source, dest)`` for a shift of ``disp`` along ``axis``.

        Matches ``MPI_Cart_shift``: ``dest`` is the rank ``disp`` steps in
        the positive direction, ``source`` is the rank the same distance in
        the negative direction (i.e. the one whose shifted data lands here);
        either is ``PROC_NULL`` when it falls off the grid.
        """
        if not 0 <= axis < len(self.dims):
            raise ConfigurationError(
                f"axis {axis} out of range for {len(self.dims)}-D topology"
            )

        def rank_at(step: int) -> int:
            coords = list(self.coords)
            coords[axis] += step
            if not 0 <= coords[axis] < self.dims[axis]:
                return PROC_NULL
            return rank_of(tuple(coords), self.dims)

        return rank_at(-disp), rank_at(disp)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"CartComm(dims={self.dims}, coords={self.coords}, rank={self.comm.rank})"
