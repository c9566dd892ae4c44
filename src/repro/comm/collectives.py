"""Collective operations, built from point-to-point primitives.

These functions are bound as methods on :class:`repro.comm.SimComm`.  Each
is implemented with the classic algorithm (binomial trees, recursive
doubling, dissemination) so the *virtual-time* cost of a collective emerges
from the link model — e.g. the paper's "global reduction ... in a parallel
binary tree order, so that up to log(n) parallel reduction steps are
needed" is literally what :func:`reduce` executes.

SPMD contract: every rank of the communicator must invoke the same
collectives in the same order (as with MPI); internal tags are derived from
a per-rank invocation counter, so mismatched orders raise or deadlock
rather than silently mismatching.

Zero-copy: array payloads forwarded unmodified through a collective tree
(bcast/gather relays) ride the point-to-point zero-copy path — the payload
freezes the array read-only once and every hop shares that one buffer, so
relaying costs virtual time but no functional-layer copies.  Only steps
that combine values (reduce, allreduce) materialize new arrays.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any

from repro.comm.constants import COLLECTIVE_TAG_BASE
from repro.comm.ops import get_reduce_op
from repro.util.errors import CommunicationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.comm.communicator import SimComm

# Tag layout: | seq (16 bits) | op_id (5 bits) | round (5 bits) |; a collective
# adds its round (at most 2 + log2 size) to its round-0 tag.
_SEQ_MOD = 1 << 16
_OP_BITS = 5
_ROUND_BITS = 5

_OP_BARRIER = 0
_OP_BCAST = 1
_OP_REDUCE = 2
_OP_ALLREDUCE = 3
_OP_GATHER = 4
_OP_ALLTOALL = 6


def collective_tag(seq: int, op_id: int) -> int:
    """Internal tag of round 0 of the ``seq``-th collective; a collective
    adds its round number to it."""
    return (
        COLLECTIVE_TAG_BASE
        + (seq % _SEQ_MOD) * (1 << (_OP_BITS + _ROUND_BITS))
        + op_id * (1 << _ROUND_BITS)
    )


@lru_cache(maxsize=4096)
def _children(relative: int, size: int) -> tuple[int, ...]:
    """Binomial-tree children of ``relative`` (relative rank space).

    The parent of node ``r`` (r > 0) is ``r`` with its lowest set bit
    cleared; children of ``r`` are ``r + 2^k`` for every ``2^k`` below the
    lowest set bit (or below the tree span, for the root), bounded by
    ``size``.  Returned largest-offset first, which is the order that
    minimizes tree depth on the critical path.  Cached (and therefore
    returned as an immutable tuple): every bcast/reduce/gather of a run
    recomputes the same few (relative, size) shapes, and figure sweeps
    call collectives millions of times.
    """
    if relative == 0:
        span = 1
        while span < size:
            span <<= 1
    else:
        span = relative & -relative
    kids = []
    offset = span >> 1
    while offset >= 1:
        child = relative + offset
        if child < size:
            kids.append(child)
        offset >>= 1
    return tuple(kids)


def _parent(relative: int) -> int:
    """Binomial-tree parent in relative rank space (undefined for 0)."""
    return relative - (relative & -relative)


def barrier(self: "SimComm") -> None:
    """Dissemination barrier: ``ceil(log2 size)`` rounds of pairwise tokens."""
    seq = self._next_coll_tag(_OP_BARRIER)
    size = self.size
    if size == 1:
        return
    round_ = 0
    dist = 1
    while dist < size:
        tag = seq + round_  # rounds occupy the low bits of the tag block
        dst = (self.rank + dist) % size
        src = (self.rank - dist) % size
        self.send(None, dst, tag, _internal=True)
        self.recv(source=src, tag=tag, _internal=True)
        dist <<= 1
        round_ += 1


def bcast(self: "SimComm", obj: Any = None, root: int = 0) -> Any:
    """Binomial-tree broadcast of ``obj`` from ``root``; returns it on all."""
    tag = self._next_coll_tag(_OP_BCAST)
    size = self.size
    if size == 1:
        return obj
    relative = (self.rank - root) % size
    if relative != 0:
        parent = (_parent(relative) + root) % size
        obj = self.recv(source=parent, tag=tag, _internal=True)
    for child in _children(relative, size):
        self.send(obj, (child + root) % size, tag, _internal=True)
    return obj


def reduce(self: "SimComm", value: Any, op: Any = "sum", root: int = 0) -> Any:
    """Binomial-tree reduction to ``root`` (the paper's global combine).

    ``op`` must be commutative and associative (a name from
    :mod:`repro.comm.ops` or any callable).  Non-root ranks return ``None``.
    """
    tag = self._next_coll_tag(_OP_REDUCE)
    combine = get_reduce_op(op)
    size = self.size
    if size == 1:
        return value
    relative = (self.rank - root) % size
    acc = value
    # Receive children smallest-offset first: they finish their (smaller)
    # subtrees soonest, so the deep subtree arrives last — minimal waiting.
    for child in reversed(_children(relative, size)):
        contrib = self.recv(source=(child + root) % size, tag=tag, _internal=True)
        acc = combine(acc, contrib)
    if relative != 0:
        self.send(acc, (_parent(relative) + root) % size, tag, _internal=True)
        return None
    return acc


def allreduce(self: "SimComm", value: Any, op: Any = "sum") -> Any:
    """Recursive-doubling allreduce (with fold-in for non-power-of-two)."""
    seq = self._next_coll_tag(_OP_ALLREDUCE)
    combine = get_reduce_op(op)
    size = self.size
    if size == 1:
        return value
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    rem = size - pof2
    acc = value
    round_ = 0
    # Phase 1: the `rem` extra ranks fold their value into a partner.
    if self.rank >= pof2:
        self.send(acc, self.rank - pof2, seq + round_, _internal=True)
    elif self.rank < rem:
        contrib = self.recv(source=self.rank + pof2, tag=seq + round_, _internal=True)
        acc = combine(acc, contrib)
    round_ += 1
    # Phase 2: recursive doubling among the first pof2 ranks.
    if self.rank < pof2:
        dist = 1
        while dist < pof2:
            partner = self.rank ^ dist
            got = self.sendrecv(
                acc, partner, partner, seq + round_, seq + round_, _internal=True
            )
            acc = combine(acc, got)
            dist <<= 1
            round_ += 1
    else:
        round_ += (pof2 - 1).bit_length()
    # Phase 3: results flow back to the extra ranks.
    if self.rank < rem:
        self.send(acc, self.rank + pof2, seq + round_, _internal=True)
    elif self.rank >= pof2:
        acc = self.recv(source=self.rank - pof2, tag=seq + round_, _internal=True)
    return acc


def gather(self: "SimComm", value: Any, root: int = 0) -> list[Any] | None:
    """Binomial-tree gather; ``root`` gets ``[value_0, ..., value_{P-1}]``."""
    tag = self._next_coll_tag(_OP_GATHER)
    size = self.size
    if size == 1:
        return [value]
    relative = (self.rank - root) % size
    collected: dict[int, Any] = {self.rank: value}
    for child in reversed(_children(relative, size)):
        part = self.recv(source=(child + root) % size, tag=tag, _internal=True)
        collected.update(part)
    if relative != 0:
        self.send(collected, (_parent(relative) + root) % size, tag, _internal=True)
        return None
    return [collected[r] for r in range(size)]


def allgather(self: "SimComm", value: Any) -> list[Any]:
    """Gather to rank 0, then broadcast the assembled list."""
    parts = gather(self, value, root=0)
    return bcast(self, parts, root=0)


def alltoall(self: "SimComm", values: list[Any]) -> list[Any]:
    """Pairwise-exchange all-to-all: ``size - 1`` shifted sendrecv rounds."""
    tag = self._next_coll_tag(_OP_ALLTOALL)
    size = self.size
    if len(values) != size:
        raise CommunicationError(f"alltoall needs exactly {size} values, got {len(values)}")
    result: list[Any] = [None] * size
    result[self.rank] = values[self.rank]
    for shift in range(1, size):
        dst = (self.rank + shift) % size
        src = (self.rank - shift) % size
        result[src] = self.sendrecv(values[dst], dst, src, tag, tag, _internal=True)
    return result
