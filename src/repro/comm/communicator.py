"""The per-rank communicator: point-to-point messaging with virtual time.

One :class:`SimComm` is owned by each rank; all of them share a
:class:`~repro.comm.fabric.Fabric`.  Virtual-time rules (LogGP):

- ``send``/``isend``: the sender's clock advances by the link's
  ``send_overhead``; the message's arrival time is
  ``sender_now + latency + nbytes / bandwidth``.  Both calls are *buffered
  eager* sends — they never block — matching MPI's behaviour for the
  moderate message sizes this framework produces.
- ``recv`` / ``Request.wait``: the receiver's clock jumps forward to
  ``max(now, arrival_time)`` then advances by ``recv_overhead``.  Compute
  performed between posting an ``irecv`` and waiting on it therefore hides
  communication time — *overlap emerges from the clock rules*, it is never
  a hard-coded discount.

Collective operations live in :mod:`repro.comm.collectives` and are bound
here as methods; they are built from these point-to-point primitives so
their cost emerges from the same model.
"""

from __future__ import annotations

from typing import Any, NamedTuple

import numpy as np

from repro.comm import collectives as _coll
from repro.comm.constants import MAX_USER_TAG, PROC_NULL
from repro.comm.fabric import Fabric
from repro.comm.payload import make_payload
from repro.sim.clock import VirtualClock
from repro.sim.trace import Trace
from repro.util.errors import CommunicationError, ValidationError

class Request:
    """Base class for non-blocking operation handles."""

    def wait(self) -> Any:
        raise NotImplementedError


class SendRequest(Request):
    """Handle for an ``isend``; complete at creation (buffered eager)."""

    __slots__ = ()

    def wait(self) -> None:
        return None


class RecvRequest(Request):
    """Handle for an ``irecv``; matching is deferred until :meth:`wait`.

    Deferring keeps matching deterministic in virtual time: the receiver's
    clock only synchronizes with the message when the program actually
    waits, which is exactly MPI's completion semantics.
    """

    __slots__ = ("_comm", "_source", "_tag", "_out", "_done", "_value")

    def __init__(self, comm: "SimComm", source: int, tag: int, out: np.ndarray | None) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._out = out
        self._done = False
        self._value: Any = None

    def wait(self) -> Any:
        if not self._done:
            self._value = self._comm.recv(source=self._source, tag=self._tag, out=self._out)
            self._done = True
        return self._value


class SimComm:
    """MPI-like communicator bound to one rank's virtual clock.

    Point-to-point calls go through the run's
    :class:`~repro.comm.fabric.Fabric`: every receive names its source and
    tag and matches in O(1) against that pair's FIFO, and a receive with
    nothing to match parks the rank on the pair and passes the run's baton
    on.  Slotted: one communicator is constructed per rank per run, and
    figure sweeps construct millions.
    """

    __slots__ = ("fabric", "rank", "clock", "trace", "_coll_seq")

    def __init__(
        self,
        fabric: Fabric,
        rank: int,
        clock: VirtualClock,
        trace: Trace | None = None,
    ) -> None:
        if not 0 <= rank < fabric.size:
            raise ValidationError(f"rank {rank} out of range for fabric of size {fabric.size}")
        self.fabric = fabric
        self.rank = rank
        self.clock = clock
        self.trace = trace
        self._coll_seq = 0

    @property
    def size(self) -> int:
        return self.fabric.size

    # ------------------------------------------------------------------
    # Point-to-point
    # ------------------------------------------------------------------
    def _check_peer(self, peer: int, what: str) -> None:
        if peer != PROC_NULL and not 0 <= peer < self.size:
            raise CommunicationError(f"{what} rank {peer} out of range (size {self.size})")

    @staticmethod
    def _check_tag(tag: int) -> None:
        if not 0 <= tag <= MAX_USER_TAG:
            raise CommunicationError(f"tag {tag} out of range [0, {MAX_USER_TAG}]")

    def send(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        _internal: bool = False,
        wire_bytes: float | None = None,
        owned: bool = False,
    ) -> bool:
        """Buffered eager send: snapshots ``obj`` and returns immediately.

        The sender's virtual clock advances only by the link's software
        send overhead; wire time is borne by the receiver's clock when the
        message is consumed.

        ``wire_bytes`` overrides the charged message size (benchmarks send
        scaled-down functional payloads that stand for paper-scale data).

        ``owned=True`` is the zero-copy fast path for framework-internal
        sends: the caller transfers ownership of ``obj`` and promises not
        to mutate it until the receiver has consumed the message, so no
        snapshot copy is made (see :func:`repro.comm.payload.make_payload`).

        Returns ``False`` iff an installed fault plan dropped the message
        (the fabric charged it but never enqueued it).
        """
        self._check_peer(dest, "destination")
        if not _internal:
            self._check_tag(tag)
        if dest == PROC_NULL:
            return True
        if wire_bytes is not None and wire_bytes < 0:
            raise CommunicationError(f"wire_bytes must be >= 0, got {wire_bytes}")
        link = self.fabric.link(self.rank, dest)
        start = self.clock.now
        self.clock.advance(link.send_overhead)
        payload = make_payload(obj, owned=owned)
        charged = payload.nbytes if wire_bytes is None else wire_bytes
        arrival, enqueued = self.fabric.transmit(
            self.rank, dest, tag, payload, send_time=self.clock.now, charged=charged, link=link
        )
        tr = self.trace
        if tr is not None and tr.enabled:
            # busy_end: where the sender's own clock stopped charging; the
            # remainder of the span (up to arrival) is wire time, which the
            # attribution sweep must not bill to this rank.
            tr.record(
                "comm",
                f"send->{dest}",
                start,
                arrival,
                {"tag": tag, "nbytes": charged, "dst": dest, "busy_end": self.clock.now},
            )
            tr.count("comm.msgs_sent")
            tr.count("comm.bytes_sent", charged)
        return enqueued

    def isend(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        wire_bytes: float | None = None,
        owned: bool = False,
    ) -> SendRequest:
        """Non-blocking send (identical cost to :meth:`send` in this model)."""
        self.send(obj, dest, tag, wire_bytes=wire_bytes, owned=owned)
        return SendRequest()

    def recv(
        self,
        source: int,
        tag: int,
        out: np.ndarray | None = None,
        _internal: bool = False,
    ) -> Any:
        """Blocking receive of the next message from ``source`` with ``tag``;
        returns the payload (or fills ``out``).

        The receiver's clock synchronizes to the message arrival time, so
        waiting for a late message costs exactly the gap, and a message
        that already arrived costs only the receive overhead.
        """
        self._check_peer(source, "source")
        if not _internal:
            self._check_tag(tag)
        if source == PROC_NULL:
            return None
        wait_start = self.clock.now
        msg = self.fabric.match(self.rank, source, tag)
        link = self.fabric.link(msg.src, self.rank)
        self.clock.advance_to(msg.arrival_time)
        self.clock.advance(link.recv_overhead)
        tr = self.trace
        if tr is not None and tr.enabled:
            # arrival: lets the analysis split the span into wait (blocked
            # on the wire) vs receive overhead, and anchors message edges
            # for critical-path extraction.
            tr.record(
                "comm",
                f"recv<-{msg.src}",
                wait_start,
                self.clock.now,
                {
                    "tag": msg.tag,
                    "nbytes": msg.nbytes,
                    "src": msg.src,
                    "arrival": msg.arrival_time,
                },
            )
            tr.count("comm.msgs_recv")
            tr.count("comm.bytes_recv", msg.nbytes)
        return msg.payload.deliver(out)

    def irecv(self, source: int, tag: int, out: np.ndarray | None = None) -> RecvRequest:
        """Non-blocking receive; completion (and clock sync) happens at wait."""
        self._check_peer(source, "source")
        self._check_tag(tag)
        return RecvRequest(self, source, tag, out)

    def sendrecv(
        self,
        obj: Any,
        dest: int,
        source: int,
        sendtag: int,
        recvtag: int,
        _internal: bool = False,
    ) -> Any:
        """Combined send+receive (deadlock-free pairwise exchange)."""
        self.send(obj, dest, sendtag, _internal=_internal)
        return self.recv(source=source, tag=recvtag, _internal=_internal)

    @staticmethod
    def waitall(requests: list[Request]) -> list[Any]:
        """Wait on every request, returning their values in order."""
        return [req.wait() for req in requests]

    # ------------------------------------------------------------------
    # Collectives (implementations in repro.comm.collectives)
    # ------------------------------------------------------------------
    def _next_coll_tag(self, op_id: int) -> int:
        """A fresh internal tag for one collective invocation.

        SPMD programs invoke collectives in the same order on every rank,
        so the per-rank sequence numbers agree and tags match across ranks.
        """
        tag = _coll.collective_tag(self._coll_seq, op_id)
        self._coll_seq += 1
        return tag

    barrier = _coll.barrier
    bcast = _coll.bcast
    reduce = _coll.reduce
    allreduce = _coll.allreduce
    gather = _coll.gather
    allgather = _coll.allgather
    alltoall = _coll.alltoall

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}(rank={self.rank}, size={self.size})"


class Exchange(NamedTuple):
    """One neighbour of an exchange plan: the payload ``send`` selects goes
    to ``peer``, charged as ``wire`` model-scale bytes, and the peer's
    payload lands in the slots ``recv`` selects."""

    peer: int
    tag: int
    send: Any
    recv: Any
    wire: float


class NeighborExchange:
    """A rank's exchange plan (``phases`` of :class:`Exchange` records) and
    its one executor.  Posting, sending and completing are separate calls;
    the charges stay with the pattern, passed in per record."""

    __slots__ = ("comm", "phases")

    def __init__(self, comm: Any, phases: tuple[tuple[Exchange, ...], ...]) -> None:
        self.comm, self.phases = comm, phases

    def post(self, records, out: np.ndarray) -> list[tuple[Exchange, Request]]:
        """Post each record's receive straight into ``out[record.recv]``."""
        irecv = self.comm.irecv
        return [(x, irecv(source=x.peer, tag=x.tag, out=out[x.recv])) for x in records]

    def send(self, records, payload, charge=None) -> None:
        """Send each record's ``payload(record)`` with ``owned=True``, in
        order, running ``charge(record)`` just before its send."""
        for x in records:
            if charge is not None:
                charge(x)
            self.comm.isend(payload(x), x.peer, x.tag, wire_bytes=x.wire, owned=True)

    @staticmethod
    def complete(posted: list[tuple[Exchange, Request]], unpack=None) -> None:
        """Wait for each posted receive in turn, then run ``unpack(record)``."""
        for x, req in posted:
            req.wait()
            if unpack is not None:
                unpack(x)
