"""Reliable delivery over a lossy fabric: the stop-and-wait protocol layer.

:class:`ReliableComm` is a :class:`~repro.comm.communicator.SimComm` that
overrides only ``send`` and ``recv``; everything else (``isend``,
``irecv``, ``sendrecv``, ``waitall``, the collectives) is inherited and
reaches the overrides through method dispatch.  Message delivery then
survives a lossy :class:`~repro.faults.plan.FaultPlan` with *bit-identical*
results:

- **Sequence numbers.**  Every (peer, tag) pair is a stream; each message
  carries its stream sequence number encoded in a dedicated reliable tag
  space (:data:`~repro.comm.constants.RELIABLE_DATA_BASE`), so the payload
  itself is untouched — array sends keep their zero-copy ``owned=`` and
  ``out=`` delivery paths.
- **Virtual-time retransmission.**  Each transmission's fate is
  observable at the sender: :meth:`SimComm.send` returns ``False`` when
  the fault plan dropped it (the simulator's equivalent of a
  retransmission timer expiring with no ACK).  On a drop, the sender's
  virtual clock advances by the current timeout (:data:`RTO` at first),
  the timeout grows by :data:`BACKOFF`, and the message is retransmitted,
  at most :data:`MAX_ATTEMPTS` times in all — so lost messages cost
  exactly the retry latency they would in a real protocol, and that cost
  lands in the virtual makespan.
- **Acknowledgements.**  The receiver acks every accepted message with a
  header-only control message on the reverse link
  (:data:`~repro.comm.constants.RELIABLE_ACK_BASE`).  The sender
  synchronizes with all outstanding acks at :meth:`flush`, which charges
  the protocol's round-trip cost to the sender's clock (ack collection is
  deliberately never opportunistic — see :meth:`_collect_acks`).
- **Receive-side dedup.**  A duplicated message carries the same
  (stream, seq) tag as its original; after accepting seq ``s`` the
  receiver drains queued duplicates of recently accepted sequence numbers
  and discards them (their ingress + receive overhead is still charged —
  duplicates are not free in a real network either).

The layer is *stream-ordered*: every receive names its source and tag,
as every receive of the framework's halo exchanges and tree collectives
does.  So a whole application completes correctly under a
drop/duplicate/delay plan simply by swapping in this communicator.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm.communicator import SimComm
from repro.comm.constants import (
    PROC_NULL,
    RELIABLE_ACK_BASE,
    RELIABLE_DATA_BASE,
    RELIABLE_SEQ_SLOTS,
)
from repro.util.errors import CommunicationError

#: Initial virtual-time retransmission timeout (seconds).
RTO = 1e-3
#: Multiplier applied to the timeout after each retry.
BACKOFF = 2.0
#: Give up (``CommunicationError``) after this many transmissions of one
#: message.
MAX_ATTEMPTS = 30

#: How many recently accepted sequence numbers per stream are probed for
#: late-arriving duplicates on every receive (older leftovers are swept at
#: :meth:`ReliableComm.flush`).
_DUP_WATCH_WINDOW = 4


def _data_tag(tag: int, seq: int) -> int:
    return RELIABLE_DATA_BASE + tag * RELIABLE_SEQ_SLOTS + (seq % RELIABLE_SEQ_SLOTS)


def _ack_tag(tag: int, seq: int) -> int:
    return RELIABLE_ACK_BASE + tag * RELIABLE_SEQ_SLOTS + (seq % RELIABLE_SEQ_SLOTS)


class ReliableComm(SimComm):
    """Stop-and-wait reliable messaging over a (possibly lossy) fabric.

    Drop-in for ``SimComm``: the runtimes (stencil halo exchange,
    generalized reduction) and all collectives run over it unchanged.
    Built from a rank's ``base`` communicator, whose fabric, rank, clock
    and trace it shares; its collective sequence starts afresh at 0.
    """

    __slots__ = (
        "_send_seq",
        "_recv_seq",
        "_pending_acks",
        "_dup_watch",
        "retransmits",
        "duplicates_discarded",
    )

    def __init__(self, base: SimComm) -> None:
        super().__init__(base.fabric, base.rank, base.clock, base.trace)
        self._send_seq: dict[tuple[int, int], int] = {}
        self._recv_seq: dict[tuple[int, int], int] = {}
        # Outstanding (tag, seq) acks per destination, in send order.
        self._pending_acks: dict[int, list[tuple[int, int]]] = {}
        # Recently accepted (source, tag) -> [seqs] still watched for dups.
        self._dup_watch: dict[tuple[int, int], list[int]] = {}
        self.retransmits = 0
        self.duplicates_discarded = 0

    def send(
        self,
        obj: Any,
        dest: int,
        tag: int = 0,
        _internal: bool = False,
        wire_bytes: float | None = None,
        owned: bool = False,
    ) -> bool:
        """Reliable send: retransmit with exponential backoff until delivered.

        The payload path is the base communicator's (zero-copy rules
        included); only the tag is rewritten into the reliable DATA space.
        """
        self._check_peer(dest, "destination")
        if not _internal:
            self._check_tag(tag)
        if dest == PROC_NULL:
            return True
        key = (dest, tag)
        seq = self._send_seq.get(key, 0)
        self._send_seq[key] = seq + 1
        timeout = RTO
        wire_tag = _data_tag(tag, seq)
        for attempt in range(1, MAX_ATTEMPTS + 1):
            if super().send(
                obj, dest, wire_tag, _internal=True, wire_bytes=wire_bytes, owned=owned
            ):
                break
            # The simulator's retransmission timer: the drop verdict stands
            # in for "timeout expired with no ACK", charged in virtual time
            # instead of awaited on the wall clock.
            t0 = self.clock.now
            self.clock.advance(timeout)
            tr = self.trace
            if tr is not None and tr.enabled:
                tr.record(
                    "fault",
                    f"retransmit->{dest}",
                    t0,
                    self.clock.now,
                    {"tag": tag, "seq": seq, "attempt": attempt},
                )
                tr.count("comm.retransmits")
            self.retransmits += 1
            timeout *= BACKOFF
        else:
            raise CommunicationError(
                f"reliable send to {dest} (tag {tag}, seq {seq}) gave up "
                f"after {MAX_ATTEMPTS} attempts"
            )
        self._pending_acks.setdefault(dest, []).append((tag, seq))
        return True

    def recv(
        self,
        source: int,
        tag: int,
        out: np.ndarray | None = None,
        _internal: bool = False,
    ) -> Any:
        """Reliable receive: accept the (source, tag) stream's next sequence
        number."""
        self._check_peer(source, "source")
        if not _internal:
            self._check_tag(tag)
        if source == PROC_NULL:
            return None
        key = (source, tag)
        seq = self._recv_seq.get(key, 0)
        value = super().recv(source, _data_tag(tag, seq), out=out, _internal=True)
        self._recv_seq[key] = seq + 1
        # Ack eagerly (header-only, fault-exempt) so the sender's flush
        # can always complete once our receive has happened.
        super().send(None, source, _ack_tag(tag, seq), _internal=True)
        tr = self.trace
        if tr is not None and tr.enabled:
            tr.count("comm.acks_sent")
        # Watch this seq for a late duplicate, then drain any duplicates
        # of recently accepted seqs that are already queued.  Duplicates
        # only ever come from an installed fault plan, so a fault-free
        # reliable run skips the dup bookkeeping and probes outright
        # (probes never touch the clock, so this cannot move a makespan).
        if self.fabric.fault_plan is not None:
            watch = self._dup_watch.setdefault(key, [])
            watch.append(seq)
            if len(watch) > _DUP_WATCH_WINDOW:
                del watch[: len(watch) - _DUP_WATCH_WINDOW]
            self._drain_duplicates(source, tag)
        return value

    # -- protocol bookkeeping ------------------------------------------
    def _drain_duplicates(self, source: int, tag: int) -> None:
        """Consume queued duplicates of recently accepted sequence numbers.

        Duplicates carry the same (stream, seq) tag as their original, so
        anything still matching a watched seq is a network-duplicated copy:
        receive it (charging its ingress and receive overhead — duplicated
        bytes are not free) and discard the value.  Each probe is an O(1)
        indexed lookup on the fabric.
        """
        watch = self._dup_watch.get((source, tag))
        if not watch:
            return
        for s in list(watch):
            dtag = _data_tag(tag, s)
            while self.fabric.probe(self.rank, source, dtag):
                super().recv(source, dtag, _internal=True)
                self.duplicates_discarded += 1
                tr = self.trace
                if tr is not None and tr.enabled:
                    now = self.clock.now
                    tr.record(
                        "fault", f"dup-discard<-{source}", now, now, {"tag": tag, "seq": s}
                    )
                    tr.count("comm.dup_discards")

    def _collect_acks(self, dest: int) -> None:
        """Blocking-collect every outstanding ack from ``dest``.

        Deliberately *only* blocking, and only called from :meth:`flush`:
        an opportunistic (non-blocking probe) collection would make the
        sender's virtual clock depend on whether the receiver had already
        run far enough to post its ack — on the schedule, not on virtual
        time.  A blocking receive waits for the ack regardless, so the
        clock synchronization it charges is a function of virtual arrival
        times only.
        """
        for tag, seq in self._pending_acks.pop(dest, ()):
            super().recv(dest, _ack_tag(tag, seq), _internal=True)

    def flush(self) -> None:
        """Synchronize with all outstanding acks and sweep duplicate leftovers.

        Call at the end of the rank program (after all matching receives
        have been posted by the peers — the natural SPMD shutdown point).
        """
        for dest in sorted(self._pending_acks):
            self._collect_acks(dest)
        for (source, tag) in sorted(self._dup_watch):
            self._drain_duplicates(source, tag)
