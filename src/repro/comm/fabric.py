"""The message fabric of one SPMD run, and the baton that orders its ranks.

One :class:`Fabric` is shared by all ranks of an SPMD run.  It owns the
mailboxes (one per destination rank), matches every receive on its exact
``(source, tag)`` pair in post order, and knows which
:class:`~repro.cluster.specs.InterconnectSpec` connects any two ranks
(intra-node vs. network) given the rank→node mapping.

Execution model — **the baton**.  Simulated ranks need correct
virtual-time ordering, never host concurrency, so exactly one rank of a
run executes at a time: the baton holder.  Every rank owns a private
*gate* (a lock it alone blocks on) and the fabric keeps a FIFO *ready
queue* of ranks that may run:

- The engine queues ranks ``0..n-1`` and hands the baton to rank 0
  (:meth:`Fabric.launch`); a rank thread waits at its gate for its first
  turn (:meth:`Fabric.enter`).
- A :meth:`match` that finds nothing *parks* the rank under its
  ``(source, tag)`` pair and hands the baton to the head of the ready
  queue.  Enqueueing a message on that pair moves the rank to the tail of
  the queue.
- A :meth:`probe` miss yields to the tail, so a probing rank (the
  reliable layer's duplicate drain) lets the other ready ranks run.
- A rank that returns or raises passes the baton on (:meth:`leave`).
- "Ready queue empty with ranks parked" is a deadlock, raised **at once**
  from inside the unmatched receive with every parked rank's pair in the
  message — there is no receive timeout to wait out.

Only the baton holder touches fabric state, so there is no lock or
condition variable here; the one primitive a rank ever blocks on is its
own gate.  The schedule is a pure function of the program, so every run
is identical run to run.  Concurrent runs each own a fabric and
therefore a baton.

:meth:`abort` ends the discipline: it opens every gate, and every
entry point and every wake-up checks the abort flag first, so released
ranks do nothing but raise.  The engine's ``wall_timeout`` watchdog (the
single wall-clock guard, for a rank that loops without communicating)
calls it from outside the run; a failing rank calls it from inside.

Every receive names its source and tag (the patterns generate each
message for a known peer), so a mailbox is a dict of per-(source, tag)
FIFO deques and ``match()``/``probe()`` are one dict lookup.  Consuming
each deque in post order is MPI's non-overtaking guarantee between any
(source, tag) pair.

Fault injection: an installed :class:`~repro.faults.plan.FaultPlan` is
consulted by :meth:`Fabric.transmit` for every message — dropped messages
are charged to the sender but never enqueued (``transmit`` tells its
caller so, which is all the reliable layer needs to retransmit),
duplicates are enqueued twice (the copy trailing by one wire time), delays
and link degradation push the arrival time out.  ``_enqueue`` is the raw
enqueue the fabric tests use; it bypasses the plan.
"""

from __future__ import annotations

from _thread import allocate_lock
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.cluster.specs import ClusterSpec, InterconnectSpec
from repro.comm.payload import Payload
from repro.sim.timeline import Timeline
from repro.util.errors import CommunicationError, DeadlockError, ValidationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.plan import FaultPlan


@dataclass(slots=True)
class Message:
    """One message in flight (or delivered)."""

    # Only the fabric writes one after construction: ``match`` moves
    # ``arrival_time`` behind the receiver's ingress NIC.

    src: int
    dst: int
    tag: int
    payload: Payload
    send_time: float
    arrival_time: float
    wire_duration: float = 0.0

    @property
    def nbytes(self) -> int:
        return self.payload.nbytes


class _Mailbox:
    """Per-rank fabric state: mailbox + NIC timelines.

    The mailbox is a dict of per-(source, tag) FIFO deques; a deque
    emptied by its last pop has its key removed, so a key is present
    exactly when a message on that pair is queued.
    """

    __slots__ = ("queues", "pending", "egress", "ingress")

    def __init__(self, rank: int) -> None:
        self.queues: dict[tuple[int, int], deque[Message]] = {}
        self.pending = 0
        # Per-rank NIC occupancy: a rank injects (egress) and absorbs
        # (ingress) at most one message's bytes at a time, so fan-in/out
        # traffic serializes at the endpoints (LogGP's per-byte gap G).
        self.egress = Timeline(f"nic{rank}.egress")
        self.ingress = Timeline(f"nic{rank}.ingress")


class Fabric:
    """Mailboxes + link model + baton shared by every rank of one SPMD run."""

    def __init__(self, cluster: ClusterSpec, ranks_per_node: int = 1) -> None:
        if ranks_per_node <= 0:
            raise ValidationError(f"ranks_per_node must be > 0, got {ranks_per_node}")
        self.cluster = cluster
        self.ranks_per_node = ranks_per_node
        self.size = cluster.num_nodes * ranks_per_node
        self._boxes = [_Mailbox(r) for r in range(self.size)]
        self._abort_exc: BaseException | None = None
        # There are two link classes; which one joins two ranks is whether
        # the precomputed rank→node array (which also bounds-checks both
        # ranks) puts them on the same node.
        self._rank_node = [r // ranks_per_node for r in range(self.size)]
        self._intra_link = cluster.node.intra_link
        self._network = cluster.network
        self.fault_plan: FaultPlan | None = None
        # The baton (see module docstring).  A gate is a lock held from
        # construction: opening it is ``release``, waiting at it ``acquire``.
        self._gates = [allocate_lock() for _ in range(self.size)]
        for gate in self._gates:
            gate.acquire()
        self._ready: deque[int] = deque()
        self._parked: dict[int, tuple[int, int]] = {}
        #: Baton hand-overs and receives that had to park (observability).
        self.switches = 0
        self.parks = 0

    def install_faults(self, plan: "FaultPlan | None") -> None:
        """Install (or clear, with ``None``) the fault plan for this run."""
        self.fault_plan = plan

    def node_of(self, rank: int) -> int:
        """Node index hosting ``rank`` (ranks are packed node-major)."""
        if not 0 <= rank < self.size:
            raise ValidationError(f"rank {rank} out of range for size {self.size}")
        return rank // self.ranks_per_node

    def link(self, src: int, dst: int) -> InterconnectSpec:
        """The link class between two ranks (called per message)."""
        same_node = self._rank_node[src] == self._rank_node[dst]
        return self._intra_link if same_node else self._network

    def egress_timeline(self, rank: int) -> Timeline:
        """The rank's NIC injection timeline (observability hook)."""
        return self._boxes[rank].egress

    def ingress_timeline(self, rank: int) -> Timeline:
        """The rank's NIC absorption timeline (observability hook)."""
        return self._boxes[rank].ingress

    # ------------------------------------------------------------------
    # The baton
    # ------------------------------------------------------------------
    def _check_abort(self) -> None:
        if self._abort_exc is not None:
            raise CommunicationError("fabric aborted") from self._abort_exc

    def _open(self, rank: int) -> None:
        """Open ``rank``'s gate: it holds the baton once it wakes."""
        try:
            self._gates[rank].release()
        except RuntimeError:
            # abort() opens every gate; a hand-over racing it finds this
            # one open already.  Anywhere else a double open is a bug.
            if self._abort_exc is None:
                raise

    def _hand_over(self, rank: int) -> None:
        """Give the baton to the head of the ready queue; block at
        ``rank``'s own gate until someone gives it back."""
        self.switches += 1
        self._open(self._ready.popleft())
        self._gates[rank].acquire()
        self._check_abort()

    def launch(self) -> None:
        """Start the run: queue every rank in rank order, baton to rank 0."""
        self._ready.extend(range(self.size))
        self._open(self._ready.popleft())

    def enter(self, rank: int) -> None:
        """Wait at ``rank``'s gate for its first turn with the baton."""
        self._gates[rank].acquire()
        self._check_abort()

    def leave(self, rank: int) -> None:
        """``rank`` returned or raised: pass the baton on."""
        if self._abort_exc is not None:
            return  # every gate is open already
        if not self._ready and self._parked:
            # Nobody is left to send.  Wake the lowest parked rank: it
            # finds its receive still unmatched and reports the deadlock
            # from inside it.
            stuck = min(self._parked)
            del self._parked[stuck]
            self._ready.append(stuck)
        if self._ready:
            self.switches += 1
            self._open(self._ready.popleft())

    def _deadlock_report(self) -> str:
        waits = "; ".join(
            f"rank {rank} waits for source={src} tag={tag} with "
            f"{self._boxes[rank].pending} unmatched message(s) queued"
            for rank, (src, tag) in sorted(self._parked.items())
        )
        return (
            "simulated program is deadlocked: no rank can run and every "
            f"remaining rank is blocked in a receive — {waits}"
        )

    # ------------------------------------------------------------------
    # Mailbox internals
    # ------------------------------------------------------------------
    def _enqueue(self, msg: Message) -> None:
        """Append to the (src, tag) FIFO; ready a receiver parked on it."""
        box = self._boxes[msg.dst]
        key = (msg.src, msg.tag)
        q = box.queues.get(key)
        if q is None:
            q = deque()
            box.queues[key] = q
        q.append(msg)
        box.pending += 1
        if self._parked.get(msg.dst) == key:
            del self._parked[msg.dst]
            self._ready.append(msg.dst)

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def transmit(
        self,
        src: int,
        dst: int,
        tag: int,
        payload: Payload,
        *,
        send_time: float,
        charged: float,
        link: InterconnectSpec,
    ) -> tuple[float, bool]:
        """Inject + enqueue for the hot path of :meth:`SimComm.send`;
        returns ``(arrival, enqueued)``.

        With a fault plan installed, the plan is consulted here: link
        degradation stretches the wire time, extra delay pushes the
        arrival out, a duplicate enqueues a second copy trailing by one
        wire time (network-side duplication — the sender's NIC is charged
        once), and a dropped message is charged to the sender's egress but
        never enqueued: ``enqueued`` is ``False`` exactly then.  ``arrival``
        is always the arrival the message *would* have had, so sender
        traces stay comparable across plans.
        """
        self._check_abort()
        wire = charged / link.bandwidth
        decision = None
        plan = self.fault_plan
        if plan is not None:
            decision = plan.decide(src, dst, tag, send_time)
            if decision.bandwidth_factor != 1.0:
                wire = wire / decision.bandwidth_factor
        iv = self._boxes[src].egress.schedule(send_time, wire, "msg")
        arrival = iv.start + link.latency + wire
        if decision is not None:
            arrival += decision.extra_latency + decision.extra_delay
            if decision.drop:
                return arrival, False
        self._enqueue(
            Message(
                src=src,
                dst=dst,
                tag=tag,
                payload=payload,
                send_time=send_time,
                arrival_time=arrival,
                wire_duration=wire,
            )
        )
        if decision is not None and decision.duplicate:
            # Enqueued right behind its original on the same (src, tag)
            # FIFO, where the reliable layer's dedup probe finds it.
            self._enqueue(
                Message(
                    src=src,
                    dst=dst,
                    tag=tag,
                    payload=payload,
                    send_time=send_time,
                    arrival_time=arrival + wire,
                    wire_duration=wire,
                )
            )
        return arrival, True

    # ------------------------------------------------------------------
    # Receive side
    # ------------------------------------------------------------------
    def match(self, dst: int, source: int, tag: int) -> Message:
        """Return the next message for ``dst`` from ``source`` with ``tag``.

        Consumes the (source, tag) FIFO in post order, so two messages
        from the same source with the same tag are received in the order
        they were sent (MPI non-overtaking).

        With nothing to match, the rank parks on the pair and the baton
        moves on; when no rank is left to take it the program is
        deadlocked and this raises :class:`DeadlockError` immediately.
        """
        box = self._boxes[dst]
        key = (source, tag)
        self._check_abort()
        while True:
            q = box.queues.get(key)
            if q is not None:
                msg = q.popleft()
                if not q:
                    del box.queues[key]
                box.pending -= 1
                # Absorb the bytes through the receiver's ingress NIC:
                # concurrent inbound streams serialize here, in the
                # receiver's program order.
                if msg.wire_duration > 0:
                    iv = box.ingress.schedule(
                        msg.arrival_time - msg.wire_duration, msg.wire_duration, "msg"
                    )
                    msg.arrival_time = iv.end
                return msg
            self._parked[dst] = key
            if not self._ready:
                report = self._deadlock_report()
                del self._parked[dst]
                raise DeadlockError(report)
            self.parks += 1
            self._hand_over(dst)

    def probe(self, dst: int, source: int, tag: int) -> bool:
        """Non-blocking check whether a message on (source, tag) is queued.

        A miss lets every other ready rank run before it returns
        ``False``, so a probing loop cannot starve the sender it is waiting
        for.  Raises :class:`CommunicationError` once the fabric is
        aborted, so such a loop fails fast after a sibling rank dies.
        """
        self._check_abort()
        if (source, tag) in self._boxes[dst].queues:
            return True
        if self._ready:
            self._ready.append(dst)
            self._hand_over(dst)
        return False

    def abort(self, exc: BaseException) -> None:
        """Poison the fabric and release every rank waiting at its gate.

        Called by the SPMD engine when one rank raises (so sibling ranks
        fail fast instead of staying parked) and by its wall-clock
        watchdog.  From here on the baton no longer orders anything: each
        released rank raises :class:`CommunicationError` where it wakes.
        """
        if self._abort_exc is None:
            self._abort_exc = exc
        for rank in range(self.size):
            self._open(rank)
