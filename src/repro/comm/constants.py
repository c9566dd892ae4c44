"""The null peer and the tag spaces (MPI-compatible meanings)."""

PROC_NULL = -2
"""A null peer: sends/recvs involving it complete immediately as no-ops.

Returned by :meth:`repro.comm.cart.CartComm.shift` at grid borders,
exactly like ``MPI_PROC_NULL``.
"""

COLLECTIVE_TAG_BASE = 1 << 24
"""Tags at or above this value are reserved for internal collectives."""

MAX_USER_TAG = COLLECTIVE_TAG_BASE - 1
"""Largest tag a user message may carry."""

RELIABLE_SEQ_SLOTS = 4096
"""Sequence-number slots per reliable stream (seq is encoded mod this)."""

RELIABLE_DATA_BASE = 1 << 44
"""Reliable-layer DATA tags: ``base + orig_tag * SLOTS + seq % SLOTS``.

Any original tag (user or collective) times the slot count stays far below
``RELIABLE_ACK_BASE``, so the three tag spaces never collide.
"""

RELIABLE_ACK_BASE = 1 << 45
"""Reliable-layer ACK tags (same encoding as DATA, different base).

Tags at or above this value are header-only protocol control messages;
:meth:`repro.faults.plan.FaultPlan.decide` exempts them from message-fault
rules (a dropped ack in a real stop-and-wait protocol just causes a
retransmit that the receiver dedups — behaviour the duplicate fault
already exercises — so modelling ack loss separately would only double
the protocol's state machine, not its observable behaviour).
"""
