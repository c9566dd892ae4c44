"""MPI-like message passing over an in-process fabric with virtual time.

This is the distributed-memory substrate the framework (and the hand-written
baselines) run on.  Semantics mirror MPI / mpi4py:

- blocking and non-blocking point-to-point (``send``/``recv``/``isend``/
  ``irecv``/``sendrecv``) with tag matching and per-(source, tag) FIFO
  (non-overtaking) ordering;
- collectives built *on top of* point-to-point (binomial trees, recursive
  doubling, dissemination barrier) so their virtual-time cost emerges from
  the same link model as everything else;
- Cartesian topologies (:class:`CartComm`) with ``shift`` for stencil halo
  exchange.

Timing follows LogGP: a message of ``n`` bytes over a link costs
``send_overhead`` on the sender, then arrives ``latency + n/bandwidth``
later; the receiver's clock jumps to the arrival time (never backwards) and
pays ``recv_overhead``.  Intra-node and inter-node links differ only in
their :class:`~repro.cluster.specs.InterconnectSpec`.
"""

from repro.comm.constants import ANY_SOURCE, ANY_TAG, PROC_NULL
from repro.comm.fabric import Fabric, Message
from repro.comm.communicator import SimComm, Request, SendRequest, RecvRequest
from repro.comm.reliable import ReliableComm, ReliableRecvRequest
from repro.comm.cart import CartComm

__all__ = [
    "ANY_SOURCE",
    "ANY_TAG",
    "PROC_NULL",
    "Fabric",
    "Message",
    "SimComm",
    "Request",
    "SendRequest",
    "RecvRequest",
    "ReliableComm",
    "ReliableRecvRequest",
    "CartComm",
]
