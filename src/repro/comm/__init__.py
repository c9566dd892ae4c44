"""MPI-like message passing over an in-process fabric with virtual time.

This is the distributed-memory substrate the framework (and the hand-written
baselines) run on.  Semantics mirror MPI / mpi4py:

- blocking and non-blocking point-to-point (``send``/``recv``/``isend``/
  ``irecv``/``sendrecv``); every receive names its source and tag, and
  each (source, tag) pair is a FIFO (non-overtaking);
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

from repro.comm.constants import PROC_NULL
from repro.comm.fabric import Fabric, Message
from repro.comm.communicator import SimComm, Request, SendRequest, RecvRequest
from repro.comm.cart import CartComm
from repro.util.lazy import lazy_exports

# Only a ``reliable`` run loads the retransmitting communicator (PEP 562).
_lazy, __getattr__, __dir__ = lazy_exports(
    __name__, {"reliable": ["ReliableComm"]}
)

__all__ = [
    "PROC_NULL",
    "Fabric",
    "Message",
    "SimComm",
    "Request",
    "SendRequest",
    "RecvRequest",
    *_lazy,
    "CartComm",
]
