"""Per-neighbour halo message coalescing (cf. arXiv 1210.4400).

A stencil step exchanges one strip per (axis, direction) per *array*:
the evolving grid plus any number of exchanged coefficient fields, and —
for deep-halo multi-step schemes — ``k`` strips of depth ``h`` each.
Sending each strip as its own message multiplies Fabric traffic by the
array count: ``O(fields x axes x 2)`` messages per rank per step, each
paying the LogGP per-message overhead and latency.

:class:`HaloCoalescer` aggregates every strip bound for one neighbour
into a single payload, restoring the ``O(axes x 2)`` message count while
charging exactly the same wire bytes (the caller passes the summed
model-scale size).  The charged cost *win* is the per-message constants;
the bytes term is unchanged by design.

Layouts are registered once per configuration (strip shapes never change
between steps).  A pack buffer lives as long as its message: each send
packs into a fresh contiguous array and hands it over with ``owned=True``
(no snapshot copy), the receiver's ``deliver`` copies it into the halo
slab, and after that nothing holds it.  No send can therefore clobber a
message still in flight, however many rounds a sender runs ahead.

- **Single-strip layouts** (the common one-grid case) reproduce the
  pre-coalescer protocol byte for byte: the strip is copied into one
  contiguous message and received straight into the halo slab via
  ``irecv(out=...)``.  Existing single-field runs are therefore charged
  *identically* — same message count, same sizes, same clock arithmetic.
- **Multi-strip layouts** pack all strips into one flat message (segment
  views, one memcpy each), and on the receive side land in a flat staging
  buffer, kept per face, that :meth:`CoalescedRecv.wait` scatters into
  the individual halo slabs.
"""

from __future__ import annotations

from math import prod
from typing import Any, Hashable, Sequence

import numpy as np

from repro.util.errors import ConfigurationError


class CoalescedRecv:
    """Handle for one in-flight coalesced receive.

    ``wait()`` blocks (in virtual time) until the payload is delivered;
    multi-strip payloads are then scattered from the staging buffer into
    the registered output views.  Single-strip receives were posted with
    ``out=`` pointing directly at the halo slab, so there is nothing to
    scatter.
    """

    __slots__ = ("_req", "_stage", "_outs")

    def __init__(self, req: Any, stage: np.ndarray | None, outs: Sequence[np.ndarray]) -> None:
        self._req = req
        self._stage = stage
        self._outs = outs

    def wait(self) -> None:
        self._req.wait()
        stage = self._stage
        if stage is not None:
            offset = 0
            for out in self._outs:
                n = out.size
                out[...] = stage[offset : offset + n].reshape(out.shape)
                offset += n


class HaloCoalescer:
    """Packs all strips bound for one neighbour into a single message.

    One instance per runtime configuration.  Keys are opaque hashables
    identifying a (neighbour, direction) face — the stencil runtime uses
    ``(axis, side)``.  Every strip of a layout must share one dtype (they
    are segments of one wire buffer).
    """

    def __init__(self, comm: Any, trace: Any = None) -> None:
        self.comm = comm
        self.trace = trace
        #: key -> tuple of strip shapes (fixed at registration).
        self._layouts: dict[Hashable, tuple[tuple[int, ...], ...]] = {}
        #: key -> flat receive staging buffer (multi-strip layouts only).
        self._recv_stage: dict[Hashable, np.ndarray] = {}

    def register(
        self, key: Hashable, strip_shapes: Sequence[tuple[int, ...]], dtype: np.dtype
    ) -> None:
        """Declare the fixed per-step layout of one face's payload."""
        if key in self._layouts:
            raise ConfigurationError(f"coalescer key {key!r} already registered")
        shapes = tuple(tuple(int(n) for n in shape) for shape in strip_shapes)
        if not shapes:
            raise ConfigurationError("a coalesced layout needs at least one strip")
        self._layouts[key] = shapes
        if len(shapes) > 1:
            self._recv_stage[key] = np.empty(sum(prod(s) for s in shapes), dtype=dtype)

    def strips_per_message(self, key: Hashable) -> int:
        return len(self._layouts[key])

    def send(
        self,
        key: Hashable,
        dest: int,
        tag: int,
        strips: Sequence[np.ndarray],
        wire_bytes: float,
    ) -> None:
        """Pack ``strips`` into a fresh buffer and send it as one message.

        ``wire_bytes`` is the charged model-scale size of the whole
        payload (the sum over strips) — coalescing changes the message
        count, never the byte count.
        """
        shapes = self._layouts[key]
        if len(strips) != len(shapes):
            raise ConfigurationError(
                f"layout {key!r} packs {len(shapes)} strip(s), got {len(strips)}"
            )
        if len(shapes) == 1:
            buf = strips[0].copy()
        else:
            buf = np.empty(sum(strip.size for strip in strips), dtype=strips[0].dtype)
            offset = 0
            for strip in strips:
                n = strip.size
                np.copyto(buf[offset : offset + n].reshape(strip.shape), strip)
                offset += n
        self.comm.isend(buf, dest, tag, wire_bytes=wire_bytes, owned=True)
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.count("halo.msgs")
            trace.count("halo.strips", len(strips))

    def post_recv(
        self, key: Hashable, source: int, tag: int, outs: Sequence[np.ndarray]
    ) -> CoalescedRecv:
        """Post the matching receive; ``outs`` are the halo-slab views."""
        shapes = self._layouts[key]
        if len(outs) != len(shapes):
            raise ConfigurationError(
                f"layout {key!r} delivers {len(shapes)} strip(s), got {len(outs)}"
            )
        stage = self._recv_stage.get(key)
        target = outs[0] if stage is None else stage
        req = self.comm.irecv(source=source, tag=tag, out=target)
        return CoalescedRecv(req, stage, outs)
